package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestHotPathAnnotations pins the //bolt:hotpath coverage promised in
// hotalloc's doc comment: every kernel entry point named here must
// keep its annotation, so dropping one (which would silently exempt
// the function from the analyzer) is itself a test failure.
func TestHotPathAnnotations(t *testing.T) {
	cases := []struct {
		file string
		fns  []string
	}{
		{"../core/engine.go", []string{"forEachHit", "forEachHitFlat", "Votes", "SalienceInto"}},
		{"../core/batch.go", []string{"VotesBatch", "votesBlock", "votesBlockFlat", "scanEntriesFlat", "encodeBlock", "PredictBatchInto"}},
		{"../core/compactscan.go", []string{"forEachHitCompact", "compactHit", "votesBlockCompact", "scanEntriesCompact"}},
		{"../core/compactdict.go", []string{"ID", "decodeCommon", "decodeUncommon", "Lookup", "AccumulateInto", "DecodeInto", "escape", "get"}},
		{"../core/runtime.go", []string{"runVotesShard", "runPredictShard", "runPartitionShard", "runTieredShard"}},
		{"../core/tiered.go", []string{"tierLead", "VotesBatchTiered", "votesBlockTiered", "PredictBatchTieredInto"}},
		{"../bitpack/transpose.go", []string{"Transpose64", "TransposeBlock", "UntransposeBlock"}},
		{"../paths/paths.go", []string{"EncodeColumns", "encodeFeature", "column64"}},
		{"../serve/server.go", []string{"runBatch"}},
	}
	fset := token.NewFileSet()
	for _, tc := range cases {
		f, err := parser.ParseFile(fset, tc.file, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", tc.file, err)
		}
		annotated := map[string]bool{}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if c.Text == "//bolt:hotpath" || strings.HasPrefix(c.Text, "//bolt:hotpath ") {
					annotated[fd.Name.Name] = true
				}
			}
		}
		for _, fn := range tc.fns {
			if !annotated[fn] {
				t.Errorf("%s: %s is missing its //bolt:hotpath annotation", tc.file, fn)
			}
		}
	}
}
