package core

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"bolt/internal/dataset"
	"bolt/internal/forest"
	"bolt/internal/tree"
)

// TestVotesBatchMatchesRow is the batch kernel's headline invariant:
// for every batch size — empty, single row, one bit short of a chunk,
// exactly a chunk, chunk+1, several chunks, and across block
// boundaries — VotesBatch is bit-exact with per-row Votes.
func TestVotesBatchMatchesRow(t *testing.T) {
	f, d := trainForest(t, 201, 12, 5)
	bf, err := Compile(f, Options{ClusterThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	all := append(append([][]float32{}, d.X...), randomInputs(300, d.NumFeatures, 202)...)
	s := bf.NewScratch()
	s.SetBatchBlock(128) // small block so multi-block paths are exercised
	vw := bf.VoteWidth()
	row := make([]int64, vw)
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 300, len(all)} {
		X := all[:n]
		batch := make([]int64, n*vw)
		bf.VotesBatch(X, s, batch)
		for i, x := range X {
			bf.Votes(x, s, row)
			for c := range row {
				if batch[i*vw+c] != row[c] {
					t.Fatalf("n=%d sample %d class %d: batch=%d row=%d", n, i, c, batch[i*vw+c], row[c])
				}
			}
		}
	}
}

// TestBatchBoundaryValues feeds every batch path the inputs where a
// predicate's outcome flips or is undefined — exact thresholds, the
// next float above them, NaN, ±Inf and −0, mixed into rows and as
// whole rows — and checks them against the source forest through
// CheckSafety, which covers the row, serial and parallel batch, both
// layouts and exact tiering.
func TestBatchBoundaryValues(t *testing.T) {
	f, d := trainForest(t, 211, 10, 5)
	for _, opt := range []Options{
		{ClusterThreshold: 4},
		{ClusterThreshold: 8, TierTrees: 3},
		{ClusterThreshold: 2, BloomBitsPerKey: -1},
	} {
		bf, err := Compile(f, opt)
		if err != nil {
			t.Fatalf("Compile(%+v): %v", opt, err)
		}
		X := boundaryInputs(bf.Codebook, 200, d.NumFeatures, 212)
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)} {
			x := make([]float32, d.NumFeatures)
			for j := range x {
				x[j] = float32(v)
			}
			X = append(X, x)
		}
		for id := 0; id < bf.Codebook.Len(); id++ {
			p := bf.Codebook.Predicate(int32(id))
			x := append([]float32(nil), d.X[id%len(d.X)]...)
			x[p.Feature] = p.Threshold
			X = append(X, x)
		}
		if err := bf.CheckSafety(f, X); err != nil {
			t.Errorf("options %+v: %v", opt, err)
		}
	}
}

// Bloom-filtered and filter-free compilations must agree through the
// batch path too (the filter only ever skips table probes that would
// miss anyway).
func TestVotesBatchAcrossOptions(t *testing.T) {
	f, d := trainForest(t, 203, 8, 4)
	X := append(append([][]float32{}, d.X[:150]...), randomInputs(150, d.NumFeatures, 204)...)
	for _, opt := range []Options{
		{ClusterThreshold: 1},
		{ClusterThreshold: 8},
		{ClusterThreshold: 8, BloomBitsPerKey: -1},
		{ClusterThreshold: 16, TableLoadFactor: 0.25},
	} {
		bf, err := Compile(f, opt)
		if err != nil {
			t.Fatalf("Compile(%+v): %v", opt, err)
		}
		if err := bf.CheckSafety(f, X); err != nil {
			t.Errorf("options %+v: %v", opt, err)
		}
	}
}

func TestPredictBatchIntoMatchesPredict(t *testing.T) {
	f, d := trainForest(t, 205, 10, 4)
	bf, err := Compile(f, Options{ClusterThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	X := append(append([][]float32{}, d.X...), randomInputs(100, d.NumFeatures, 206)...)
	s := bf.NewScratch()
	out := make([]int, len(X))
	bf.PredictBatchInto(X, s, out)
	ref := bf.NewScratch()
	for i, x := range X {
		if want := bf.Predict(x, ref); out[i] != want {
			t.Fatalf("sample %d: batch predicted %d, row path %d", i, out[i], want)
		}
	}
	// The allocating wrapper takes the same kernel.
	for i, got := range bf.PredictBatch(X[:97]) {
		if got != out[i] {
			t.Fatalf("PredictBatch sample %d: got %d want %d", i, got, out[i])
		}
	}
}

func TestVotesBatchRegression(t *testing.T) {
	rf, gbt, d := regressionForests(t)
	X := append(append([][]float32{}, d.X[:130]...), randomInputs(130, d.NumFeatures, 207)...)
	for name, f := range map[string]*forest.Forest{"bagged": rf, "boosted": gbt} {
		bf, err := Compile(f, Options{ClusterThreshold: 4, Seed: 208})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := bf.NewScratch()
		batch := make([]int64, len(X))
		bf.VotesBatch(X, s, batch)
		row := make([]int64, 1)
		for i, x := range X {
			bf.Votes(x, s, row)
			if batch[i] != row[0] {
				t.Fatalf("%s sample %d: batch=%d row=%d", name, i, batch[i], row[0])
			}
		}
	}
}

func TestPredictBatchIntoPanicsOnRegression(t *testing.T) {
	_, gbt, d := regressionForests(t)
	bf, err := Compile(gbt, Options{ClusterThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	bf.PredictBatchInto(d.X[:2], bf.NewScratch(), make([]int, 2))
}

// TestFlatDictMirrorsDictionary checks the SoA flattening is faithful:
// same IDs, masks, values, uncommon lists, and a packed common list
// consistent with the mask/value words.
func TestFlatDictMirrorsDictionary(t *testing.T) {
	f, _ := trainForest(t, 209, 10, 5)
	bf, err := Compile(f, Options{ClusterThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	d, fd := bf.Dict, bf.Flat
	if fd.Len() != len(d.Entries) {
		t.Fatalf("flat has %d entries, dict %d", fd.Len(), len(d.Entries))
	}
	if fd.Words() != d.Words() {
		t.Fatalf("flat words %d, dict words %d", fd.Words(), d.Words())
	}
	for i := range d.Entries {
		e := &d.Entries[i]
		if fd.ID(i) != e.ID {
			t.Fatalf("entry %d: flat ID %d, dict ID %d", i, fd.ID(i), e.ID)
		}
		mask, vals := fd.MaskVals(i)
		for w := range e.CommonMask {
			if mask[w] != e.CommonMask[w] || vals[w] != e.CommonVals[w] {
				t.Fatalf("entry %d word %d: flat (%x,%x) dict (%x,%x)",
					i, w, mask[w], vals[w], e.CommonMask[w], e.CommonVals[w])
			}
		}
		unc := fd.Uncommon(i)
		if len(unc) != len(e.Uncommon) {
			t.Fatalf("entry %d: flat %d uncommon, dict %d", i, len(unc), len(e.Uncommon))
		}
		for j := range unc {
			if unc[j] != e.Uncommon[j] {
				t.Fatalf("entry %d uncommon %d: flat %d, dict %d", i, j, unc[j], e.Uncommon[j])
			}
		}
		common := fd.Common(i)
		if len(common) != e.NumCommon {
			t.Fatalf("entry %d: flat %d common pairs, dict %d", i, len(common), e.NumCommon)
		}
		for _, packed := range common {
			pred := packed >> 1
			w, b := pred/64, uint(pred%64)
			if e.CommonMask[w]&(1<<b) == 0 {
				t.Fatalf("entry %d: packed predicate %d not in mask", i, pred)
			}
			wantVal := e.CommonVals[w]&(1<<b) != 0
			if (packed&1 == 1) != wantVal {
				t.Fatalf("entry %d predicate %d: packed value %v, dict %v", i, pred, packed&1 == 1, wantVal)
			}
		}
	}
}

func TestBatchBlockFor(t *testing.T) {
	for _, tc := range []struct {
		cache, words, vw int
		want             int
	}{
		{0, 1, 3, 64},            // floor
		{1 << 30, 1, 3, 4096},    // ceiling
		{192 << 10, 1, 3, 4096},  // tiny rows: capped
		{192 << 10, 64, 10, 128}, // 1104 B/sample → 178 → rounded to 128
	} {
		if got := BatchBlockFor(tc.cache, tc.words, tc.vw); got != tc.want {
			t.Errorf("BatchBlockFor(%d,%d,%d) = %d, want %d", tc.cache, tc.words, tc.vw, got, tc.want)
		}
		got := BatchBlockFor(tc.cache, tc.words, tc.vw)
		if got%64 != 0 || got < 64 || got > 4096 {
			t.Errorf("BatchBlockFor(%d,%d,%d) = %d out of contract", tc.cache, tc.words, tc.vw, got)
		}
	}
}

func TestSetBatchBlock(t *testing.T) {
	f, d := trainForest(t, 210, 6, 3)
	bf, err := Compile(f, Options{ClusterThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := bf.NewScratch()
	s.SetBatchBlock(100) // rounds up to 128
	out := make([]int, len(d.X))
	bf.PredictBatchInto(d.X, s, out)
	ref := bf.PredictBatch(d.X)
	for i := range out {
		if out[i] != ref[i] {
			t.Fatalf("sample %d: custom block predicted %d, default %d", i, out[i], ref[i])
		}
	}
	s.SetBatchBlock(0) // back to default, still correct
	bf.PredictBatchInto(d.X, s, out)
	for i := range out {
		if out[i] != ref[i] {
			t.Fatalf("sample %d after reset: got %d want %d", i, out[i], ref[i])
		}
	}
}

// SalienceInto must agree with the allocating wrapper and count exactly
// the features of matched entries.
func TestSalienceIntoMatchesSalience(t *testing.T) {
	f, d := trainForest(t, 211, 10, 4)
	bf, err := Compile(f, Options{ClusterThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := bf.NewScratch()
	counts := make([]int, bf.NumFeatures)
	sawNonZero := false
	for _, x := range d.X[:50] {
		want := bf.Salience(x, s)
		bf.SalienceInto(x, s, counts)
		for j := range counts {
			if counts[j] != want[j] {
				t.Fatalf("feature %d: SalienceInto %d, Salience %d", j, counts[j], want[j])
			}
			if counts[j] > 0 {
				sawNonZero = true
			}
		}
	}
	if !sawNonZero {
		t.Fatal("salience counts all zero across 50 samples — scan is not matching")
	}
}

func TestSafetyCatchesBatchDivergence(t *testing.T) {
	// CheckSafety must now also police the batch path: corrupt the flat
	// dictionary (leaving the row path intact) and the check must fail.
	f, d := trainForest(t, 212, 8, 4)
	bf, err := Compile(f, Options{ClusterThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.CheckSafety(f, d.X[:64]); err != nil {
		t.Fatal(err)
	}
	if len(bf.Flat.common) == 0 {
		t.Skip("no common pairs to corrupt")
	}
	old := bf.Flat.common[0]
	bf.Flat.common[0] ^= 1 // flip one required predicate value
	defer func() { bf.Flat.common[0] = old }()
	if err := bf.CheckSafety(f, d.X[:64]); err == nil {
		t.Fatal("CheckSafety accepted a diverging batch kernel")
	}
}

// The degenerate single-leaf forest (no predicates at all) must survive
// the batch path: stale row words may be transposed but no predicate
// column is ever read.
func TestVotesBatchSingleLeafForest(t *testing.T) {
	d := &dataset.Dataset{Name: "pure", NumFeatures: 2, NumClasses: 2,
		X: [][]float32{{1, 2}, {3, 4}}, Y: []int{1, 1}}
	f := forest.Train(d, forest.Config{NumTrees: 3, Tree: tree.Config{MaxDepth: 4}, Seed: 213})
	bf, err := Compile(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bf.Kind != tree.Classification {
		t.Fatal("expected classification forest")
	}
	X := randomInputs(70, 2, 214)
	if err := bf.CheckSafety(f, X); err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(X))
	bf.PredictBatchInto(X, bf.NewScratch(), out)
	for i, got := range out {
		if got != 1 {
			t.Fatalf("sample %d: got class %d, want 1", i, got)
		}
	}
}

// Decoded artifacts must carry a working flat dictionary too.
func TestDecodeCompiledBuildsFlatDict(t *testing.T) {
	f, d := trainForest(t, 215, 8, 4)
	bf, err := Compile(f, Options{ClusterThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeCompiled(&buf, bf); err != nil {
		t.Fatal(err)
	}
	rt, err := DecodeCompiled(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Flat == nil {
		t.Fatal("DecodeCompiled left Flat nil")
	}
	if err := rt.CheckSafety(f, d.X[:100]); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkBatchEncode splits the batch kernel by Fig. 7 phase on the
// serving benchmark's batch-offline forest shape (synthetic mnist, 30
// trees of depth 10, default options): "encode" times predicate
// encoding alone (encodeBlock over every block of the batch), "kernel"
// the whole block kernel (VotesBatch), each at 1,024, 70, 5 and 1 rows
// and reported per row.
func BenchmarkBatchEncode(b *testing.B) {
	if testing.Short() {
		b.Skip("training the 30x10 forest takes seconds; skipped in -short")
	}
	f := forest.Train(dataset.SyntheticMNIST(3000, 2^0x11), forest.Config{
		NumTrees: 30,
		Tree:     tree.Config{MaxDepth: 10},
		Seed:     2,
	})
	bf, err := Compile(f, Options{})
	if err != nil {
		b.Fatal(err)
	}
	X := dataset.SyntheticMNIST(1024, 3).X
	vw := bf.VoteWidth()
	for _, n := range []int{1024, 70, 5, 1} {
		rows := X[:n]
		s := bf.NewScratch()
		block := s.ensureBatch(bf)
		votes := make([]int64, n*vw)
		perRow := func(b *testing.B) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
		}
		b.Run(fmt.Sprintf("rows=%d/encode", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for lo := 0; lo < n; lo += block {
					hi := lo + block
					if hi > n {
						hi = n
					}
					bf.encodeBlock(rows[lo:hi], s, votes[lo*vw:hi*vw])
				}
			}
			perRow(b)
		})
		b.Run(fmt.Sprintf("rows=%d/kernel", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bf.VotesBatch(rows, s, votes)
			}
			perRow(b)
		})
	}
}
