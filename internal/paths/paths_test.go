package paths

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"bolt/internal/bitpack"
	"bolt/internal/dataset"
	"bolt/internal/forest"
	"bolt/internal/rng"
	"bolt/internal/tree"
)

func TestCodebookDedupes(t *testing.T) {
	cb := NewCodebook()
	a := cb.ID(Predicate{Feature: 3, Threshold: 1.5})
	b := cb.ID(Predicate{Feature: 3, Threshold: 1.5})
	c := cb.ID(Predicate{Feature: 3, Threshold: 2.5})
	d := cb.ID(Predicate{Feature: 4, Threshold: 1.5})
	if a != b {
		t.Error("identical predicates received different IDs")
	}
	if a == c || a == d || c == d {
		t.Error("distinct predicates share an ID")
	}
	if cb.Len() != 3 {
		t.Errorf("Len = %d, want 3", cb.Len())
	}
	if got := cb.Predicate(a); got.Feature != 3 || got.Threshold != 1.5 {
		t.Errorf("Predicate(%d) = %+v", a, got)
	}
	if id, ok := cb.Lookup(Predicate{Feature: 3, Threshold: 2.5}); !ok || id != c {
		t.Error("Lookup failed for registered predicate")
	}
	if _, ok := cb.Lookup(Predicate{Feature: 9, Threshold: 9}); ok {
		t.Error("Lookup succeeded for unknown predicate")
	}
}

func TestEvaluate(t *testing.T) {
	cb := NewCodebook()
	p0 := cb.ID(Predicate{Feature: 0, Threshold: 5})
	p1 := cb.ID(Predicate{Feature: 1, Threshold: 2})
	bits := bitpack.New(cb.Len())
	cb.Evaluate([]float32{5, 3}, bits) // 5<=5 true, 3<=2 false
	if !bits.Get(int(p0)) || bits.Get(int(p1)) {
		t.Errorf("Evaluate bits wrong: %v", bits)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("undersized bitset should panic")
		}
	}()
	cb.Evaluate([]float32{1, 1}, bitpack.New(1))
}

// TestEncodeColumnsMatchesEvaluate: for every chunk size, the column
// encoder's bit r of column id equals Evaluate's bit id on row r —
// with predicates registered out of feature order, repeated NaN
// thresholds, more features than one tile holds, and inputs that sit
// exactly on thresholds or are NaN, ±Inf or −0.
func TestEncodeColumnsMatchesEvaluate(t *testing.T) {
	const features = 2*tileFeatures + 5
	nan := float32(math.NaN())
	r := rng.New(51)
	cb := NewCodebook()
	var thresholds []float32
	for i := 0; i < 300; i++ {
		thr := float32(r.Float64()*10 - 5)
		switch i % 17 {
		case 0:
			thr = nan // never deduped: every NaN gets its own ID
		case 1:
			thr = float32(math.Inf(1))
		case 2:
			thr = float32(math.Copysign(0, -1))
		}
		cb.ID(Predicate{Feature: int32(r.Intn(features)), Threshold: thr})
		thresholds = append(thresholds, thr)
	}
	special := []float32{nan, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0}
	rows := make([][]float32, 64)
	for i := range rows {
		x := make([]float32, features)
		for j := range x {
			switch r.Intn(4) {
			case 0:
				x[j] = thresholds[r.Intn(len(thresholds))]
			case 1:
				x[j] = special[r.Intn(len(special))]
			default:
				x[j] = float32(r.Float64()*10 - 5)
			}
		}
		rows[i] = x
	}
	fi := NewFeatureIndex(cb)
	var tile Tile
	bits := bitpack.New(cb.Len())
	// k = 64 runs first, so each shorter chunk after it finds stale
	// values in the tile rows past k.
	for _, k := range []int{64, 0, 1, 5, 9, 63} {
		cols := make([]uint64, cb.Len())
		fi.EncodeColumns(rows[:k], &tile, cols)
		for i := 0; i < k; i++ {
			cb.Evaluate(rows[i], bits)
			for id := 0; id < cb.Len(); id++ {
				if got, want := cols[id]>>uint(i)&1 == 1, bits.Get(id); got != want {
					t.Fatalf("k=%d row %d predicate %d (%+v, x=%v): column bit %v, Evaluate %v",
						k, i, id, cb.Predicate(int32(id)), rows[i][cb.Predicate(int32(id)).Feature], got, want)
				}
			}
		}
		for id, c := range cols {
			if k < 64 && c>>uint(k) != 0 {
				t.Fatalf("k=%d predicate %d: bits set at or above row %d: %#x", k, id, k, c)
			}
		}
	}
}

// fig2Tree reproduces the paper's Figure 2 tree: root f.a, left child
// f.b, right child f.c, leaves yes/no/no/yes.
func fig2Tree() *tree.Tree {
	return &tree.Tree{
		NumFeatures: 3,
		NumClasses:  2,
		Nodes: []tree.Node{
			{Feature: 0, Threshold: 0.5, Left: 1, Right: 2},
			{Feature: 1, Threshold: 0.5, Left: 3, Right: 4},
			{Feature: 2, Threshold: 0.5, Left: 5, Right: 6},
			{Feature: tree.NoFeature, Label: 1}, // yes
			{Feature: tree.NoFeature, Label: 0}, // no
			{Feature: tree.NoFeature, Label: 0}, // no
			{Feature: tree.NoFeature, Label: 1}, // yes
		},
	}
}

func TestEnumerateFig2(t *testing.T) {
	f := &forest.Forest{Trees: []*tree.Tree{fig2Tree()}, NumFeatures: 3, NumClasses: 2}
	cb := NewCodebook()
	ps := Enumerate(f, cb)
	if len(ps) != 4 {
		t.Fatalf("enumerated %d paths, want 4", len(ps))
	}
	if cb.Len() != 3 {
		t.Fatalf("codebook has %d predicates, want 3", cb.Len())
	}
	for _, p := range ps {
		if len(p.Pairs) != 2 {
			t.Errorf("path %v has %d pairs, want 2", p, len(p.Pairs))
		}
		if p.VoteAdd != forest.WeightOne {
			t.Errorf("path weight %d, want WeightOne", p.VoteAdd)
		}
		for i := 1; i < len(p.Pairs); i++ {
			if p.Pairs[i-1].Pred >= p.Pairs[i].Pred {
				t.Errorf("path pairs not sorted: %v", p.Pairs)
			}
		}
	}
}

func TestEnumerateSharedPredicates(t *testing.T) {
	// Two identical trees: the codebook must not grow on the second.
	f := &forest.Forest{Trees: []*tree.Tree{fig2Tree(), fig2Tree()}, NumFeatures: 3, NumClasses: 2}
	cb := NewCodebook()
	ps := Enumerate(f, cb)
	if cb.Len() != 3 {
		t.Errorf("codebook has %d predicates for duplicate trees, want 3", cb.Len())
	}
	if len(ps) != 8 {
		t.Errorf("enumerated %d paths, want 8", len(ps))
	}
	if ps[0].Tree != 0 || ps[4].Tree != 1 {
		t.Error("tree IDs not assigned in order")
	}
}

func TestEnumerateDropsContradictions(t *testing.T) {
	// A degenerate tree testing the same predicate twice: the inner
	// false branch is unreachable.
	tr := &tree.Tree{
		NumFeatures: 1,
		NumClasses:  2,
		Nodes: []tree.Node{
			{Feature: 0, Threshold: 1, Left: 1, Right: 2},
			{Feature: 0, Threshold: 1, Left: 3, Right: 4}, // same test again
			{Feature: tree.NoFeature, Label: 0},
			{Feature: tree.NoFeature, Label: 1},
			{Feature: tree.NoFeature, Label: 0}, // unreachable
		},
	}
	f := &forest.Forest{Trees: []*tree.Tree{tr}, NumFeatures: 1, NumClasses: 2}
	cb := NewCodebook()
	ps := Enumerate(f, cb)
	if len(ps) != 2 {
		t.Fatalf("enumerated %d paths, want 2 (contradiction dropped)", len(ps))
	}
	// The duplicated pair must have been merged.
	for _, p := range ps {
		if len(p.Pairs) != 1 {
			t.Errorf("path pairs %v, want single merged pair", p.Pairs)
		}
	}
}

func TestEnumerateCarriesWeights(t *testing.T) {
	f := &forest.Forest{
		Trees:       []*tree.Tree{fig2Tree(), fig2Tree()},
		Weights:     []int64{100, 200},
		NumFeatures: 3, NumClasses: 2,
	}
	ps := Enumerate(f, NewCodebook())
	for _, p := range ps {
		want := int64(100)
		if p.Tree == 1 {
			want = 200
		}
		if p.VoteAdd != want {
			t.Errorf("tree %d path weight %d, want %d", p.Tree, p.VoteAdd, want)
		}
	}
}

func TestCompareAndSort(t *testing.T) {
	mk := func(pairs ...Pair) Path { return Path{Pairs: pairs} }
	a := mk(Pair{0, false}, Pair{1, false})
	b := mk(Pair{0, false}, Pair{1, true})
	c := mk(Pair{0, true}, Pair{2, false})
	d := mk(Pair{0, false}) // prefix of a
	if Compare(&a, &b) != -1 || Compare(&b, &a) != 1 {
		t.Error("false should sort before true")
	}
	if Compare(&a, &c) != -1 {
		t.Error("lower predicate should sort first")
	}
	if Compare(&d, &a) != -1 {
		t.Error("prefix should sort first")
	}
	if Compare(&a, &a) != 0 {
		t.Error("equal paths should compare 0")
	}

	ps := []Path{c, a, d, b}
	Sort(ps)
	want := []Path{d, a, b, c}
	for i := range ps {
		if Compare(&ps[i], &want[i]) != 0 {
			t.Fatalf("sorted order wrong at %d: %v", i, ps)
		}
	}
}

func TestSortStableByTree(t *testing.T) {
	p := Path{Pairs: []Pair{{0, true}}}
	ps := []Path{{Pairs: p.Pairs, Tree: 2}, {Pairs: p.Pairs, Tree: 0}, {Pairs: p.Pairs, Tree: 1}}
	Sort(ps)
	for i, want := range []int32{0, 1, 2} {
		if ps[i].Tree != want {
			t.Fatalf("tie-break by tree broken: %v", ps)
		}
	}
}

// Property: for every sample, exactly one enumerated path per tree
// matches the evaluated predicate bits — the invariant underpinning
// Bolt's safety argument (§4, "Each tree has exactly one matching path
// for a given input").
func TestExactlyOnePathPerTreeQuick(t *testing.T) {
	d := dataset.SyntheticBlobs(300, 6, 3, 1.0, 31)
	f := forest.Train(d, forest.Config{NumTrees: 7, Tree: tree.Config{MaxDepth: 4}, Seed: 32})
	cb := NewCodebook()
	ps := Enumerate(f, cb)

	bits := bitpack.New(cb.Len())
	r := rng.New(33)
	check := func(_ uint32) bool {
		x := make([]float32, d.NumFeatures)
		for i := range x {
			x[i] = float32(r.Float64() * 40)
		}
		cb.Evaluate(x, bits)
		perTree := make(map[int32]int)
		for i := range ps {
			if ps[i].Matches(bits) {
				perTree[ps[i].Tree]++
			}
		}
		if len(perTree) != len(f.Trees) {
			return false
		}
		for ti, n := range perTree {
			if n != 1 {
				t.Logf("tree %d matched %d paths", ti, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the matching path's label equals the tree's own prediction.
func TestMatchingPathLabelQuick(t *testing.T) {
	d := dataset.SyntheticBlobs(200, 5, 3, 1.2, 34)
	f := forest.Train(d, forest.Config{NumTrees: 5, Tree: tree.Config{MaxDepth: 3}, Seed: 35})
	cb := NewCodebook()
	ps := Enumerate(f, cb)
	bits := bitpack.New(cb.Len())

	for _, x := range d.X {
		cb.Evaluate(x, bits)
		for i := range ps {
			if !ps[i].Matches(bits) {
				continue
			}
			if got := f.Trees[ps[i].Tree].Predict(x); int32(got) != ps[i].VoteIdx {
				t.Fatalf("path vote index %d != tree prediction %d", ps[i].VoteIdx, got)
			}
		}
	}
}

func TestSortIsLexicographicOnRealForest(t *testing.T) {
	d := dataset.SyntheticBlobs(200, 5, 2, 1.0, 36)
	f := forest.Train(d, forest.Config{NumTrees: 4, Tree: tree.Config{MaxDepth: 4}, Seed: 37})
	ps := Enumerate(f, NewCodebook())
	Sort(ps)
	if !sort.SliceIsSorted(ps, func(i, j int) bool { return Compare(&ps[i], &ps[j]) < 0 }) {
		// SliceIsSorted with a strict less can flag equal neighbours;
		// re-check pairwise allowing equality.
		for i := 1; i < len(ps); i++ {
			if Compare(&ps[i-1], &ps[i]) > 0 {
				t.Fatalf("paths out of order at %d", i)
			}
		}
	}
}

func TestEnumerateRegressionContributions(t *testing.T) {
	d := dataset.SyntheticFriedman(200, 1, 41)
	f := forest.TrainGBT(d, forest.GBTConfig{Rounds: 5, Tree: tree.Config{MaxDepth: 3, MaxFeatures: -1}, Seed: 42})
	cb := NewCodebook()
	ps := Enumerate(f, cb)
	if len(ps) == 0 {
		t.Fatal("no paths")
	}
	// Every regression path votes into slot 0 with the exact fixed-point
	// contribution of its leaf.
	bits := bitpack.New(cb.Len())
	for _, x := range d.X[:50] {
		cb.Evaluate(x, bits)
		total := int64(0)
		for i := range ps {
			if ps[i].VoteIdx != 0 {
				t.Fatal("regression path votes outside slot 0")
			}
			if ps[i].Matches(bits) {
				total += ps[i].VoteAdd
			}
		}
		if want := f.ValueVotes(x); total != want {
			t.Fatalf("matched-path contributions %d != forest ValueVotes %d", total, want)
		}
	}
}
