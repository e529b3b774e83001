package core

import (
	"math"
	"testing"
	"testing/quick"

	"bolt/internal/dataset"
	"bolt/internal/forest"
	"bolt/internal/paths"
	"bolt/internal/rng"
	"bolt/internal/tree"
)

func trainForest(t testing.TB, seed uint64, trees, depth int) (*forest.Forest, *dataset.Dataset) {
	d := dataset.SyntheticBlobs(400, 8, 3, 1.2, seed)
	f := forest.Train(d, forest.Config{
		NumTrees: trees,
		Tree:     tree.Config{MaxDepth: depth},
		Seed:     seed,
	})
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	return f, d
}

func randomInputs(n, features int, seed uint64) [][]float32 {
	r := rng.New(seed)
	X := make([][]float32, n)
	for i := range X {
		x := make([]float32, features)
		for j := range x {
			x[j] = float32(r.Float64()*60 - 10)
		}
		X[i] = x
	}
	return X
}

// boundaryInputs returns n rows of randomInputs with up to two thirds
// of their values replaced by the inputs where a predicate's outcome
// flips or is undefined: a threshold the codebook tests on that
// feature, the next float above it, NaN, ±Inf and −0. NaN reaches the
// kernels from the wire, and uniform random values never hit a
// threshold exactly.
func boundaryInputs(cb *paths.Codebook, n, features int, seed uint64) [][]float32 {
	thresholds := make([][]float32, features)
	for id := 0; id < cb.Len(); id++ {
		p := cb.Predicate(int32(id))
		if int(p.Feature) < features {
			thresholds[p.Feature] = append(thresholds[p.Feature], p.Threshold)
		}
	}
	r := rng.New(seed ^ 0xb0b0)
	X := randomInputs(n, features, seed)
	for _, x := range X {
		for j := range x {
			ts := thresholds[j]
			switch r.Intn(12) {
			case 0, 1, 2:
				if len(ts) > 0 {
					x[j] = ts[r.Intn(len(ts))]
				}
			case 3:
				if len(ts) > 0 {
					x[j] = math.Nextafter32(ts[r.Intn(len(ts))], float32(math.Inf(1)))
				}
			case 4:
				x[j] = float32(math.NaN())
			case 5:
				x[j] = float32(math.Inf(1))
			case 6:
				x[j] = float32(math.Inf(-1))
			case 7:
				x[j] = float32(math.Copysign(0, -1))
			}
		}
	}
	return X
}

// TestSafetyProperty is the headline invariant (paper footnote 1):
// Bolt's aggregated votes equal the original forest's for every input,
// across cluster thresholds and bloom configurations.
func TestSafetyProperty(t *testing.T) {
	f, d := trainForest(t, 41, 10, 4)
	X := append(append([][]float32{}, d.X...), randomInputs(300, d.NumFeatures, 42)...)
	cb := paths.NewCodebook()
	paths.Enumerate(f, cb)
	X = append(X, boundaryInputs(cb, 300, d.NumFeatures, 43)...)
	for _, opt := range []Options{
		{ClusterThreshold: -1}, // normalises to 0: exact-duplicate merging only
		{ClusterThreshold: 1},
		{ClusterThreshold: 2},
		{ClusterThreshold: 4},
		{ClusterThreshold: 8},
		{ClusterThreshold: 16},
		{ClusterThreshold: 8, BloomBitsPerKey: -1}, // filter disabled
		{ClusterThreshold: 8, BloomBitsPerKey: 16},
		{ClusterThreshold: 8, TableLoadFactor: 0.25},
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

// TestSafetyQuick fuzzes forests and inputs.
func TestSafetyQuick(t *testing.T) {
	check := func(seed uint64, thresholdRaw uint8, treesRaw, depthRaw uint8) bool {
		trees := int(treesRaw%12) + 2
		depth := int(depthRaw%5) + 1
		f, d := trainForest(t, seed, trees, depth)
		bf, err := Compile(f, Options{ClusterThreshold: int(thresholdRaw%12) + 1, Seed: seed})
		if err != nil {
			t.Logf("compile failed: %v", err)
			return false
		}
		X := append(d.X[:100], randomInputs(50, d.NumFeatures, seed^7)...)
		return bf.CheckSafety(f, X) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestSafetyWeightedForest(t *testing.T) {
	d := dataset.SyntheticBlobs(300, 6, 3, 1.5, 43)
	f := forest.TrainBoosted(d, forest.Config{NumTrees: 10, Tree: tree.Config{MaxDepth: 3}, Seed: 44})
	bf, err := Compile(f, Options{ClusterThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	X := append(d.X, randomInputs(200, d.NumFeatures, 45)...)
	if err := bf.CheckSafety(f, X); err != nil {
		t.Fatal(err)
	}
}

func TestSafetySingleLeafForest(t *testing.T) {
	// Degenerate case: trees are bare leaves (pure training labels).
	d := &dataset.Dataset{Name: "pure", NumFeatures: 2, NumClasses: 2,
		X: [][]float32{{1, 2}, {3, 4}}, Y: []int{1, 1}}
	f := forest.Train(d, forest.Config{NumTrees: 3, Tree: tree.Config{MaxDepth: 4}, Seed: 46})
	bf, err := Compile(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := bf.CheckSafety(f, randomInputs(50, 2, 47)); err != nil {
		t.Fatal(err)
	}
	if bf.Predict([]float32{0, 0}, bf.NewScratch()) != 1 {
		t.Error("degenerate forest mispredicts")
	}
}

func TestVotesSumToTotalWeight(t *testing.T) {
	f, d := trainForest(t, 48, 10, 4)
	bf, err := Compile(f, Options{ClusterThreshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	s := bf.NewScratch()
	votes := make([]int64, bf.NumClasses)
	for _, x := range d.X[:100] {
		bf.Votes(x, s, votes)
		sum := int64(0)
		for _, v := range votes {
			sum += v
		}
		if sum != bf.TotalWeight {
			t.Fatalf("votes sum %d != total weight %d (a tree lost or double-counted)", sum, bf.TotalWeight)
		}
	}
}

func TestPredictAccuracyMatchesForest(t *testing.T) {
	f, d := trainForest(t, 49, 12, 4)
	bf, err := Compile(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := bf.PredictBatch(d.X)
	want := f.PredictBatch(d.X)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("prediction %d differs: bolt=%d forest=%d", i, got[i], want[i])
		}
	}
}

func TestCompactIDsMostlyAgree(t *testing.T) {
	// The paper's one-byte entry IDs are probabilistic (§5); verify the
	// compact engine stays overwhelmingly consistent with the forest on
	// this workload and report the divergence rate.
	f, d := trainForest(t, 50, 10, 4)
	bf, err := Compile(f, Options{ClusterThreshold: 6, CompactIDs: true})
	if err != nil {
		t.Fatal(err)
	}
	X := append(append([][]float32{}, d.X...), randomInputs(400, d.NumFeatures, 51)...)
	want := f.PredictBatch(X)
	got := bf.PredictBatch(X)
	diverge := 0
	for i := range got {
		if got[i] != want[i] {
			diverge++
		}
	}
	// Mis-aggregation needs a mask-matching miss whose one-byte tag
	// collides (~2/256 per miss candidate), so a few percent divergence
	// on adversarially random inputs is expected; the strict mode test
	// above is the exact one.
	if rate := float64(diverge) / float64(len(X)); rate > 0.05 {
		t.Errorf("compact-ID divergence rate %g > 5%%", rate)
	}
}

func TestCompileRejectsInvalidForest(t *testing.T) {
	if _, err := Compile(&forest.Forest{NumFeatures: 1, NumClasses: 1}, Options{}); err == nil {
		t.Fatal("invalid forest compiled")
	}
}

func TestVotesPanicsOnBadShapes(t *testing.T) {
	f, _ := trainForest(t, 52, 4, 3)
	bf, err := Compile(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := bf.NewScratch()
	t.Run("wrong feature count", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		bf.Votes(make([]float32, 3), s, make([]int64, bf.NumClasses))
	})
	t.Run("wrong votes length", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		bf.Votes(make([]float32, bf.NumFeatures), s, make([]int64, 1))
	})
}

func TestCheckSafetyDetectsCorruption(t *testing.T) {
	f, d := trainForest(t, 53, 6, 3)
	bf, err := Compile(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt every result vector: any sample accumulating votes (all of
	// them — votes always sum to TotalWeight) must now diverge.
	for i := range bf.Table.results {
		bf.Table.results[i][0] += 12345
	}
	if err := bf.CheckSafety(f, d.X); err == nil {
		t.Fatal("corrupted table passed CheckSafety")
	}
}

func TestStats(t *testing.T) {
	f, _ := trainForest(t, 54, 8, 4)
	bf, err := Compile(f, Options{ClusterThreshold: 5})
	if err != nil {
		t.Fatal(err)
	}
	st := bf.Stats()
	if st.DictEntries == 0 || st.TableEntries == 0 || st.Predicates == 0 {
		t.Errorf("stats look empty: %+v", st)
	}
	if st.MaxUncommon > 5 {
		t.Errorf("MaxUncommon %d exceeds threshold 5", st.MaxUncommon)
	}
	if st.TableSlots < st.TableEntries {
		t.Errorf("fewer slots than entries: %+v", st)
	}
	if st.BloomBytes == 0 {
		t.Errorf("bloom filter enabled but BloomBytes = 0")
	}
	if st.ResultVectors > st.TableEntries {
		t.Errorf("more result vectors than entries: %+v", st)
	}
}

func TestSalience(t *testing.T) {
	f, d := trainForest(t, 55, 8, 4)
	bf, err := Compile(f, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := bf.NewScratch()
	counts := bf.Salience(d.X[0], s)
	if len(counts) != d.NumFeatures {
		t.Fatalf("salience length %d, want %d", len(counts), d.NumFeatures)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		t.Fatal("no salient features reported for a matching input")
	}
}

func TestThresholdTradesDictForTable(t *testing.T) {
	// Raising the cluster threshold must not increase dictionary entries
	// and generally grows the table (the §4.2 trade-off Phase 2 tunes).
	f, _ := trainForest(t, 56, 10, 4)
	small, err := Compile(f, Options{ClusterThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Compile(f, Options{ClusterThreshold: 12})
	if err != nil {
		t.Fatal(err)
	}
	if large.Stats().DictEntries > small.Stats().DictEntries {
		t.Errorf("threshold 12 has more dictionary entries (%d) than threshold 1 (%d)",
			large.Stats().DictEntries, small.Stats().DictEntries)
	}
	if large.Stats().TableEntries < small.Stats().TableEntries {
		t.Errorf("threshold 12 table (%d) smaller than threshold 1 (%d)",
			large.Stats().TableEntries, small.Stats().TableEntries)
	}
}

func BenchmarkBoltPredict(b *testing.B) {
	f, d := trainForest(b, 57, 10, 4)
	bf, err := Compile(f, Options{})
	if err != nil {
		b.Fatal(err)
	}
	s := bf.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.Predict(d.X[i%len(d.X)], s)
	}
}
