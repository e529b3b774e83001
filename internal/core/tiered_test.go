package core

import (
	"bytes"
	"testing"

	"bolt/internal/forest"
)

// compileTiered builds a tiered forest for tests: half the trees in
// tier 0 unless an explicit split is given.
func compileTiered(t testing.TB, seed uint64, trees, depth, tierTrees int) (*Forest, *forest.Forest, [][]float32) {
	t.Helper()
	f, d := trainForest(t, seed, trees, depth)
	bf, err := Compile(f, Options{ClusterThreshold: 4, TierTrees: tierTrees, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return bf, f, d.X
}

// TestTieredCompileBoundary verifies the compile-time split: the tier-0
// entry prefix is non-trivial, recorded identically on both layouts,
// and the tier weight is exactly the summed weight of the tier-1 trees.
func TestTieredCompileBoundary(t *testing.T) {
	bf, f, _ := compileTiered(t, 401, 12, 4, 6)
	if !bf.Tiered() {
		t.Fatalf("forest with TierTrees=6 of 12 is not tiered (entries=%d of %d)", bf.TierEntries, bf.Flat.Len())
	}
	if bf.TierEntries <= 0 || bf.TierEntries >= bf.Flat.Len() {
		t.Fatalf("tier boundary %d not interior to [1,%d)", bf.TierEntries, bf.Flat.Len())
	}
	if got := bf.Flat.TierEntries(); got != bf.TierEntries {
		t.Errorf("flat layout boundary %d, forest records %d", got, bf.TierEntries)
	}
	if got := bf.Compact.TierEntries(); got != bf.TierEntries {
		t.Errorf("compact layout boundary %d, forest records %d", got, bf.TierEntries)
	}
	want := int64(0)
	for i := 6; i < 12; i++ {
		want += f.Weight(i)
	}
	if bf.TierWeight != want {
		t.Errorf("tier weight %d, want %d", bf.TierWeight, want)
	}
	if bf.ExactTierMargin() != bf.TierWeight {
		t.Errorf("exact margin %d != tier weight %d", bf.ExactTierMargin(), bf.TierWeight)
	}
}

// TestTieredDisabled covers the degenerate splits: 0, negative, and at
// or beyond the tree count all compile untier'd and stay bit-exact
// with the default compilation.
func TestTieredDisabled(t *testing.T) {
	f, d := trainForest(t, 402, 8, 4)
	base, err := Compile(f, Options{ClusterThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, -3, 8, 20} {
		bf, err := Compile(f, Options{ClusterThreshold: 4, TierTrees: k})
		if err != nil {
			t.Fatal(err)
		}
		if bf.Tiered() || bf.TierEntries != 0 || bf.TierTrees != 0 || bf.TierWeight != 0 {
			t.Fatalf("TierTrees=%d should compile untier'd, got trees=%d entries=%d weight=%d",
				k, bf.TierTrees, bf.TierEntries, bf.TierWeight)
		}
		if bf.Flat.Len() != base.Flat.Len() {
			t.Fatalf("TierTrees=%d changed the dictionary: %d entries vs %d", k, bf.Flat.Len(), base.Flat.Len())
		}
		var ts TierStats
		s := bf.NewScratch()
		out := make([]int, len(d.X))
		bf.PredictBatchTieredInto(d.X, s, -1, out, &ts)
		if ts.Tier0Answered != 0 || ts.Escalated != int64(len(d.X)) {
			t.Fatalf("untier'd fallback stats = %+v, want all escalated", ts)
		}
		for i, x := range d.X {
			if want := bf.Predict(x, s); out[i] != want {
				t.Fatalf("untier'd fallback label %d = %d, want %d", i, out[i], want)
			}
		}
	}
}

// TestTieredSafety runs the full CheckSafety suite — which now includes
// the exact-mode tiered proof on both layouts and the parallel path —
// over several tier splits.
func TestTieredSafety(t *testing.T) {
	for _, k := range []int{1, 3, 6, 11} {
		bf, f, X := compileTiered(t, 403, 12, 4, k)
		if !bf.Tiered() {
			t.Fatalf("TierTrees=%d: not tiered", k)
		}
		if err := bf.CheckSafety(f, X); err != nil {
			t.Fatalf("TierTrees=%d: %v", k, err)
		}
	}
}

// TestTieredExactMatchesMonolithic asserts the headline exactness claim
// directly on a decently sized batch, checking stats consistency and
// that tier 0 answers at least something at the exact margin. The split
// puts a majority of the trees in tier 0: a sample's lead can never
// exceed tier-0's own summed weight, so exact-mode decisions are only
// attainable when tier-0 outweighs tier-1 (the blobs are well
// separated, so confident samples then exist).
func TestTieredExactMatchesMonolithic(t *testing.T) {
	bf, _, X := compileTiered(t, 404, 16, 5, 12)
	s := bf.NewScratch()
	want := make([]int, len(X))
	bf.PredictBatchInto(X, s, want)
	got := make([]int, len(X))
	var ts TierStats
	bf.PredictBatchTieredInto(X, s, -1, got, &ts)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: tiered=%d monolithic=%d", i, got[i], want[i])
		}
	}
	if ts.Total() != int64(len(X)) {
		t.Fatalf("stats cover %d of %d samples", ts.Total(), len(X))
	}
	if ts.Tier0Answered == 0 {
		t.Errorf("exact mode answered nothing at tier 0 (escalation rate %.2f)", ts.EscalationRate())
	}
}

// TestTieredCalibration checks CalibrateTier's contract: the returned
// threshold respects the loss budget on the holdout, is clamped to the
// exact margin, and is monotone in the budget.
func TestTieredCalibration(t *testing.T) {
	bf, _, X := compileTiered(t, 405, 12, 4, 3)
	s := bf.NewScratch()
	want := make([]int, len(X))
	bf.PredictBatchInto(X, s, want)

	prev := int64(-1)
	for _, budget := range []float64{0, 0.01, 0.05, 0.5, 1} {
		thr, err := CalibrateTier(bf, X, budget)
		if err != nil {
			t.Fatal(err)
		}
		if thr < 0 || thr > bf.ExactTierMargin() {
			t.Fatalf("budget %v: threshold %d outside [0, %d]", budget, thr, bf.ExactTierMargin())
		}
		if prev >= 0 && thr > prev {
			t.Fatalf("threshold not monotone: budget %v gave %d after %d", budget, thr, prev)
		}
		prev = thr
		got := make([]int, len(X))
		bf.PredictBatchTieredInto(X, s, thr, got, nil)
		diverged := 0
		for i := range want {
			if got[i] != want[i] {
				diverged++
			}
		}
		if allowed := int(budget * float64(len(X))); diverged > allowed {
			t.Fatalf("budget %v (<=%d samples): %d diverged at threshold %d", budget, allowed, diverged, thr)
		}
	}

	if _, err := CalibrateTier(bf, nil, 0.1); err == nil {
		t.Error("CalibrateTier accepted an empty holdout")
	}
	if _, err := CalibrateTier(bf, X, -0.1); err == nil {
		t.Error("CalibrateTier accepted a negative budget")
	}
	flat, err := Compile(mustForest(t, 406), Options{ClusterThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CalibrateTier(flat, X, 0.1); err == nil {
		t.Error("CalibrateTier accepted an untier'd forest")
	}
}

func mustForest(t *testing.T, seed uint64) *forest.Forest {
	f, _ := trainForest(t, seed, 8, 4)
	return f
}

// TestTieredModelRoundTrip proves the tier boundary survives
// serialization: encode, decode, and compare the tier fields, the
// per-layout boundaries, and the tiered predictions (including a stored
// calibrated margin).
func TestTieredModelRoundTrip(t *testing.T) {
	bf, _, X := compileTiered(t, 407, 10, 4, 5)
	thr, err := CalibrateTier(bf, X, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	bf.SetTierMargin(thr)
	var buf bytes.Buffer
	if err := EncodeCompiled(&buf, bf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCompiled(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TierTrees != bf.TierTrees || got.TierEntries != bf.TierEntries ||
		got.TierWeight != bf.TierWeight || got.TierMargin != thr {
		t.Fatalf("tier fields did not round trip: got (%d,%d,%d,%d) want (%d,%d,%d,%d)",
			got.TierTrees, got.TierEntries, got.TierWeight, got.TierMargin,
			bf.TierTrees, bf.TierEntries, bf.TierWeight, thr)
	}
	if got.Flat.TierEntries() != bf.TierEntries || got.Compact.TierEntries() != bf.TierEntries {
		t.Fatalf("layout boundaries did not round trip: flat=%d compact=%d want %d",
			got.Flat.TierEntries(), got.Compact.TierEntries(), bf.TierEntries)
	}
	if got.Options().TierTrees != bf.TierTrees {
		t.Errorf("options TierTrees %d, want %d", got.Options().TierTrees, bf.TierTrees)
	}
	s, gs := bf.NewScratch(), got.NewScratch()
	want := make([]int, len(X))
	out := make([]int, len(X))
	bf.PredictBatchTieredInto(X, s, -1, want, nil)
	got.PredictBatchTieredInto(X, gs, -1, out, nil)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("decoded tiered label %d = %d, want %d", i, out[i], want[i])
		}
	}
}

// TestTieredVotesParallelStats checks the parallel entry point's stats
// sum across shards and the labels agree with the serial tiered path
// at a calibrated (lossy) margin too — the parallel and serial kernels
// must agree with each other at any margin, not just the exact one.
func TestTieredVotesParallelStats(t *testing.T) {
	bf, _, X := compileTiered(t, 408, 12, 4, 4)
	s := bf.NewScratch()
	for _, margin := range []int64{-1, 0, bf.TierWeight / 2} {
		want := make([]int, len(X))
		var wantTS TierStats
		bf.PredictBatchTieredInto(X, s, margin, want, &wantTS)
		for workers := 2; workers <= 4; workers++ {
			rt := NewRuntime(bf, workers)
			got := make([]int, len(X))
			var ts TierStats
			bf.PredictBatchTieredParallelInto(X, rt, margin, got, &ts)
			rt.Close()
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("margin %d workers %d: sample %d parallel=%d serial=%d", margin, workers, i, got[i], want[i])
				}
			}
			if ts.Total() != int64(len(X)) {
				t.Fatalf("margin %d workers %d: stats cover %d of %d", margin, workers, ts.Total(), len(X))
			}
			if ts != wantTS {
				t.Fatalf("margin %d workers %d: parallel stats %+v != serial %+v", margin, workers, ts, wantTS)
			}
		}
	}
}

// FuzzTieredDifferential is the tiered differential fuzz target: over
// random forest shapes, compile options, tier splits, margins and batch
// geometries, exact-mode tiered labels must equal the row path's on
// both layouts, escalated vote rows must be bit-exact, and calibrated
// margins must only ever decide samples whose lead clears them.
func FuzzTieredDifferential(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(6), uint8(3), uint8(2), uint16(70), uint16(0), int64(-1))
	f.Add(uint64(2), uint8(1), uint8(4), uint8(1), uint8(1), uint16(1), uint16(64), int64(0))
	f.Add(uint64(3), uint8(16), uint8(12), uint8(5), uint8(7), uint16(129), uint16(100), int64(1000))
	f.Add(uint64(4), uint8(8), uint8(9), uint8(2), uint8(12), uint16(64), uint16(1), int64(-1))

	f.Fuzz(func(t *testing.T, seed uint64, thresholdRaw, treesRaw, depthRaw, tierRaw uint8, nRaw, blockRaw uint16, margin int64) {
		trees := int(treesRaw%12) + 2
		depth := int(depthRaw%5) + 1
		fr, d := trainForest(t, seed, trees, depth)
		opts := Options{
			ClusterThreshold: int(thresholdRaw%16) + 1,
			Seed:             seed,
			TierTrees:        int(tierRaw) % (trees + 2), // includes 0 and >= trees
		}
		if thresholdRaw%3 == 0 {
			opts.BloomBitsPerKey = -1
		}
		bf, err := Compile(fr, opts)
		if err != nil {
			t.Fatalf("compile failed: %v", err)
		}
		n := int(nRaw % 300)
		X := boundaryInputs(bf.Codebook, n, d.NumFeatures, seed^0x71e4)
		vw := bf.VoteWidth()
		row := make([]int64, vw)
		ref := make([]int64, n*vw)
		refLabels := make([]int, n)
		rs := bf.NewScratch()
		for i, x := range X {
			bf.Votes(x, rs, row)
			copy(ref[i*vw:(i+1)*vw], row)
			refLabels[i] = forest.Argmax(row)
		}
		for _, compact := range []bool{false, true} {
			bf.SetCompactScan(compact)
			s := bf.NewScratch()
			s.SetBatchBlock(int(blockRaw % 512))
			votes := make([]int64, n*vw)
			var ts TierStats
			bf.VotesBatchTiered(X, s, votes, -1, &ts)
			out := make([]int, n)
			bf.PredictBatchTieredInto(X, s, -1, out, nil)
			if ts.Total() != int64(n) {
				t.Fatalf("compact=%v: stats cover %d of %d", compact, ts.Total(), n)
			}
			for i := 0; i < n; i++ {
				if out[i] != refLabels[i] {
					t.Fatalf("seed=%d compact=%v tier=%d: exact tiered flips sample %d: %d vs %d",
						seed, compact, bf.TierTrees, i, out[i], refLabels[i])
				}
				r := votes[i*vw : (i+1)*vw]
				if forest.Argmax(r) != refLabels[i] {
					t.Fatalf("seed=%d compact=%v: tiered votes argmax flips sample %d", seed, compact, i)
				}
				full := true
				for c := 0; c < vw; c++ {
					if r[c] != ref[i*vw+c] {
						full = false
						break
					}
				}
				if !full && tierLead(r) <= bf.TierWeight {
					t.Fatalf("seed=%d compact=%v: sample %d decided with lead %d <= margin %d",
						seed, compact, i, tierLead(r), bf.TierWeight)
				}
			}
			// Calibrated sweep: any non-negative margin must only decide
			// samples whose tier-0 lead strictly clears it, and escalated
			// rows stay bit-exact with the reference votes.
			if margin < 0 {
				margin = -margin
			}
			m := margin % (bf.TierWeight + 1)
			bf.VotesBatchTiered(X, s, votes, m, &ts)
			for i := 0; i < n; i++ {
				r := votes[i*vw : (i+1)*vw]
				full := true
				for c := 0; c < vw; c++ {
					if r[c] != ref[i*vw+c] {
						full = false
						break
					}
				}
				if !full && tierLead(r) <= m {
					t.Fatalf("seed=%d compact=%v margin=%d: sample %d decided without clearing the margin",
						seed, compact, m, i)
				}
			}
		}
	})
}

// BenchmarkTieredKernel pins the tiered kernel into the CI bitrot
// sweep: exact mode over the active layout, compared implicitly against
// BenchmarkBatch-style numbers in profiling runs.
func BenchmarkTieredKernel(b *testing.B) {
	f, d := trainForest(b, 409, 16, 5)
	bf, err := Compile(f, Options{ClusterThreshold: 4, TierTrees: 4})
	if err != nil {
		b.Fatal(err)
	}
	s := bf.NewScratch()
	out := make([]int, len(d.X))
	bf.PredictBatchTieredInto(d.X, s, -1, out, nil) // warm scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bf.PredictBatchTieredInto(d.X, s, -1, out, nil)
	}
	b.SetBytes(int64(len(d.X)))
}
