package core

import (
	"fmt"

	"bolt/internal/bitpack"
	"bolt/internal/forest"
	"bolt/internal/paths"
	"bolt/internal/tree"
)

// Scratch holds the per-goroutine reusable buffers of the inference hot
// path, so steady-state inference performs zero allocations. The batch
// buffers are grown on first batch use and reused afterwards.
type Scratch struct {
	bits  *bitpack.Bitset
	votes []int64

	// Batch kernel state (see batch.go). block is the samples-per-block
	// choice (0 until first use or SetBatchBlock); cols holds the
	// block's predicate-major columns, tile the encoder's feature-major
	// staging buffer, batchVotes the per-block vote accumulators for
	// PredictBatchInto.
	block      int
	cols       []uint64
	tile       *paths.Tile
	batchVotes []int64

	// Compact-path state (see compactscan.go): per-entry decode buffers
	// for the packed common pairs and address predicates, plus the
	// knee-point result store hydrated to flat int64 once per scratch —
	// the batch kernel accumulates hits from resDec at flat-path speed
	// while the resident model keeps the compressed form.
	pairBuf []int32
	uncBuf  []int32
	resDec  []int64

	// Tiered-kernel state (see tiered.go), grown only for tier-split
	// forests: survivor compaction buffers. After the tier-0 scan the
	// block's columns are transposed back to sample-major rowBits; the
	// undecided samples are then packed densely — rows gathered into
	// survRows, re-transposed into survCols, partial votes into
	// survVotes, original positions in survIdx — so the tier-1 scan
	// runs the same column kernel over a smaller block. Grown once;
	// steady state allocates nothing.
	rowBits   []uint64
	survRows  []uint64
	survCols  []uint64
	survVotes []int64
	survIdx   []int32
}

// forEachHit is the shared per-sample dictionary scan: for every entry
// whose common-mask membership test passes on the evaluated input words
// and whose (entryID, address) key survives the bloom filter and
// verifies in the recombined table, it calls fn with the entry index and
// the table's result index. Votes and SalienceInto both route through
// it; the closure stays on the stack, so the scan allocates nothing.
// The active memory layout picks the scan (see compactscan.go).
//
//bolt:hotpath
func (bf *Forest) forEachHit(inputWords []uint64, fn func(entry int, result uint32)) {
	if bf.scanCompact {
		bf.forEachHitCompact(inputWords, fn)
		return
	}
	bf.forEachHitFlat(inputWords, fn)
}

// forEachHitFlat scans the uncompressed FlatDict form.
//
//bolt:hotpath
func (bf *Forest) forEachHitFlat(inputWords []uint64, fn func(entry int, result uint32)) {
	fd := bf.Flat
	for i, n := 0, fd.Len(); i < n; i++ {
		mask, vals := fd.MaskVals(i)
		if !bitpack.MatchesMasked(inputWords, mask, vals) {
			continue
		}
		addr := uint64(0)
		for bi, pred := range fd.Uncommon(i) {
			bit := (inputWords[pred>>6] >> uint(pred&63)) & 1
			addr |= bit << uint(bi)
		}
		id := fd.ID(i)
		if bf.Filter != nil && !bf.Filter.Contains(Key(id, addr)) {
			continue
		}
		if ri, ok := bf.Table.Lookup(id, addr); ok {
			fn(i, ri)
		}
	}
}

// Votes runs Bolt inference for x, accumulating per-class weighted
// votes into votes (length NumClasses, zeroed first). The flow is
// Fig. 7's processing-engine loop:
//
//  1. encode the input once: evaluate every predicate into a bitset;
//  2. for each dictionary entry, test the common-feature mask with
//     word-wide AND/compare (no per-node branching);
//  3. on a mask match, gather the uncommon bits into the table address,
//     consult the bloom filter, and — if it may be present — probe the
//     recombined table, which verifies the (entryID, address) key to
//     reject false positives (§4.3);
//  4. a verified hit contributes its pre-summed vote vector.
//
//bolt:hotpath
func (bf *Forest) Votes(x []float32, s *Scratch, votes []int64) {
	if len(x) != bf.NumFeatures {
		panicFeatures(len(x), bf.NumFeatures)
	}
	if len(votes) != bf.VoteWidth() {
		panicBufLen("votes", len(votes), bf.VoteWidth())
	}
	for i := range votes {
		votes[i] = 0
	}
	bf.Codebook.Evaluate(x, s.bits)
	if bf.scanCompact {
		// Compact layout: scan the compressed dictionary and decode
		// knee-point results straight into the accumulators.
		cr := bf.Compact.Table.Results
		bf.forEachHitCompact(s.bits.Words(), func(_ int, ri uint32) {
			cr.AccumulateInto(votes, ri)
		})
		return
	}
	table := bf.Table
	bf.forEachHitFlat(s.bits.Words(), func(_ int, ri uint32) {
		for c, v := range table.Votes(ri) {
			votes[c] += v
		}
	})
}

// Predict returns the weighted-majority class for x using the provided
// scratch. Ties break toward the lowest class index, matching
// forest.Forest.Predict exactly. For regression forests use
// PredictValue.
func (bf *Forest) Predict(x []float32, s *Scratch) int {
	if bf.Kind == tree.Regression {
		panic("core: Predict on a regression forest (use PredictValue)")
	}
	bf.Votes(x, s, s.votes)
	return forest.Argmax(s.votes)
}

// PredictValue returns the regression output for x, applying exactly
// the aggregation of forest.Forest.PredictValue: (Bias + table
// contributions) divided by WeightOne for additive ensembles or by the
// total weight for mean ensembles.
func (bf *Forest) PredictValue(x []float32, s *Scratch) float32 {
	if bf.Kind != tree.Regression {
		panic("core: PredictValue on a classification forest")
	}
	bf.Votes(x, s, s.votes)
	denom := bf.TotalWeight
	if bf.Additive {
		denom = forest.WeightOne
	}
	return float32(float64(bf.Bias+s.votes[0]) / float64(denom))
}

// PredictBatch classifies every row of X with a private scratch,
// running the cache-blocked batch kernel (see batch.go).
func (bf *Forest) PredictBatch(X [][]float32) []int {
	s := bf.NewScratch()
	out := make([]int, len(X))
	bf.PredictBatchInto(X, s, out)
	return out
}

// CheckSafety verifies the paper's safety property (footnote 1) on the
// given inputs: Bolt's accumulated votes must equal the original
// forest's for every sample — per-class weighted votes for
// classification, the integer value contribution for regression — and
// the batch kernel (serial and parallel, across worker counts 1..8)
// must be bit-exact with the per-sample path. Both memory layouts are
// exercised: after the active layout verifies, the inactive one (flat
// or §5 compact, whichever the size heuristic did not pick) is run
// through the row and batch paths against the same votes. It returns
// the first divergence found. CheckSafety briefly toggles the layout
// selection, so it must not run concurrently with inference on the
// same forest.
func (bf *Forest) CheckSafety(f *forest.Forest, X [][]float32) error {
	s := bf.NewScratch()
	vw := bf.VoteWidth()
	batch := make([]int64, len(X)*vw)
	bf.VotesBatch(X, s, batch)
	if bf.Kind == tree.Regression {
		boltVotes := make([]int64, 1)
		for i, x := range X {
			bf.Votes(x, s, boltVotes)
			if ref := f.ValueVotes(x); boltVotes[0] != ref {
				return fmt.Errorf("core: regression safety violation on sample %d: bolt=%d forest=%d",
					i, boltVotes[0], ref)
			}
			if batch[i] != boltVotes[0] {
				return fmt.Errorf("core: batch kernel diverges on sample %d: batch=%d row=%d",
					i, batch[i], boltVotes[0])
			}
		}
		if err := bf.checkParallelBatch(X, batch); err != nil {
			return err
		}
		return bf.checkAltLayout(X, batch)
	}
	boltVotes := make([]int64, bf.NumClasses)
	refVotes := make([]int64, bf.NumClasses)
	for i, x := range X {
		bf.Votes(x, s, boltVotes)
		f.Votes(x, refVotes)
		for c := range boltVotes {
			if boltVotes[c] != refVotes[c] {
				return fmt.Errorf("core: safety violation on sample %d class %d: bolt=%d forest=%d",
					i, c, boltVotes[c], refVotes[c])
			}
			if batch[i*vw+c] != boltVotes[c] {
				return fmt.Errorf("core: batch kernel diverges on sample %d class %d: batch=%d row=%d",
					i, c, batch[i*vw+c], boltVotes[c])
			}
		}
	}
	if err := bf.checkParallelBatch(X, batch); err != nil {
		return err
	}
	if err := bf.checkAltLayout(X, batch); err != nil {
		return err
	}
	return bf.checkTieredExact(X, batch)
}

// checkTieredExact proves the exact-mode tiered kernels against the
// verified monolithic batch votes, on both memory layouts and the
// serial and parallel paths: every tiered label must equal the
// monolithic argmax, and every tiered vote row must either be bit-exact
// with the monolithic row (the sample escalated) or be a tier-0 prefix
// whose lead strictly exceeds the exact margin (the decision bound that
// makes the label provably final). No-op on untier'd forests.
func (bf *Forest) checkTieredExact(X [][]float32, batch []int64) error {
	if !bf.Tiered() {
		return nil
	}
	vw := bf.VoteWidth()
	saved := bf.scanCompact
	defer func() { bf.scanCompact = saved }()
	tv := make([]int64, len(X)*vw)
	out := make([]int, len(X))
	par := make([]int, len(X))
	for _, compact := range []bool{false, true} {
		bf.scanCompact = compact
		layout := bf.LayoutName()
		s := bf.NewScratch()
		var ts TierStats
		bf.VotesBatchTiered(X, s, tv, -1, &ts)
		bf.PredictBatchTieredInto(X, s, -1, out, nil)
		if got, want := ts.Total(), int64(len(X)); got != want {
			return fmt.Errorf("core: %s tiered stats cover %d of %d samples", layout, got, want)
		}
		for i := range X {
			row := tv[i*vw : (i+1)*vw]
			ref := forest.Argmax(batch[i*vw : (i+1)*vw])
			if got := forest.Argmax(row); got != ref {
				return fmt.Errorf("core: %s tiered votes flip sample %d: tiered=%d monolithic=%d", layout, i, got, ref)
			}
			if out[i] != ref {
				return fmt.Errorf("core: %s tiered predict flips sample %d: tiered=%d monolithic=%d", layout, i, out[i], ref)
			}
			full := true
			for c := 0; c < vw; c++ {
				if row[c] != batch[i*vw+c] {
					full = false
					break
				}
			}
			if !full && tierLead(row) <= bf.TierWeight {
				return fmt.Errorf("core: %s tiered sample %d decided with lead %d <= exact margin %d", layout, i, tierLead(row), bf.TierWeight)
			}
		}
		for workers := 1; workers <= 4; workers++ {
			rt := NewRuntime(bf, workers)
			var pts TierStats
			bf.PredictBatchTieredParallelInto(X, rt, -1, par, &pts)
			rt.Close()
			if got, want := pts.Total(), int64(len(X)); got != want {
				return fmt.Errorf("core: %s parallel tiered stats (workers=%d) cover %d of %d samples", layout, workers, got, want)
			}
			for i := range X {
				if ref := forest.Argmax(batch[i*vw : (i+1)*vw]); par[i] != ref {
					return fmt.Errorf("core: %s parallel tiered (workers=%d) flips sample %d: tiered=%d monolithic=%d",
						layout, workers, i, par[i], ref)
				}
			}
		}
	}
	return nil
}

// checkAltLayout re-runs the row and serial batch paths with the
// layout selection inverted and compares against the already-verified
// batch votes, so both the flat and compact scans are proven bit-exact
// regardless of which one the forest actively uses.
func (bf *Forest) checkAltLayout(X [][]float32, batch []int64) error {
	saved := bf.scanCompact
	defer func() { bf.scanCompact = saved }()
	bf.scanCompact = !saved
	layout := bf.LayoutName()
	vw := bf.VoteWidth()
	s := bf.NewScratch()
	alt := make([]int64, len(X)*vw)
	bf.VotesBatch(X, s, alt)
	row := make([]int64, vw)
	for i, x := range X {
		bf.Votes(x, s, row)
		for c := 0; c < vw; c++ {
			if alt[i*vw+c] != batch[i*vw+c] {
				return fmt.Errorf("core: %s batch kernel diverges on sample %d class %d: %s=%d active=%d",
					layout, i, c, layout, alt[i*vw+c], batch[i*vw+c])
			}
			if row[c] != batch[i*vw+c] {
				return fmt.Errorf("core: %s row path diverges on sample %d class %d: %s=%d active=%d",
					layout, i, c, layout, row[c], batch[i*vw+c])
			}
		}
	}
	return nil
}

// checkParallelBatch compares the parallel batch kernel against the
// serial batch votes for every worker count 1..8. batch has already
// been verified bit-exact with the row path by CheckSafety, so a clean
// pass here proves the parallel kernel against both references.
func (bf *Forest) checkParallelBatch(X [][]float32, batch []int64) error {
	vw := bf.VoteWidth()
	par := make([]int64, len(X)*vw)
	for workers := 1; workers <= 8; workers++ {
		rt := NewRuntime(bf, workers)
		bf.VotesBatchParallel(X, rt, par)
		rt.Close()
		for i := 0; i < len(X); i++ {
			for c := 0; c < vw; c++ {
				if par[i*vw+c] != batch[i*vw+c] {
					return fmt.Errorf("core: parallel batch kernel (workers=%d) diverges on sample %d class %d: parallel=%d serial=%d",
						workers, i, c, par[i*vw+c], batch[i*vw+c])
				}
			}
		}
	}
	return nil
}

// SalienceInto computes, for sample x, how many matched paths used each
// feature — Bolt's local-explanation workload (§2: "Bolt uses
// associative arrays to track salient features ... with one memory
// access per tree inference"). The count for a feature is the number of
// matched dictionary entries whose common pairs or address bits test
// it. counts must have length NumFeatures; it is zeroed first, and the
// call allocates nothing.
//
//bolt:hotpath
func (bf *Forest) SalienceInto(x []float32, s *Scratch, counts []int) {
	if len(counts) != bf.NumFeatures {
		panicBufLen("counts", len(counts), bf.NumFeatures)
	}
	for i := range counts {
		counts[i] = 0
	}
	bf.Codebook.Evaluate(x, s.bits)
	cb := bf.Codebook
	if bf.scanCompact {
		cd := bf.Compact
		bf.forEachHitCompact(s.bits.Words(), func(e int, _ uint32) {
			co, ce := int(cd.commonOff.Get(e)), int(cd.commonOff.Get(e+1))
			r := cd.common.ReaderAt(co)
			for k := co; k < ce; k++ {
				counts[cb.Predicate(int32(r.Next())>>1).Feature]++
			}
			uo, ue := int(cd.uncOff.Get(e)), int(cd.uncOff.Get(e+1))
			ur := cd.uncommon.ReaderAt(uo)
			for k := uo; k < ue; k++ {
				counts[cb.Predicate(int32(ur.Next())).Feature]++
			}
		})
		return
	}
	fd := bf.Flat
	bf.forEachHitFlat(s.bits.Words(), func(e int, _ uint32) {
		for _, packed := range fd.Common(e) {
			counts[cb.Predicate(packed>>1).Feature]++
		}
		for _, pred := range fd.Uncommon(e) {
			counts[cb.Predicate(pred).Feature]++
		}
	})
}

// Cold panic helpers. Hoisting the fmt formatting out of the
// //bolt:hotpath kernels keeps their bodies free of allocating
// constructs (boltvet's hotalloc analyzer enforces this); the helpers
// only run on contract violations, where allocation is irrelevant.
func panicFeatures(got, want int) {
	panic(fmt.Sprintf("core: input has %d features, forest expects %d", got, want))
}

func panicBufLen(what string, got, want int) {
	panic(fmt.Sprintf("core: %s buffer length %d, want %d", what, got, want))
}

// Salience is the allocating convenience wrapper around SalienceInto.
func (bf *Forest) Salience(x []float32, s *Scratch) []int {
	counts := make([]int, bf.NumFeatures)
	bf.SalienceInto(x, s, counts)
	return counts
}
