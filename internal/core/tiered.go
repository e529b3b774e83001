package core

import (
	"fmt"
	"sort"

	"bolt/internal/bitpack"
	"bolt/internal/forest"
	"bolt/internal/tree"
)

// Tiered early-exit inference (DiNo/RanBu-style staging over Bolt's
// lookup-table kernel). Compile orders the dictionary so the first
// TierEntries entries carry every path of the forest's first TierTrees
// trees; the tiered batch kernel scans that prefix, measures each
// sample's leading margin over the runner-up class, and resumes over
// the remaining entries only for samples whose margin is inconclusive.
// Because per-class votes are additive across trees, escalation resumes
// accumulation into the same vote rows — the escalated path does zero
// duplicate work and its votes are bit-exact with the monolithic
// kernel.
//
// Exit rules:
//
//   - exact mode (margin < 0): a sample is decided when its tier-0 lead
//     strictly exceeds TierWeight, the summed weight of the tier-1
//     trees. Each classification tree adds its whole weight to exactly
//     one class, so tier 1 can raise any class by at most TierWeight:
//     for the leader b and any challenger c,
//     final(c) <= votes(c) + TierWeight < votes(b) <= final(b),
//     so the argmax cannot flip — and the strict inequality also
//     preserves the lowest-index tie-break. Zero accuracy change by
//     construction (CheckSafety and FuzzTieredDifferential enforce it).
//   - calibrated mode (margin >= 0): the caller supplies a smaller
//     threshold, typically fit by CalibrateTier on a holdout to a
//     maximum accuracy-loss budget, trading bounded divergence for a
//     lower escalation rate.

// TierStats counts the outcome of tiered calls: samples answered by the
// tier-0 prefix alone versus samples escalated to the full dictionary.
type TierStats struct {
	Tier0Answered int64
	Escalated     int64
}

// Total returns the number of samples the stats cover.
func (ts TierStats) Total() int64 { return ts.Tier0Answered + ts.Escalated }

// EscalationRate returns the escalated fraction in [0, 1] (0 when
// empty).
func (ts TierStats) EscalationRate() float64 {
	if t := ts.Total(); t > 0 {
		return float64(ts.Escalated) / float64(t)
	}
	return 0
}

// Tiered reports whether the tiered kernels have a usable boundary:
// a non-trivial tier-0 entry prefix and at least two vote accumulators
// to take a margin over. Untier'd (or regression) forests make every
// tiered call degrade to the monolithic kernel with all samples
// counted as escalated.
func (bf *Forest) Tiered() bool {
	return bf.TierEntries > 0 && bf.TierEntries < bf.Flat.Len() &&
		bf.Kind != tree.Regression && bf.VoteWidth() >= 2
}

// ExactTierMargin returns the margin that makes tiering lossless: the
// summed weight of the tier-1 trees.
func (bf *Forest) ExactTierMargin() int64 { return bf.TierWeight }

// SetTierMargin stores a calibrated margin threshold on the forest
// (serialized with the model; -1 clears it). It does not change kernel
// behaviour by itself — callers resolve their margin via the stored
// value or pass one explicitly. Not safe concurrently with encoding.
func (bf *Forest) SetTierMargin(m int64) {
	if m < 0 {
		m = -1
	}
	bf.TierMargin = m
}

// effectiveTierMargin resolves a caller margin: m >= 0 is used as-is
// (calibrated mode); negative selects exact mode.
func (bf *Forest) effectiveTierMargin(m int64) int64 {
	if m >= 0 {
		return m
	}
	return bf.TierWeight
}

// ensureTiered grows the survivor compaction buffers for block size b.
// Cold: runs once per batch, before the hotpath kernels.
func (s *Scratch) ensureTiered(b, w, vw int) {
	if len(s.survRows) < b*w {
		s.rowBits = make([]uint64, b*w)
		s.survRows = make([]uint64, b*w)
		s.survCols = make([]uint64, b*w)
	}
	if len(s.survVotes) < b*vw {
		s.survVotes = make([]int64, b*vw)
	}
	if len(s.survIdx) < b {
		s.survIdx = make([]int32, b)
	}
}

// tierLead returns the leading margin of a vote row: best minus
// runner-up. Requires len(votes) >= 2 (guaranteed by Tiered).
//
//bolt:hotpath
func tierLead(votes []int64) int64 {
	best, second := votes[0], votes[1]
	if second > best {
		best, second = second, best
	}
	for _, v := range votes[2:] {
		if v > best {
			second = best
			best = v
		} else if v > second {
			second = v
		}
	}
	return best - second
}

// VotesBatchTiered runs the staged batch kernel for every row of X into
// votes (len(X) × VoteWidth, zeroed first). Decided samples keep their
// tier-0 partial votes — in exact mode (margin < 0) their argmax
// provably equals the monolithic kernel's; escalated samples' votes are
// bit-exact with VotesBatch. ts (may be nil) accumulates the outcome
// counts. Zero allocations once the scratch has grown.
//
//bolt:hotpath
func (bf *Forest) VotesBatchTiered(X [][]float32, s *Scratch, votes []int64, margin int64, ts *TierStats) {
	vw := bf.VoteWidth()
	if len(votes) != len(X)*vw {
		panicBatchVotesLen(len(votes), len(X), vw)
	}
	var local TierStats
	if ts == nil {
		ts = &local
	}
	if !bf.Tiered() {
		bf.VotesBatch(X, s, votes)
		ts.Escalated += int64(len(X))
		return
	}
	margin = bf.effectiveTierMargin(margin)
	b := s.ensureBatch(bf)
	s.ensureTiered(b, bf.Flat.Words(), vw)
	for start := 0; start < len(X); start += b {
		end := start + b
		if end > len(X) {
			end = len(X)
		}
		bf.votesBlockTiered(X[start:end], s, votes[start*vw:end*vw], margin, ts)
	}
}

// votesBlockTiered is the per-block staged kernel: tier-0 scan, margin
// test, survivor compaction, tier-1 resume, scatter-back.
//
//bolt:hotpath
func (bf *Forest) votesBlockTiered(X [][]float32, s *Scratch, votes []int64, margin int64, ts *TierStats) {
	n := len(X)
	chunks := bf.encodeBlock(X, s, votes)
	boundary, total := bf.TierEntries, bf.Flat.Len()
	vw := bf.VoteWidth()
	if bf.scanCompact {
		bf.scanEntriesCompact(s.cols, votes, s, n, chunks, 0, boundary)
	} else {
		bf.scanEntriesFlat(s.cols, votes, n, chunks, 0, boundary)
	}
	// Partition the block: a sample whose lead strictly exceeds the
	// margin is decided; the rest survive to tier 1.
	ns := 0
	for i := 0; i < n; i++ {
		if tierLead(votes[i*vw:(i+1)*vw]) > margin {
			continue
		}
		s.survIdx[ns] = int32(i)
		ns++
	}
	ts.Tier0Answered += int64(n - ns)
	ts.Escalated += int64(ns)
	if ns == 0 {
		return
	}
	if ns == n {
		// Nothing decided: resume over the block's columns in place.
		if bf.scanCompact {
			bf.scanEntriesCompact(s.cols, votes, s, n, chunks, boundary, total)
		} else {
			bf.scanEntriesFlat(s.cols, votes, n, chunks, boundary, total)
		}
		return
	}
	// Compact the survivors: transpose the block's columns back to
	// sample-major rows, gather the survivors' rows and partial votes
	// densely, re-transpose to predicate-major columns, resume
	// accumulation over the tier-1 range, and scatter the finished rows
	// back. Rows past ns in the final chunk hold stale bits; the scan's
	// tail mask keeps them out of every match.
	w := bf.Flat.Words()
	cw := w * 64
	for c := 0; c < chunks; c++ {
		bitpack.UntransposeBlock(s.cols[c*cw:], s.rowBits[c*cw:], w)
	}
	for i := 0; i < ns; i++ {
		si := int(s.survIdx[i])
		copy(s.survRows[i*w:(i+1)*w], s.rowBits[si*w:(si+1)*w])
		copy(s.survVotes[i*vw:(i+1)*vw], votes[si*vw:(si+1)*vw])
	}
	schunks := (ns + 63) / 64
	for c := 0; c < schunks; c++ {
		bitpack.TransposeBlock(s.survRows[c*cw:], s.survCols[c*cw:], w)
	}
	if bf.scanCompact {
		bf.scanEntriesCompact(s.survCols, s.survVotes[:ns*vw], s, ns, schunks, boundary, total)
	} else {
		bf.scanEntriesFlat(s.survCols, s.survVotes[:ns*vw], ns, schunks, boundary, total)
	}
	for i := 0; i < ns; i++ {
		si := int(s.survIdx[i])
		copy(votes[si*vw:(si+1)*vw], s.survVotes[i*vw:(i+1)*vw])
	}
}

// PredictBatchTieredInto classifies every row of X into out (length
// len(X)) with the staged kernel. In exact mode (margin < 0) the labels
// are identical to PredictBatchInto's; with a calibrated margin they
// may diverge within the calibration budget. ts (may be nil)
// accumulates outcome counts. Zero allocations once the scratch has
// grown.
//
//bolt:hotpath
func (bf *Forest) PredictBatchTieredInto(X [][]float32, s *Scratch, margin int64, out []int, ts *TierStats) {
	if bf.Kind == tree.Regression {
		panic("core: PredictBatchTieredInto on a regression forest (use VotesBatch)")
	}
	if len(out) != len(X) {
		panicBufLen("out", len(out), len(X))
	}
	var local TierStats
	if ts == nil {
		ts = &local
	}
	if !bf.Tiered() {
		bf.PredictBatchInto(X, s, out)
		ts.Escalated += int64(len(X))
		return
	}
	margin = bf.effectiveTierMargin(margin)
	b := s.ensureBatch(bf)
	vw := bf.VoteWidth()
	s.ensureBatchVotes(b * vw)
	s.ensureTiered(b, bf.Flat.Words(), vw)
	for start := 0; start < len(X); start += b {
		end := start + b
		if end > len(X) {
			end = len(X)
		}
		n := end - start
		bv := s.batchVotes[:n*vw]
		bf.votesBlockTiered(X[start:end], s, bv, margin, ts)
		for i := 0; i < n; i++ {
			out[start+i] = forest.Argmax(bv[i*vw : (i+1)*vw])
		}
	}
}

// votesBatchTier0 accumulates only the tier-0 entry range for every row
// of X — the calibration probe's view of what tier 0 alone would answer.
func (bf *Forest) votesBatchTier0(X [][]float32, s *Scratch, votes []int64) {
	vw := bf.VoteWidth()
	if len(votes) != len(X)*vw {
		panicBatchVotesLen(len(votes), len(X), vw)
	}
	b := s.ensureBatch(bf)
	for start := 0; start < len(X); start += b {
		end := start + b
		if end > len(X) {
			end = len(X)
		}
		n := end - start
		v := votes[start*vw : end*vw]
		chunks := bf.encodeBlock(X[start:end], s, v)
		if bf.scanCompact {
			bf.scanEntriesCompact(s.cols, v, s, n, chunks, 0, bf.TierEntries)
		} else {
			bf.scanEntriesFlat(s.cols, v, n, chunks, 0, bf.TierEntries)
		}
	}
}

// CalibrateTier fits the smallest margin threshold whose tiered
// predictions diverge from the monolithic kernel on at most
// floor(maxLoss × len(X)) of the holdout samples X. The returned
// threshold is monotone in maxLoss: a sample diverges at threshold t
// exactly when its tier-0 lead exceeds t and its tier-0 argmax differs
// from the full argmax, so raising t only removes divergences.
// maxLoss 0 returns a threshold with zero divergence on the holdout
// (still cheaper than exact mode when the holdout's confident samples
// are honest); the result is clamped to [0, ExactTierMargin].
func CalibrateTier(bf *Forest, X [][]float32, maxLoss float64) (int64, error) {
	if !bf.Tiered() {
		return 0, fmt.Errorf("core: CalibrateTier on an untier'd forest (compile with Options.TierTrees)")
	}
	if len(X) == 0 {
		return 0, fmt.Errorf("core: CalibrateTier needs a non-empty holdout")
	}
	if maxLoss < 0 || maxLoss > 1 {
		return 0, fmt.Errorf("core: CalibrateTier loss budget %v outside [0,1]", maxLoss)
	}
	s := bf.NewScratch()
	vw := bf.VoteWidth()
	full := make([]int64, len(X)*vw)
	bf.VotesBatch(X, s, full)
	t0 := make([]int64, len(X)*vw)
	bf.votesBatchTier0(X, s, t0)
	// A sample can diverge only if deciding it at tier 0 flips the
	// label; collect the tier-0 leads of exactly those samples.
	var leads []int64
	for i := range X {
		row := t0[i*vw : (i+1)*vw]
		if forest.Argmax(row) != forest.Argmax(full[i*vw:(i+1)*vw]) {
			leads = append(leads, tierLead(row))
		}
	}
	budget := int(maxLoss * float64(len(X)))
	if len(leads) <= budget {
		return 0, nil
	}
	// Keep the budget's worth of largest-lead mismatches decided (they
	// are the budgeted loss); every other mismatch must escalate, so
	// the threshold is the largest lead among those — decided requires
	// lead > threshold, so lead == threshold escalates.
	sort.Slice(leads, func(i, j int) bool { return leads[i] < leads[j] })
	thr := leads[len(leads)-budget-1]
	if thr > bf.TierWeight {
		thr = bf.TierWeight
	}
	if thr < 0 {
		thr = 0
	}
	return thr, nil
}
