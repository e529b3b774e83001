package core

import (
	"fmt"
	"math/bits"

	"bolt/internal/forest"
	"bolt/internal/paths"
	"bolt/internal/tree"
)

// The batch kernel (VotesBatch / PredictBatchInto) processes samples in
// cache-resident blocks of B rows:
//
//  1. encode each 64-row chunk straight into predicate-major columns,
//     so column p holds predicate p's outcome for 64 samples in one
//     word. The forest's FeatureIndex (built with the forest) groups
//     predicates by the feature they test; the encoder copies 32
//     features × 64 rows feature-major into an 8 KiB tile, then builds
//     each predicate's column word from 64 contiguous values with the
//     row path's own x <= t compare. A chunk of k < 64 rows compares
//     only k values per predicate;
//  2. interchange the loops — dictionary entries outer, samples inner.
//     Each entry tests its common pairs with one AND (or AND-NOT) per
//     pair per 64 samples, early-exiting when no sample still matches,
//     then gathers addresses and probes the table only for the
//     surviving samples.
//
// Step 2 is where the asymptotic win lives: the row-at-a-time path
// spends words AND+XOR words per entry per sample, the column path
// spends at most NumCommon ops per entry per 64 samples — and dictionary
// entries, table slots and filter lines are streamed through cache once
// per block instead of once per sample.

const (
	// batchCacheBudget bounds the kernel's working set — the column
	// block and the vote accumulators — so it stays resident in a
	// per-core cache while the dictionary streams over it. 192 KiB
	// targets the common private-L2 sizes (256 KiB–1 MiB) of the
	// paper's evaluation machines (§6.2) with headroom for the
	// dictionary stream itself. perfsim owns the full hardware model
	// but imports this package, so the default budget is a constant
	// here; profile-aware callers can size blocks themselves with
	// BatchBlockFor and Scratch.SetBatchBlock.
	batchCacheBudget = 192 << 10

	minBatchBlock = 64
	maxBatchBlock = 4096
)

// BatchBlockFor returns the largest batch block size (a multiple of 64,
// clamped to [64, 4096]) whose working set fits a cache of cacheBytes:
// per sample, `words` row words, `words` column words, and voteWidth
// vote accumulators. Only the tiered kernel holds row words (for its
// survivor compaction), but every forest is budgeted for them.
func BatchBlockFor(cacheBytes, words, voteWidth int) int {
	if words < 1 {
		words = 1
	}
	perSample := 16*words + 8*voteWidth
	b := cacheBytes / perSample
	b &^= 63
	if b < minBatchBlock {
		return minBatchBlock
	}
	if b > maxBatchBlock {
		return maxBatchBlock
	}
	return b
}

// BatchBlockForLayout sizes the batch block for a cache shared between
// the per-sample block working set and the dictionary stream of the
// active memory layout: scanBytes — the layout's dictionary + table +
// results footprint (Forest.ScanBytes) — is reserved first, capped at
// half the budget so oversized models degrade to the BatchBlockFor
// floor instead of starving the block, and the block grows into the
// remainder. A compressed layout reserves less, so its blocks are
// larger — the §5 payoff for the blocked kernel.
func BatchBlockForLayout(cacheBytes, scanBytes, words, voteWidth int) int {
	reserve := scanBytes
	if m := cacheBytes / 2; reserve > m {
		reserve = m
	}
	return BatchBlockFor(cacheBytes-reserve, words, voteWidth)
}

// DefaultBatchBlock returns the block size the batch kernel uses for
// this forest absent an explicit Scratch.SetBatchBlock override,
// budgeting for the bytes the active layout actually streams.
func (bf *Forest) DefaultBatchBlock() int {
	return BatchBlockForLayout(batchCacheBudget, bf.ScanBytes(), bf.Flat.Words(), bf.VoteWidth())
}

// SetBatchBlock overrides the samples-per-block choice for subsequent
// batch calls on this scratch. b is rounded up to a multiple of 64 and
// clamped to [64, 4096]; b <= 0 restores the forest default.
func (s *Scratch) SetBatchBlock(b int) {
	if b <= 0 {
		s.block = 0
		return
	}
	b = (b + 63) &^ 63
	if b < minBatchBlock {
		b = minBatchBlock
	}
	if b > maxBatchBlock {
		b = maxBatchBlock
	}
	s.block = b
}

// ensureBatch picks the block size and grows the batch buffers to hold
// one block. Buffers only ever grow, so steady state allocates nothing.
func (s *Scratch) ensureBatch(bf *Forest) int {
	if s.block == 0 {
		s.block = bf.DefaultBatchBlock()
	}
	b := s.block
	if w := bf.Flat.Words(); len(s.cols) < b*w {
		s.cols = make([]uint64, b*w)
	}
	if s.tile == nil {
		s.tile = new(paths.Tile)
	}
	if cd := bf.Compact; cd != nil {
		// Compact-path decode buffers (CheckSafety runs the inactive
		// layout too, so grow them regardless of scanCompact).
		if len(s.pairBuf) < cd.maxCommon {
			s.pairBuf = make([]int32, cd.maxCommon)
		}
		if len(s.uncBuf) < cd.maxUncommon {
			s.uncBuf = make([]int32, cd.maxUncommon)
		}
		if nr := cd.Table.Results.NumValues(); len(s.resDec) < nr {
			// Hydrate the knee-point store once; the kernel then adds
			// plain int64 vectors per hit, exactly like the flat path.
			s.resDec = make([]int64, nr)
			cd.Table.Results.DecodeAll(s.resDec)
		}
	}
	return b
}

// ensureBatchVotes grows the per-block vote accumulator. Cold: runs
// once per batch, before the //bolt:hotpath kernel loops.
func (s *Scratch) ensureBatchVotes(n int) {
	if len(s.batchVotes) < n {
		s.batchVotes = make([]int64, n)
	}
}

// Cold panic helpers for the batch kernels; see panicBufLen in
// engine.go for why the formatting lives outside the hot functions.
func panicBatchVotesLen(got, samples, vw int) {
	panic(fmt.Sprintf("core: votes buffer length %d, want %d (%d samples × %d)",
		got, samples*vw, samples, vw))
}

func panicRowFeatures(row, got, want int) {
	panic(fmt.Sprintf("core: batch row %d has %d features, forest expects %d", row, got, want))
}

// VotesBatch runs Bolt inference for every row of X, accumulating into
// votes — a flattened matrix of len(X) rows × VoteWidth columns, zeroed
// first. It is bit-exact with calling Votes per row (CheckSafety and
// FuzzVotesBatch enforce this) and allocates nothing once the scratch
// has grown.
//
//bolt:hotpath
func (bf *Forest) VotesBatch(X [][]float32, s *Scratch, votes []int64) {
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
		bf.votesBlock(X[start:end], s, votes[start*vw:end*vw])
	}
}

// votesBlock is the per-block kernel dispatcher; len(X) must be at
// most the block size the scratch buffers were grown for. The active
// memory layout (flat or §5 compact, chosen at compile time by size)
// picks the scan.
//
//bolt:hotpath
func (bf *Forest) votesBlock(X [][]float32, s *Scratch, votes []int64) {
	if bf.scanCompact {
		bf.votesBlockCompact(X, s, votes)
		return
	}
	bf.votesBlockFlat(X, s, votes)
}

// encodeBlock is the shared front half of every block kernel: zero the
// accumulators and encode each 64-row chunk into predicate-major
// columns (step 1 above). Returns the chunk count.
//
//bolt:hotpath
func (bf *Forest) encodeBlock(X [][]float32, s *Scratch, votes []int64) int {
	for i := range votes {
		votes[i] = 0
	}
	for i, x := range X {
		if len(x) != bf.NumFeatures {
			panicRowFeatures(i, len(x), bf.NumFeatures)
		}
	}
	cw := bf.Flat.Words() * 64
	chunks := (len(X) + 63) / 64
	for c := 0; c < chunks; c++ {
		end := c*64 + 64
		if end > len(X) {
			end = len(X)
		}
		bf.features.EncodeColumns(X[c*64:end], s.tile, s.cols[c*cw:(c+1)*cw])
	}
	return chunks
}

// votesBlockFlat scans the uncompressed FlatDict form.
//
//bolt:hotpath
func (bf *Forest) votesBlockFlat(X [][]float32, s *Scratch, votes []int64) {
	chunks := bf.encodeBlock(X, s, votes)
	bf.scanEntriesFlat(s.cols, votes, len(X), chunks, 0, bf.Flat.Len())
}

// scanEntriesFlat runs step 2 of the block kernel — entries outer,
// samples inner — over the flat dictionary range [lo, hi), reading the
// predicate-major columns in cols and accumulating into votes (n
// samples). The tiered kernel (tiered.go) calls it per tier range; the
// monolithic kernel calls it once over the whole dictionary.
//
//bolt:hotpath
func (bf *Forest) scanEntriesFlat(cols []uint64, votes []int64, n, chunks, lo, hi int) {
	fd := bf.Flat
	cw := fd.Words() * 64
	vw := bf.VoteWidth()
	table, filter := bf.Table, bf.Filter
	for e := lo; e < hi; e++ {
		common := fd.Common(e)
		unc := fd.Uncommon(e)
		id := fd.ID(e)
		for c := 0; c < chunks; c++ {
			matched := ^uint64(0)
			if tail := uint(n - c*64); tail < 64 {
				matched = (1 << tail) - 1
			}
			cc := cols[c*cw : (c+1)*cw]
			for _, packed := range common {
				col := cc[packed>>1]
				if packed&1 == 0 {
					col = ^col
				}
				matched &= col
				if matched == 0 {
					break
				}
			}
			if len(unc) == 0 {
				// Fully-common entry: every matched sample shares address
				// 0, so one filter check and one table probe serve the
				// whole chunk.
				if matched == 0 {
					continue
				}
				if filter != nil && !filter.Contains(Key(id, 0)) {
					continue
				}
				ri, ok := table.Lookup(id, 0)
				if !ok {
					continue
				}
				ev := table.Votes(ri)
				for matched != 0 {
					bit := matched & (-matched)
					matched ^= bit
					si := c*64 + bits.TrailingZeros64(bit)
					row := votes[si*vw : (si+1)*vw]
					for k, v := range ev {
						row[k] += v
					}
				}
				continue
			}
			for matched != 0 {
				bit := matched & (-matched)
				matched ^= bit
				sb := uint(bits.TrailingZeros64(bit))
				addr := uint64(0)
				for j, pred := range unc {
					addr |= ((cc[pred] >> sb) & 1) << uint(j)
				}
				if filter != nil && !filter.Contains(Key(id, addr)) {
					continue
				}
				if ri, ok := table.Lookup(id, addr); ok {
					row := votes[(c*64+int(sb))*vw : (c*64+int(sb)+1)*vw]
					for k, v := range table.Votes(ri) {
						row[k] += v
					}
				}
			}
		}
	}
}

// PredictBatchInto classifies every row of X into out (length len(X))
// using the batch kernel. Zero allocations once the scratch has grown.
//
//bolt:hotpath
func (bf *Forest) PredictBatchInto(X [][]float32, s *Scratch, out []int) {
	if bf.Kind == tree.Regression {
		panic("core: PredictBatchInto on a regression forest (use VotesBatch)")
	}
	if len(out) != len(X) {
		panicBufLen("out", len(out), len(X))
	}
	b := s.ensureBatch(bf)
	vw := bf.VoteWidth()
	s.ensureBatchVotes(b * vw)
	for start := 0; start < len(X); start += b {
		end := start + b
		if end > len(X) {
			end = len(X)
		}
		n := end - start
		bv := s.batchVotes[:n*vw]
		bf.votesBlock(X[start:end], s, bv)
		for i := 0; i < n; i++ {
			out[start+i] = forest.Argmax(bv[i*vw : (i+1)*vw])
		}
	}
}
