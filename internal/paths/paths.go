// Package paths implements Bolt's path substrate (§4.1, Fig. 3 steps 1–2):
// a forest-wide predicate codebook that dedupes the (feature, threshold)
// tests appearing in any tree, enumeration of every root-to-leaf path as
// a sorted list of (predicate, boolean) pairs, and the lexicographic
// sort/merge that feeds the greedy clusterer.
//
// Binarization: every internal node tests x[feature] <= threshold. Two
// nodes in different trees that test the same (feature, threshold) share
// a predicate ID, which is exactly the cross-tree redundancy Bolt's
// clustering exploits. At inference, one pass evaluates all predicates
// into a bitset that all dictionary entries test with word operations.
package paths

import (
	"fmt"
	"sort"

	"bolt/internal/bitpack"
	"bolt/internal/forest"
	"bolt/internal/tree"
)

// Predicate is one binary test x[Feature] <= Threshold.
type Predicate struct {
	Feature   int32
	Threshold float32
}

// Codebook assigns dense IDs to the distinct predicates of a forest.
// The zero value is not usable; call NewCodebook.
type Codebook struct {
	preds []Predicate
	index map[Predicate]int32
}

// NewCodebook returns an empty codebook.
func NewCodebook() *Codebook {
	return &Codebook{index: make(map[Predicate]int32)}
}

// ID returns the dense ID for p, assigning the next free ID on first
// sight.
func (c *Codebook) ID(p Predicate) int32 {
	if id, ok := c.index[p]; ok {
		return id
	}
	id := int32(len(c.preds))
	c.preds = append(c.preds, p)
	c.index[p] = id
	return id
}

// Lookup returns the ID for p if it was registered.
func (c *Codebook) Lookup(p Predicate) (int32, bool) {
	id, ok := c.index[p]
	return id, ok
}

// Len returns the number of registered predicates.
func (c *Codebook) Len() int { return len(c.preds) }

// Predicate returns the predicate with the given ID.
func (c *Codebook) Predicate(id int32) Predicate { return c.preds[id] }

// Evaluate computes every predicate on x into bits: bit id is set iff
// x[feature] <= threshold. bits must have capacity Len(). This is the
// row path's single input-encoding pass, so it builds each backing
// word branchlessly instead of setting bits one at a time; the batch
// kernel encodes through a FeatureIndex instead.
func (c *Codebook) Evaluate(x []float32, bits *bitpack.Bitset) {
	if bits.Len() < len(c.preds) {
		panic(fmt.Sprintf("paths: bitset capacity %d < %d predicates", bits.Len(), len(c.preds)))
	}
	words := bits.Words()
	preds := c.preds
	for w := 0; w*64 < len(preds); w++ {
		end := (w + 1) * 64
		if end > len(preds) {
			end = len(preds)
		}
		var word uint64
		for i := w * 64; i < end; i++ {
			p := preds[i]
			// Branchless compare: the outcome is data-dependent and
			// would mispredict ~50% of the time as a branch; the
			// bool-to-bit form compiles to SETcc.
			bit := uint64(b2u(x[p.Feature] <= p.Threshold))
			word |= bit << (uint(i) & 63)
		}
		words[w] = word
	}
}

// tileFeatures is how many tested features the column encoder stages
// per tile: a Tile holds tileFeatures features × 64 rows of float32,
// 8 KiB, so a tile and the column words it produces stay in L1.
const tileFeatures = 32

// Tile is the column encoder's feature-major staging buffer: tile[j][r]
// holds row r's value of the tile's j-th feature.
type Tile [tileFeatures][64]float32

// FeatureIndex is the predicate-major view of a codebook that the batch
// kernel encodes through: the distinct tested features in ascending
// order, and for each one the IDs and thresholds of the predicates
// that test it. It is a snapshot — predicates registered afterwards are
// not in it — and read-only, so one index serves every goroutine.
type FeatureIndex struct {
	feats []int32       // distinct tested features, ascending
	start []int32       // feats[g]'s predicates are preds[start[g]:start[g+1]]
	preds []indexedPred // grouped by feature, ascending ID within a group
}

// indexedPred is one predicate's ID and threshold, stored together so
// the encoder reads both with one load.
type indexedPred struct {
	id  int32
	thr float32
}

// NewFeatureIndex groups the codebook's predicates by feature with one
// counting sort, done once per compiled forest.
func NewFeatureIndex(c *Codebook) *FeatureIndex {
	nf := 0
	for _, p := range c.preds {
		nf = max(nf, int(p.Feature)+1)
	}
	// next[f] becomes the first slot of feature f's group, then walks
	// through the group as its predicates are placed in ID order.
	next := make([]int32, nf+1)
	for _, p := range c.preds {
		next[p.Feature+1]++
	}
	fi := &FeatureIndex{preds: make([]indexedPred, len(c.preds))}
	for f := 0; f < nf; f++ {
		if next[f+1] > 0 {
			fi.feats = append(fi.feats, int32(f))
			fi.start = append(fi.start, next[f])
		}
		next[f+1] += next[f]
	}
	fi.start = append(fi.start, int32(len(c.preds)))
	for id, p := range c.preds {
		fi.preds[next[p.Feature]] = indexedPred{id: int32(id), thr: p.Threshold}
		next[p.Feature]++
	}
	return fi
}

// EncodeColumns evaluates every indexed predicate on up to 64 rows into
// predicate-major column words: bit r of cols[id] is set iff
// rows[r][feature] <= threshold, the compare Evaluate makes, so NaN,
// ±Inf and −0 inputs and NaN thresholds encode exactly as on the row
// path. Bits at and above len(rows) are zero, and words of IDs the
// index does not hold are left untouched. Each tile of tileFeatures
// features is first copied feature-major into tile, so every column
// word is built from contiguous values. Every row must be long enough
// for the highest indexed feature.
//
//bolt:hotpath
func (fi *FeatureIndex) EncodeColumns(rows [][]float32, tile *Tile, cols []uint64) {
	k := len(rows)
	if k > 64 {
		panic("paths: EncodeColumns takes at most 64 rows")
	}
	feats, start, preds := fi.feats, fi.start, fi.preds
	for g0 := 0; g0 < len(feats); g0 += tileFeatures {
		group := feats[g0:]
		if len(group) > tileFeatures {
			group = group[:tileFeatures]
		}
		for r, x := range rows {
			for j, f := range group {
				tile[j][r] = x[f]
			}
		}
		for j := range group {
			encodeFeature(&tile[j], k, preds[start[g0+j]:start[g0+j+1]], cols)
		}
	}
}

// encodeFeature writes the column words of one feature's predicates
// from the feature's k staged values. Kept out of EncodeColumns so the
// compare loops run with every variable in a register.
//
//bolt:hotpath
func encodeFeature(vals *[64]float32, k int, preds []indexedPred, cols []uint64) {
	if k == 64 {
		for _, ip := range preds {
			cols[ip.id] = column64(vals, ip.thr)
		}
		return
	}
	for _, ip := range preds {
		t := ip.thr
		var word uint64
		for r := k - 1; r >= 0; r-- {
			word = word<<1 | uint64(b2u(vals[r] <= t))
		}
		cols[ip.id] = word
	}
}

// column64 returns the column word of threshold t over a full chunk:
// bit r is set iff v[r] <= t. Eight compares fill each byte with
// constant shifts, so the compares do not wait on one another.
//
//bolt:hotpath
func column64(v *[64]float32, t float32) uint64 {
	var word uint64
	for r := 0; r < 64; r += 8 {
		b := (*[8]float32)(v[r : r+8])
		word |= (uint64(b2u(b[0] <= t)) | uint64(b2u(b[1] <= t))<<1 |
			uint64(b2u(b[2] <= t))<<2 | uint64(b2u(b[3] <= t))<<3 |
			uint64(b2u(b[4] <= t))<<4 | uint64(b2u(b[5] <= t))<<5 |
			uint64(b2u(b[6] <= t))<<6 | uint64(b2u(b[7] <= t))<<7) << uint(r)
	}
	return word
}

// b2u converts a bool to 0/1 without a branch (compiles to SETcc).
func b2u(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Pair is one (predicate, outcome) step of a path. Val is true when the
// path follows the "test true" (left) edge.
type Pair struct {
	Pred int32
	Val  bool
}

// Path is a root-to-leaf path of one ensemble member: its pairs (sorted
// by predicate ID, each predicate appearing once), the originating
// tree, and the path's vote: VoteIdx selects the accumulator slot
// (the leaf's class label for classification, always 0 for regression)
// and VoteAdd the integer amount added to it (the tree weight for
// classification, the fixed-point value contribution for regression).
type Path struct {
	Pairs   []Pair
	Tree    int32
	VoteIdx int32
	VoteAdd int64
}

// Enumerate walks every tree of f, registering predicates in cb and
// returning every root-to-leaf path with its vote contribution. Paths
// whose pair sets are self-contradictory (the same predicate required
// both true and false — possible only for degenerate trees with
// repeated identical splits) are unreachable by any input and are
// dropped.
func Enumerate(f *forest.Forest, cb *Codebook) []Path {
	var out []Path
	for ti, t := range f.Trees {
		out = appendTreePaths(out, f, t, int32(ti), cb)
	}
	return out
}

func appendTreePaths(out []Path, f *forest.Forest, t *tree.Tree, treeID int32, cb *Codebook) []Path {
	weight := f.Weight(int(treeID))
	regression := f.Kind == tree.Regression
	var walk func(node int32, pairs []Pair) // pairs is the DFS stack
	walk = func(node int32, pairs []Pair) {
		n := &t.Nodes[node]
		if n.IsLeaf() {
			if canon, ok := canonicalize(pairs); ok {
				p := Path{Pairs: canon, Tree: treeID}
				if regression {
					// Same quantisation the forest applies at inference,
					// so pre-summed table votes match exactly.
					p.VoteAdd = forest.Contribution(n.Value, weight)
				} else {
					p.VoteIdx = n.Label
					p.VoteAdd = weight
				}
				out = append(out, p)
			}
			return
		}
		id := cb.ID(Predicate{Feature: n.Feature, Threshold: n.Threshold})
		walk(n.Left, append(pairs, Pair{id, true}))
		walk(n.Right, append(pairs, Pair{id, false}))
	}
	walk(0, make([]Pair, 0, 32))
	return out
}

// canonicalize sorts pairs by predicate ID, merges duplicates, and
// reports ok=false for contradictory paths.
func canonicalize(pairs []Pair) ([]Pair, bool) {
	canon := make([]Pair, len(pairs))
	copy(canon, pairs)
	sort.Slice(canon, func(i, j int) bool {
		if canon[i].Pred != canon[j].Pred {
			return canon[i].Pred < canon[j].Pred
		}
		return !canon[i].Val && canon[j].Val
	})
	w := 0
	for i := 0; i < len(canon); i++ {
		if w > 0 && canon[w-1].Pred == canon[i].Pred {
			if canon[w-1].Val != canon[i].Val {
				return nil, false // contradiction: unreachable path
			}
			continue // duplicate
		}
		canon[w] = canon[i]
		w++
	}
	return canon[:w], true
}

// Compare orders two paths lexicographically by their pair sequences
// (predicate ID, then value, with false < true; a strict prefix sorts
// first). It returns -1, 0 or +1.
func Compare(a, b *Path) int {
	n := len(a.Pairs)
	if len(b.Pairs) < n {
		n = len(b.Pairs)
	}
	for i := 0; i < n; i++ {
		pa, pb := a.Pairs[i], b.Pairs[i]
		switch {
		case pa.Pred < pb.Pred:
			return -1
		case pa.Pred > pb.Pred:
			return 1
		case !pa.Val && pb.Val:
			return -1
		case pa.Val && !pb.Val:
			return 1
		}
	}
	switch {
	case len(a.Pairs) < len(b.Pairs):
		return -1
	case len(a.Pairs) > len(b.Pairs):
		return 1
	default:
		return 0
	}
}

// Sort orders paths lexicographically (Fig. 3 step 2: the per-tree
// sorted lists merged into one forest-wide sorted list). Ties keep
// ascending tree order so the result is deterministic.
func Sort(paths []Path) {
	sort.SliceStable(paths, func(i, j int) bool {
		if c := Compare(&paths[i], &paths[j]); c != 0 {
			return c < 0
		}
		return paths[i].Tree < paths[j].Tree
	})
}

// Matches reports whether the evaluated predicate bits satisfy every
// pair of the path — the reference ("slow") membership definition used
// by tests and by the correctness argument of §4.4.
func (p *Path) Matches(bits *bitpack.Bitset) bool {
	for _, pr := range p.Pairs {
		if bits.Get(int(pr.Pred)) != pr.Val {
			return false
		}
	}
	return true
}
