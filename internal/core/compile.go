package core

import (
	"fmt"
	"sort"

	"bolt/internal/bitpack"
	"bolt/internal/bloom"
	"bolt/internal/forest"
	"bolt/internal/paths"
	"bolt/internal/tree"
)

// Options configures compilation of a trained forest into a Bolt forest.
// The zero value is usable; unset fields take the documented defaults.
type Options struct {
	// ClusterThreshold is Phase 1's tunable limit on uncommon
	// feature-value pairs per cluster (§4.1); it is the hyperparameter
	// Phase 2 sweeps. 0 means the default of 8; a negative value means
	// a literal threshold of 0 (clusters merge exact-duplicate paths
	// only). Larger values mean fewer, larger dictionary entries and a
	// bigger table.
	ClusterThreshold int
	// BloomBitsPerKey sizes the Phase 3 filter (§4.3); 0 means 8.
	// Negative disables the filter entirely (ablation).
	BloomBitsPerKey int
	// CompactIDs selects the paper's one-byte entry-ID slot layout (§5).
	// It is probabilistic: a false positive whose tag collides mod 256
	// canmis-aggregate; strict mode (default) verifies the full key.
	CompactIDs bool
	// TableLoadFactor targets the cuckoo table fill; 0 means 0.5.
	TableLoadFactor float64
	// Seed drives hash-seed selection.
	Seed uint64
	// TierTrees splits the forest for tiered early-exit inference (see
	// tiered.go): the paths of the first TierTrees trees are clustered
	// separately so their dictionary entries form a contiguous tier-0
	// prefix, and the tiered kernels scan the remaining entries only
	// for samples whose tier-0 margin is inconclusive. 0 (or a value
	// at or beyond the tree count) disables tiering; negative is
	// treated as 0. Tiering changes only entry order, never votes.
	TierTrees int
}

func (o Options) normalized() Options {
	if o.ClusterThreshold == 0 {
		o.ClusterThreshold = 8
	}
	if o.ClusterThreshold < 0 {
		o.ClusterThreshold = 0
	}
	if o.BloomBitsPerKey == 0 {
		o.BloomBitsPerKey = 8
	}
	if o.TableLoadFactor == 0 {
		o.TableLoadFactor = 0.5
	}
	if o.TierTrees < 0 {
		o.TierTrees = 0
	}
	return o
}

// Forest is a compiled Bolt forest: the output of Fig. 1 — lookup
// tables plus dictionary plus filter — ready for inference.
type Forest struct {
	Codebook *paths.Codebook
	Dict     *Dictionary
	// Flat is the SoA flattening of Dict used by the inference hot
	// loops; Compile and DecodeCompiled keep it in sync with Dict.
	Flat   *FlatDict
	Table  *LookupTable
	Filter *bloom.Filter // nil when disabled

	// Compact is the §5 compressed layout built next to Flat; the scan
	// paths use it when scanCompact is set (chosen per forest: compact
	// wins when its total footprint is smaller — see buildCompact).
	Compact     *CompactDict
	scanCompact bool

	// features groups the codebook's predicates by feature for the
	// batch kernel's column encoder. Compile and DecodeCompiled build
	// it with the forest, never lazily: forests are shared across
	// goroutines.
	features *paths.FeatureIndex

	NumFeatures int
	NumClasses  int
	NumTrees    int
	// TotalWeight is the sum of tree weights; classification votes for
	// one input always sum to exactly this (safety invariant), and mean
	// regression divides by it.
	TotalWeight int64
	// Kind, Bias and Additive mirror the source forest's aggregation
	// semantics (regression support).
	Kind     tree.Kind
	Bias     int64
	Additive bool

	// Tier boundary for staged early-exit inference (tiered.go). The
	// first TierEntries dictionary entries hold every path of the first
	// TierTrees trees; TierWeight is the summed weight of the remaining
	// trees — the most any class can still gain after tier 0, hence the
	// exact-mode margin. TierMargin is an optional calibrated threshold
	// (CalibrateTier) carried with the model; -1 means none.
	TierTrees   int
	TierEntries int
	TierWeight  int64
	TierMargin  int64

	opts Options
}

// VoteWidth is the accumulator length: NumClasses for classification,
// 1 for regression.
func (bf *Forest) VoteWidth() int {
	if bf.Kind == tree.Regression {
		return 1
	}
	return bf.NumClasses
}

// Options returns the (normalised) options the forest was compiled with.
func (bf *Forest) Options() Options { return bf.opts }

// Compilation is the reusable front half of the Bolt pipeline: the
// forest's enumerated, lexicographically sorted paths and predicate
// codebook. Phase 2 parameter search compiles the same Compilation many
// times with different options without re-enumerating paths.
type Compilation struct {
	f  *forest.Forest
	cb *paths.Codebook
	ps []paths.Path
}

// NewCompilation enumerates and sorts the forest's paths once.
func NewCompilation(f *forest.Forest) (*Compilation, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("core: cannot compile invalid forest: %w", err)
	}
	cb := paths.NewCodebook()
	ps := paths.Enumerate(f, cb)
	if len(ps) == 0 {
		return nil, fmt.Errorf("core: forest yielded no usable paths")
	}
	paths.Sort(ps)
	return &Compilation{f: f, cb: cb, ps: ps}, nil
}

// NumPaths returns the number of enumerated usable paths.
func (c *Compilation) NumPaths() int { return len(c.ps) }

// NumPredicates returns the codebook size.
func (c *Compilation) NumPredicates() int { return c.cb.Len() }

// EstimateEntries predicts, without expanding, how many lookup-table
// entries a given cluster threshold would generate (upper bound: the
// per-address vote merge only shrinks it). Phase 2 uses it to skip
// configurations whose don't-care expansion would explode (§4.1: the
// address space grows exponentially in the uncommon features).
func (c *Compilation) EstimateEntries(threshold int) int64 {
	clusters := BuildClusters(c.ps, threshold)
	var total int64
	for ci := range clusters {
		cl := &clusters[ci]
		uncommon := make(map[int32]struct{}, len(cl.Uncommon))
		for _, u := range cl.Uncommon {
			uncommon[u] = struct{}{}
		}
		for _, pi := range cl.Paths {
			constrained := 0
			for _, pr := range c.ps[pi].Pairs {
				if _, ok := uncommon[pr.Pred]; ok {
					constrained++
				}
			}
			free := len(cl.Uncommon) - constrained
			if free > 62 {
				return 1 << 62
			}
			total += int64(1) << uint(free)
			if total < 0 {
				return 1 << 62
			}
		}
	}
	return total
}

// Compile runs the back half of the pipeline — clustering at the
// configured threshold, don't-care expansion, table construction,
// filter population — and returns the inference-ready Bolt forest.
func (c *Compilation) Compile(opts Options) (*Forest, error) {
	opts = opts.normalized()
	ps, clusters, tierEntries := c.clusterTiered(opts)
	dict, err := NewDictionary(clusters, c.cb.Len())
	if err != nil {
		return nil, err
	}

	voteWidth := c.f.NumClasses
	if c.f.Kind == tree.Regression {
		voteWidth = 1
	}
	entries, err := expandClusters(clusters, dict, ps, voteWidth)
	if err != nil {
		return nil, err
	}
	table, err := buildTable(entries, opts.TableLoadFactor, opts.CompactIDs, opts.Seed)
	if err != nil {
		return nil, err
	}

	var filter *bloom.Filter
	if opts.BloomBitsPerKey > 0 {
		nbits := uint64(len(entries)) * uint64(opts.BloomBitsPerKey)
		k := bloomHashes(opts.BloomBitsPerKey)
		filter = bloom.New(nbits, k, opts.Seed^0xb100f)
		for _, e := range entries {
			filter.Add(Key(e.entryID, e.addr))
		}
	}

	totalWeight := int64(0)
	tierWeight := int64(0)
	tierTrees := 0
	for i := range c.f.Trees {
		totalWeight += c.f.Weight(i)
		if tierEntries > 0 && i >= opts.TierTrees {
			tierWeight += c.f.Weight(i)
		}
	}
	if tierEntries > 0 {
		tierTrees = opts.TierTrees
	}
	// Record the effective tier split (a requested split can degrade to
	// none) so the options survive an encode/decode round trip.
	opts.TierTrees = tierTrees
	bf := &Forest{
		Codebook:    c.cb,
		Dict:        dict,
		Flat:        NewFlatDict(dict),
		Table:       table,
		Filter:      filter,
		NumFeatures: c.f.NumFeatures,
		NumClasses:  c.f.NumClasses,
		NumTrees:    len(c.f.Trees),
		TotalWeight: totalWeight,
		Kind:        c.f.Kind,
		Bias:        c.f.Bias,
		Additive:    c.f.Additive,
		TierTrees:   tierTrees,
		TierEntries: tierEntries,
		TierWeight:  tierWeight,
		TierMargin:  -1,
		opts:        opts,
	}
	bf.Flat.tierEntries = tierEntries
	bf.buildCompact()
	bf.features = paths.NewFeatureIndex(bf.Codebook)
	return bf, nil
}

// clusterTiered runs Phase 1 clustering, honouring the tier split: with
// TierTrees set, the sorted path list is stably partitioned by tree
// index (each half stays lexicographically sorted, so the BuildClusters
// precondition holds), each half is clustered separately, and the
// tier-0 clusters come first — entry IDs are cluster indices, so the
// first TierEntries dictionary entries carry every path of the first
// TierTrees trees and nothing else. Votes are untouched: tiering only
// reorders entries. Returns the path list the clusters index into.
func (c *Compilation) clusterTiered(opts Options) ([]paths.Path, []Cluster, int) {
	k := opts.TierTrees
	if k <= 0 || k >= len(c.f.Trees) {
		return c.ps, BuildClusters(c.ps, opts.ClusterThreshold), 0
	}
	// Stable partition into a copy: c.ps is shared across Compile calls
	// (Phase 2 reuses the Compilation) and must keep its global order.
	ps := make([]paths.Path, 0, len(c.ps))
	for i := range c.ps {
		if c.ps[i].Tree < int32(k) {
			ps = append(ps, c.ps[i])
		}
	}
	n0 := len(ps)
	for i := range c.ps {
		if c.ps[i].Tree >= int32(k) {
			ps = append(ps, c.ps[i])
		}
	}
	if n0 == 0 || n0 == len(ps) {
		// One side is empty (trees with no usable paths): no boundary.
		return c.ps, BuildClusters(c.ps, opts.ClusterThreshold), 0
	}
	clusters := BuildClusters(ps[:n0], opts.ClusterThreshold)
	tierEntries := len(clusters)
	tail := BuildClusters(ps[n0:], opts.ClusterThreshold)
	for ci := range tail {
		for pi := range tail[ci].Paths {
			tail[ci].Paths[pi] += n0
		}
	}
	return ps, append(clusters, tail...), tierEntries
}

// Compile transforms a trained forest into a Bolt forest, running
// Phase 1 (path enumeration, clustering, compression into dictionary +
// recombined lookup table) and Phase 3 (bloom filter). Phase 2 —
// choosing Options — is internal/tuning's job.
func Compile(f *forest.Forest, opts Options) (*Forest, error) {
	c, err := NewCompilation(f)
	if err != nil {
		return nil, err
	}
	return c.Compile(opts)
}

// bloomHashes is the optimal hash count for a bits-per-key budget:
// k = b·ln2, clamped to [1,16].
func bloomHashes(bitsPerKey int) int {
	k := int(float64(bitsPerKey)*0.69314718 + 0.5)
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return k
}

// expandClusters performs the don't-care expansion of Fig. 2: every
// member path of every cluster is expanded over the cluster's
// unconstrained uncommon predicates, and votes landing on the same
// (entry, address) are pre-summed — the compile-time consolidation that
// makes Bolt's inference a single accumulation per matched entry.
// voteWidth is NumClasses for classification, 1 for regression.
func expandClusters(clusters []Cluster, dict *Dictionary, ps []paths.Path, voteWidth int) ([]tableEntry, error) {
	var out []tableEntry
	for ci := range clusters {
		c := &clusters[ci]
		e := &dict.Entries[ci]
		votesByAddr := make(map[uint64][]int64)
		for _, pi := range c.Paths {
			p := &ps[pi]
			fixed, fixedMask := e.AddressForPairs(p.Pairs)
			free := freePositions(len(e.Uncommon), fixedMask)
			if len(free) > 24 {
				return nil, fmt.Errorf("core: cluster %d path expansion would produce 2^%d entries; lower ClusterThreshold", ci, len(free))
			}
			// Enumerate all combinations of the free positions.
			for combo := uint64(0); combo < 1<<uint(len(free)); combo++ {
				addr := fixed
				for b, pos := range free {
					if combo&(1<<uint(b)) != 0 {
						addr |= 1 << uint(pos)
					}
				}
				v := votesByAddr[addr]
				if v == nil {
					v = make([]int64, voteWidth)
					votesByAddr[addr] = v
				}
				v[p.VoteIdx] += p.VoteAdd
			}
		}
		addrs := make([]uint64, 0, len(votesByAddr))
		for a := range votesByAddr {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			out = append(out, tableEntry{entryID: e.ID, addr: a, votes: votesByAddr[a]})
		}
	}
	return out, nil
}

// freePositions lists address-bit positions not constrained by a path.
func freePositions(n int, fixedMask uint64) []int {
	var free []int
	for i := 0; i < n; i++ {
		if fixedMask&(1<<uint(i)) == 0 {
			free = append(free, i)
		}
	}
	return free
}

// Stats summarises the compiled structures for capacity planning (§4.6)
// and the layout experiment (Fig. 8).
type Stats struct {
	Predicates    int
	Paths         int
	DictEntries   int
	TableEntries  int
	TableSlots    int
	ResultVectors int
	BloomBytes    int
	AvgUncommon   float64
	MaxUncommon   int
}

// Stats computes summary statistics of the compiled forest.
func (bf *Forest) Stats() Stats {
	s := Stats{
		Predicates:    bf.Codebook.Len(),
		DictEntries:   len(bf.Dict.Entries),
		TableEntries:  bf.Table.NumEntries(),
		TableSlots:    bf.Table.NumSlots(),
		ResultVectors: bf.Table.NumResults(),
	}
	if bf.Filter != nil {
		s.BloomBytes = bf.Filter.SizeBytes()
	}
	total := 0
	for i := range bf.Dict.Entries {
		u := len(bf.Dict.Entries[i].Uncommon)
		total += u
		if u > s.MaxUncommon {
			s.MaxUncommon = u
		}
	}
	if len(bf.Dict.Entries) > 0 {
		s.AvgUncommon = float64(total) / float64(len(bf.Dict.Entries))
	}
	return s
}

// NewScratch allocates the reusable per-goroutine inference scratch.
func (bf *Forest) NewScratch() *Scratch {
	n := bf.Codebook.Len()
	if n == 0 {
		// Degenerate forests of single-leaf trees have no predicates;
		// keep one backing word so mask compares stay in bounds.
		n = 1
	}
	return &Scratch{
		bits:  bitpack.New(n),
		votes: make([]int64, bf.VoteWidth()),
	}
}
