package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"

	"bolt/internal/bitpack"
	"bolt/internal/bloom"
	"bolt/internal/paths"
	"bolt/internal/tree"
)

// Compiled-forest model format: the serialised output of Fig. 1 —
// dictionary, recombined lookup table, bloom filter and predicate
// codebook — so a service can load a tuned artifact directly instead of
// recompiling at startup. Little-endian throughout; the slot array is
// stored with a presence bitmap so empty slots cost one bit.

const (
	compiledMagic = uint32(0xb017c04d)
	// compiledV2 added regression aggregation fields.
	compiledV2 = uint16(2)
	// compiledV3 added the tier boundary for staged early-exit
	// inference (TierTrees/TierEntries/TierWeight/TierMargin); v2
	// artifacts still decode, with the tier fields zero (untier'd).
	compiledV3 = uint16(3)
	// compiledMaxCount bounds decoded counts against corrupt headers.
	compiledMaxCount = 1 << 28
	// compiledMaxClasses bounds the class count: every result vector,
	// scratch and batch accumulator is that wide.
	compiledMaxClasses = 1 << 16
	// decodePrealloc caps the capacity preallocated from a decoded
	// count. A count is untrusted until the data behind it has been
	// read, so longer slices grow by append as their elements arrive
	// and a corrupt header cannot make the decoder allocate gigabytes.
	decodePrealloc = 1 << 12
)

// preallocFor returns the capacity to preallocate for n decoded
// elements (see decodePrealloc).
func preallocFor(n int) int {
	return min(max0(n), decodePrealloc)
}

// EncodeCompiled writes the compiled forest to w.
func EncodeCompiled(w io.Writer, bf *Forest) error {
	bw := bufio.NewWriter(w)
	// bufio.Writer has a sticky error: intermediate write errors are
	// dropped here and surface from the final Flush.
	wU32 := func(v uint32) { var b [4]byte; binary.LittleEndian.PutUint32(b[:], v); _, _ = bw.Write(b[:]) }
	wU64 := func(v uint64) { var b [8]byte; binary.LittleEndian.PutUint64(b[:], v); _, _ = bw.Write(b[:]) }
	wU16 := func(v uint16) { var b [2]byte; binary.LittleEndian.PutUint16(b[:], v); _, _ = bw.Write(b[:]) }
	wU8 := func(v uint8) { _ = bw.WriteByte(v) }
	wBool := func(v bool) {
		if v {
			wU8(1)
		} else {
			wU8(0)
		}
	}

	wU32(compiledMagic)
	wU16(compiledV3)
	wU32(uint32(bf.NumFeatures))
	wU32(uint32(bf.NumClasses))
	wU32(uint32(bf.NumTrees))
	wU64(uint64(bf.TotalWeight))
	wU8(uint8(bf.Kind))
	wBool(bf.Additive)
	wU64(uint64(bf.Bias))

	// Options (so the artifact records how it was built).
	o := bf.opts
	wU32(uint32(int32(o.ClusterThreshold)))
	wU32(uint32(int32(o.BloomBitsPerKey)))
	wBool(o.CompactIDs)
	wU64(math.Float64bits(o.TableLoadFactor))
	wU64(o.Seed)

	// Tier boundary (v3): the staged-inference split plus any
	// calibrated margin, so a serving tier can answer from the tier-0
	// prefix without recompiling or recalibrating.
	wU32(uint32(bf.TierTrees))
	wU32(uint32(bf.TierEntries))
	wU64(uint64(bf.TierWeight))
	wU64(uint64(bf.TierMargin))

	// Codebook.
	wU32(uint32(bf.Codebook.Len()))
	for id := int32(0); id < int32(bf.Codebook.Len()); id++ {
		p := bf.Codebook.Predicate(id)
		wU32(uint32(p.Feature))
		wU32(math.Float32bits(p.Threshold))
	}

	// Dictionary.
	d := bf.Dict
	wU32(uint32(d.numPreds))
	wU32(uint32(d.words))
	wU32(uint32(len(d.Entries)))
	for i := range d.Entries {
		e := &d.Entries[i]
		wU32(e.ID)
		wU32(uint32(e.NumCommon))
		for _, word := range e.CommonMask {
			wU64(word)
		}
		for _, word := range e.CommonVals {
			wU64(word)
		}
		wU32(uint32(len(e.Uncommon)))
		for _, u := range e.Uncommon {
			wU32(uint32(u))
		}
	}

	// Lookup table.
	t := bf.Table
	wU32(uint32(len(t.slots)))
	wU64(t.seed1)
	wU64(t.seed2)
	wBool(t.compact)
	wU32(uint32(t.n))
	wU32(uint32(len(t.results)))
	for _, votes := range t.results {
		for _, v := range votes {
			wU64(uint64(v))
		}
	}
	// Presence bitmap, then used slots in index order.
	bitmap := bitpack.New(len(t.slots))
	for i := range t.slots {
		if t.slots[i].used {
			bitmap.Set(i)
		}
	}
	for _, word := range bitmap.Words() {
		wU64(word)
	}
	for i := range t.slots {
		s := &t.slots[i]
		if !s.used {
			continue
		}
		wU32(s.entryID)
		wU64(s.addr)
		wU32(s.result)
	}

	// Bloom filter.
	if bf.Filter != nil {
		wBool(true)
		blob, err := bf.Filter.MarshalBinary()
		if err != nil {
			return err
		}
		wU32(uint32(len(blob)))
		_, _ = bw.Write(blob)
	} else {
		wBool(false)
	}
	return bw.Flush()
}

// DecodeCompiled reads a compiled forest written by EncodeCompiled and
// validates its structural invariants.
func DecodeCompiled(r io.Reader) (*Forest, error) {
	br := bufio.NewReader(r)
	var readErr error
	rU32 := func() uint32 {
		var b [4]byte
		if readErr == nil {
			_, readErr = io.ReadFull(br, b[:])
		}
		return binary.LittleEndian.Uint32(b[:])
	}
	rU64 := func() uint64 {
		var b [8]byte
		if readErr == nil {
			_, readErr = io.ReadFull(br, b[:])
		}
		return binary.LittleEndian.Uint64(b[:])
	}
	rU16 := func() uint16 {
		var b [2]byte
		if readErr == nil {
			_, readErr = io.ReadFull(br, b[:])
		}
		return binary.LittleEndian.Uint16(b[:])
	}
	rU8 := func() uint8 {
		var b [1]byte
		if readErr == nil {
			_, readErr = io.ReadFull(br, b[:])
		}
		return b[0]
	}
	rBool := func() bool { return rU8() == 1 }

	if magic := rU32(); readErr != nil || magic != compiledMagic {
		if readErr != nil {
			return nil, fmt.Errorf("core: reading compiled model: %w", readErr)
		}
		return nil, fmt.Errorf("core: bad magic %#x (not a compiled Bolt forest)", magic)
	}
	version := rU16()
	if readErr == nil && version != compiledV2 && version != compiledV3 {
		return nil, fmt.Errorf("core: unsupported compiled model version %d", version)
	}
	bf := &Forest{}
	bf.NumFeatures = int(rU32())
	bf.NumClasses = int(rU32())
	bf.NumTrees = int(rU32())
	bf.TotalWeight = int64(rU64())
	kindByte := rU8()
	bf.Additive = rBool()
	bf.Bias = int64(rU64())
	if readErr == nil && kindByte > 1 {
		return nil, fmt.Errorf("core: corrupt kind byte %d", kindByte)
	}
	bf.Kind = tree.Kind(kindByte)
	minClasses := 1
	if bf.Kind == tree.Regression {
		minClasses = 0
	}
	if readErr == nil && (bf.NumFeatures <= 0 || bf.NumClasses < minClasses || bf.NumTrees <= 0 ||
		bf.NumFeatures > compiledMaxCount || bf.NumClasses > compiledMaxClasses) {
		return nil, fmt.Errorf("core: implausible compiled header (features=%d classes=%d trees=%d)",
			bf.NumFeatures, bf.NumClasses, bf.NumTrees)
	}

	bf.opts.ClusterThreshold = int(int32(rU32()))
	bf.opts.BloomBitsPerKey = int(int32(rU32()))
	bf.opts.CompactIDs = rBool()
	bf.opts.TableLoadFactor = math.Float64frombits(rU64())
	bf.opts.Seed = rU64()

	// Tier boundary (v3); v2 artifacts are untier'd.
	bf.TierMargin = -1
	if version == compiledV3 {
		bf.TierTrees = int(rU32())
		bf.TierEntries = int(rU32())
		bf.TierWeight = int64(rU64())
		bf.TierMargin = int64(rU64())
		if readErr == nil {
			if bf.TierTrees < 0 || bf.TierTrees > bf.NumTrees || bf.TierEntries < 0 ||
				(bf.TierEntries == 0) != (bf.TierTrees == 0) ||
				bf.TierWeight < 0 || bf.TierWeight > bf.TotalWeight {
				return nil, fmt.Errorf("core: corrupt tier boundary (trees=%d entries=%d weight=%d)",
					bf.TierTrees, bf.TierEntries, bf.TierWeight)
			}
			bf.opts.TierTrees = bf.TierTrees
		}
	}

	// Codebook.
	nPreds := int(rU32())
	if readErr == nil && nPreds > compiledMaxCount {
		return nil, fmt.Errorf("core: implausible predicate count %d", nPreds)
	}
	cb := paths.NewCodebook()
	for i := 0; i < nPreds && readErr == nil; i++ {
		feat := int32(rU32())
		thr := math.Float32frombits(rU32())
		if feat < 0 || int(feat) >= bf.NumFeatures {
			return nil, fmt.Errorf("core: predicate %d tests feature %d outside [0,%d)", i, feat, bf.NumFeatures)
		}
		if got := cb.ID(paths.Predicate{Feature: feat, Threshold: thr}); got != int32(i) {
			return nil, fmt.Errorf("core: duplicate predicate at codebook index %d", i)
		}
	}
	bf.Codebook = cb

	// Dictionary.
	d := &Dictionary{}
	d.numPreds = int(rU32())
	d.words = int(rU32())
	nEntries := int(rU32())
	if readErr == nil {
		if d.numPreds != nPreds {
			return nil, fmt.Errorf("core: dictionary predicate count %d != codebook %d", d.numPreds, nPreds)
		}
		wantWords := (nPreds + 63) / 64
		if wantWords == 0 {
			wantWords = 1
		}
		if d.words != wantWords || nEntries < 0 || nEntries > compiledMaxCount {
			return nil, fmt.Errorf("core: corrupt dictionary header (words=%d entries=%d)", d.words, nEntries)
		}
	}
	d.Entries = make([]DictEntry, 0, preallocFor(nEntries))
	for i := 0; i < nEntries && readErr == nil; i++ {
		e := DictEntry{
			ID:         rU32(),
			NumCommon:  int(rU32()),
			CommonMask: make([]uint64, d.words),
			CommonVals: make([]uint64, d.words),
		}
		for w := range e.CommonMask {
			e.CommonMask[w] = rU64()
		}
		for w := range e.CommonVals {
			e.CommonVals[w] = rU64()
		}
		nu := int(rU32())
		if readErr == nil && (nu < 0 || nu > 63) {
			return nil, fmt.Errorf("core: entry %d has %d uncommon predicates", i, nu)
		}
		e.Uncommon = make([]int32, max0(nu))
		for j := range e.Uncommon {
			u := int32(rU32())
			if readErr == nil && (u < 0 || int(u) >= nPreds) {
				return nil, fmt.Errorf("core: entry %d uncommon predicate %d out of range", i, u)
			}
			e.Uncommon[j] = u
		}
		common := 0
		for w := range e.CommonVals {
			if readErr == nil && e.CommonVals[w]&^e.CommonMask[w] != 0 {
				return nil, fmt.Errorf("core: entry %d has values outside its mask", i)
			}
			common += bits.OnesCount64(e.CommonMask[w])
		}
		if readErr == nil && e.NumCommon != common {
			return nil, fmt.Errorf("core: entry %d claims %d common pairs, its mask holds %d", i, e.NumCommon, common)
		}
		d.Entries = append(d.Entries, e)
	}
	bf.Dict = d
	if readErr == nil {
		if bf.TierEntries > len(d.Entries) {
			return nil, fmt.Errorf("core: tier boundary %d beyond %d dictionary entries", bf.TierEntries, len(d.Entries))
		}
		bf.Flat = NewFlatDict(d)
		bf.Flat.tierEntries = bf.TierEntries
	}

	// Lookup table.
	t := &LookupTable{}
	nSlots := int(rU32())
	t.seed1 = rU64()
	t.seed2 = rU64()
	t.compact = rBool()
	t.n = int(rU32())
	nResults := int(rU32())
	if readErr == nil {
		if nSlots <= 0 || nSlots > compiledMaxCount || nSlots&(nSlots-1) != 0 {
			return nil, fmt.Errorf("core: slot count %d not a positive power of two", nSlots)
		}
		if t.n < 0 || t.n > nSlots || nResults < 0 || nResults > t.n {
			return nil, fmt.Errorf("core: corrupt table header (n=%d results=%d slots=%d)", t.n, nResults, nSlots)
		}
	}
	t.mask = uint64(max0(nSlots)) - 1
	voteWidth := bf.NumClasses
	if bf.Kind == tree.Regression {
		voteWidth = 1
	}
	t.results = make([][]int64, 0, preallocFor(nResults))
	for i := 0; i < nResults && readErr == nil; i++ {
		votes := make([]int64, voteWidth)
		for c := range votes {
			votes[c] = int64(rU64())
		}
		t.results = append(t.results, votes)
	}
	// The slot array is allocated only once its presence bitmap has
	// been read in full, so its size is backed by input bytes.
	bitmapWords := (nSlots + 63) / 64
	bitmap := make([]uint64, 0, preallocFor(bitmapWords))
	for w := 0; w < bitmapWords && readErr == nil; w++ {
		bitmap = append(bitmap, rU64())
	}
	if readErr == nil {
		t.slots = make([]slot, nSlots)
	}
	used := 0
	for i := 0; i < nSlots && readErr == nil; i++ {
		if bitmap[i/64]&(1<<(i%64)) == 0 {
			continue
		}
		used++
		s := &t.slots[i]
		s.used = true
		s.entryID = rU32()
		s.addr = rU64()
		s.result = rU32()
		if readErr == nil && int(s.result) >= nResults {
			return nil, fmt.Errorf("core: slot %d references result %d of %d", i, s.result, nResults)
		}
	}
	if readErr == nil && used != t.n {
		return nil, fmt.Errorf("core: bitmap marks %d slots but header claims %d", used, t.n)
	}
	bf.Table = t

	// Bloom filter.
	if rBool() {
		blobLen := int(rU32())
		if readErr == nil && (blobLen <= 0 || blobLen > compiledMaxCount) {
			return nil, fmt.Errorf("core: implausible bloom blob size %d", blobLen)
		}
		var blob []byte
		if readErr == nil {
			blob, readErr = io.ReadAll(io.LimitReader(br, int64(blobLen)))
			if readErr == nil && len(blob) < blobLen {
				readErr = io.ErrUnexpectedEOF
			}
		}
		if readErr == nil {
			var f bloom.Filter
			if err := f.UnmarshalBinary(blob); err != nil {
				return nil, err
			}
			bf.Filter = &f
		}
	}
	if readErr != nil {
		if errors.Is(readErr, io.EOF) || errors.Is(readErr, io.ErrUnexpectedEOF) {
			return nil, errors.New("core: truncated compiled model")
		}
		return nil, fmt.Errorf("core: reading compiled model: %w", readErr)
	}
	// Strict-mode slot keys must verify against their own positions.
	if !t.compact {
		for i := range t.slots {
			s := &t.slots[i]
			if !s.used {
				continue
			}
			key := Key(s.entryID, s.addr)
			if t.h1(key) != uint64(i) && t.h2(key) != uint64(i) {
				return nil, fmt.Errorf("core: slot %d holds a key that does not hash there", i)
			}
		}
	}
	// Rebuild the derived §5 compact layout; construction is
	// deterministic, so this reproduces Compile's CompactDict exactly.
	// The encoder's feature index is derived the same way.
	bf.buildCompact()
	bf.features = paths.NewFeatureIndex(bf.Codebook)
	return bf, nil
}

func max0(n int) int {
	if n < 0 {
		return 0
	}
	return n
}
