package core

import "math/bits"

// FlatDict is the dictionary flattened into structure-of-arrays form for
// the inference hot loops. The pointer-rich *Dictionary (one CommonMask,
// CommonVals and Uncommon allocation per entry) is what the compiler and
// the serialization code build and validate; FlatDict re-packs the same
// data into four contiguous backing arrays so a scan touches a single
// stream of cache lines with no per-entry slice headers:
//
//   - maskvals: for entry i, words mask words followed by words value
//     words at maskvals[i*2*words:]; the interleaving keeps the
//     word-wide membership test (input&mask == vals) on one cache line
//     run per entry.
//   - common: the common (predicate, value) pairs of every entry packed
//     as (pred<<1)|valBit int32s, delimited by commonOff — the form the
//     column batch kernel consumes, one column op per pair.
//   - uncommon: every entry's address predicates, delimited by uncOff.
//
// A FlatDict is immutable after construction and safe for concurrent
// readers. It is derived state: Compile and DecodeCompiled build it from
// the authoritative *Dictionary, and the encoding format is unchanged.
type FlatDict struct {
	words     int
	ids       []uint32
	maskvals  []uint64
	common    []int32
	commonOff []int32
	uncommon  []int32
	uncOff    []int32

	// tierEntries is the tier-0 boundary for staged inference: entries
	// [0, tierEntries) hold every path of the forest's first TierTrees
	// trees (see tiered.go). 0 means untier'd. Set by Compile and
	// DecodeCompiled after construction.
	tierEntries int
}

// NewFlatDict flattens d. The per-entry invariants (vals ⊆ mask,
// len(Uncommon) ≤ 63) are the dictionary's; flattening preserves entry
// order and content exactly.
func NewFlatDict(d *Dictionary) *FlatDict {
	n := len(d.Entries)
	w := d.Words()
	fd := &FlatDict{
		words:     w,
		ids:       make([]uint32, n),
		maskvals:  make([]uint64, n*2*w),
		commonOff: make([]int32, n+1),
		uncOff:    make([]int32, n+1),
	}
	totalCommon, totalUnc := 0, 0
	for i := range d.Entries {
		totalCommon += d.Entries[i].NumCommon
		totalUnc += len(d.Entries[i].Uncommon)
	}
	fd.common = make([]int32, 0, totalCommon)
	fd.uncommon = make([]int32, 0, totalUnc)
	for i := range d.Entries {
		e := &d.Entries[i]
		fd.ids[i] = e.ID
		base := i * 2 * w
		copy(fd.maskvals[base:base+w], e.CommonMask)
		copy(fd.maskvals[base+w:base+2*w], e.CommonVals)
		for wi, mask := range e.CommonMask {
			for mask != 0 {
				b := mask & (-mask)
				pred := int32(wi*64 + bits.TrailingZeros64(b))
				packed := pred << 1
				if e.CommonVals[wi]&b != 0 {
					packed |= 1
				}
				fd.common = append(fd.common, packed)
				mask ^= b
			}
		}
		fd.commonOff[i+1] = int32(len(fd.common))
		fd.uncommon = append(fd.uncommon, e.Uncommon...)
		fd.uncOff[i+1] = int32(len(fd.uncommon))
	}
	return fd
}

// Len returns the number of entries.
func (fd *FlatDict) Len() int { return len(fd.ids) }

// TierEntries returns the tier-0 entry boundary (0 when untier'd).
func (fd *FlatDict) TierEntries() int { return fd.tierEntries }

// Words returns the number of 64-bit words per mask.
func (fd *FlatDict) Words() int { return fd.words }

// ID returns entry i's dictionary ID.
func (fd *FlatDict) ID(i int) uint32 { return fd.ids[i] }

// MaskVals returns entry i's mask and value words as views into the
// shared backing array. Callers must not modify them.
func (fd *FlatDict) MaskVals(i int) (mask, vals []uint64) {
	base := i * 2 * fd.words
	return fd.maskvals[base : base+fd.words : base+fd.words],
		fd.maskvals[base+fd.words : base+2*fd.words : base+2*fd.words]
}

// Common returns entry i's common pairs packed as (pred<<1)|valBit.
func (fd *FlatDict) Common(i int) []int32 {
	return fd.common[fd.commonOff[i]:fd.commonOff[i+1]]
}

// Uncommon returns entry i's address predicates (ascending).
func (fd *FlatDict) Uncommon(i int) []int32 {
	return fd.uncommon[fd.uncOff[i]:fd.uncOff[i+1]]
}
