package bitpack

// Transpose64 transposes a 64×64 bit matrix in place: afterwards bit i
// of word k equals bit k of word i before the call. This is the
// recursive block-swap algorithm (Hacker's Delight §7-3) — 6 rounds of
// masked exchanges instead of 4096 single-bit moves. It is its own
// inverse. The tiered batch kernel uses it to move 64 samples'
// predicate bits between sample-major rows and predicate-major
// columns.
//
//bolt:hotpath
func Transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j, m = j>>1, m^(m<<uint(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := ((a[k] >> uint(j)) ^ a[k+j]) & m
			a[k] ^= t << uint(j)
			a[k+j] ^= t
		}
	}
}

// TransposeBlock transposes a block of 64 row bitsets into column
// words. rows holds 64 rows of `words` words each, row-major (row i
// word w at rows[i*words+w]); cols receives words*64 column words where
// bit i of cols[p] is bit p of row i (p < words*64). Rows and cols must
// not alias.
//
//bolt:hotpath
func TransposeBlock(rows, cols []uint64, words int) {
	if len(rows) < 64*words || len(cols) < 64*words {
		panic("bitpack: TransposeBlock buffers too short")
	}
	var tmp [64]uint64
	for w := 0; w < words; w++ {
		for i := 0; i < 64; i++ {
			tmp[i] = rows[i*words+w]
		}
		Transpose64(&tmp)
		copy(cols[w*64:(w+1)*64], tmp[:])
	}
}

// UntransposeBlock is TransposeBlock's inverse: it rebuilds 64 row
// bitsets of `words` words each in rows from the words*64 column words
// in cols. Rows and cols must not alias.
//
//bolt:hotpath
func UntransposeBlock(cols, rows []uint64, words int) {
	if len(rows) < 64*words || len(cols) < 64*words {
		panic("bitpack: UntransposeBlock buffers too short")
	}
	var tmp [64]uint64
	for w := 0; w < words; w++ {
		copy(tmp[:], cols[w*64:(w+1)*64])
		Transpose64(&tmp)
		for i := 0; i < 64; i++ {
			rows[i*words+w] = tmp[i]
		}
	}
}
