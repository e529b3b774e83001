package bitpack

import (
	"testing"

	"bolt/internal/rng"
)

func TestTranspose64(t *testing.T) {
	var a, orig [64]uint64
	sm := uint64(99)
	for i := range a {
		a[i] = rng.SplitMix64(&sm)
		orig[i] = a[i]
	}
	Transpose64(&a)
	for i := 0; i < 64; i++ {
		for k := 0; k < 64; k++ {
			got := (a[k] >> uint(i)) & 1
			want := (orig[i] >> uint(k)) & 1
			if got != want {
				t.Fatalf("transpose wrong at row %d bit %d: got %d want %d", k, i, got, want)
			}
		}
	}
	// Transposing twice restores the original.
	Transpose64(&a)
	if a != orig {
		t.Fatal("double transpose is not the identity")
	}
}

func TestTransposeBlock(t *testing.T) {
	const words = 3
	rows := make([]uint64, 64*words)
	cols := make([]uint64, 64*words)
	sm := uint64(7)
	for i := range rows {
		rows[i] = rng.SplitMix64(&sm)
	}
	TransposeBlock(rows, cols, words)
	for i := 0; i < 64; i++ { // sample
		for p := 0; p < 64*words; p++ { // predicate
			got := (cols[p] >> uint(i)) & 1
			want := (rows[i*words+p/64] >> uint(p%64)) & 1
			if got != want {
				t.Fatalf("block transpose wrong at sample %d predicate %d: got %d want %d", i, p, got, want)
			}
		}
	}
}

func TestUntransposeBlockInvertsTransposeBlock(t *testing.T) {
	const words = 3
	rows := make([]uint64, 64*words)
	cols := make([]uint64, 64*words)
	back := make([]uint64, 64*words)
	sm := uint64(11)
	for i := range rows {
		rows[i] = rng.SplitMix64(&sm)
	}
	TransposeBlock(rows, cols, words)
	UntransposeBlock(cols, back, words)
	for i := range rows {
		if back[i] != rows[i] {
			t.Fatalf("word %d: round trip gave %#x, want %#x", i, back[i], rows[i])
		}
	}
}

func TestTransposeBlockPanicsOnShortBuffers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TransposeBlock(make([]uint64, 63), make([]uint64, 64), 1)
}
