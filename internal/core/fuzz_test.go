package core

import (
	"bytes"
	"math"
	"testing"
)

// FuzzDecodeCompiled throws arbitrary bytes at the compiled-model
// decoder: it must never panic, and any artifact it accepts must be
// usable for inference without out-of-range accesses. Decoded
// predicates can come in any feature order and can repeat NaN
// thresholds (the dedupe map never matches a NaN key), so accepted
// artifacts also run the batch kernel, whose feature index is built at
// decode time, on a few rows — one of them all NaN — and must agree
// with the row path.
func FuzzDecodeCompiled(f *testing.F) {
	fr, d := trainForest(f, 141, 6, 3)
	bf, err := Compile(fr, Options{ClusterThreshold: 4})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeCompiled(&buf, bf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(buf.Bytes()[:20])
	sample := d.X[0]

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeCompiled(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted artifacts must survive a prediction when the input
		// width matches; a panic here means the decoder admitted
		// structurally unsound tables.
		if got.NumFeatures != len(sample) {
			return
		}
		X := append([][]float32{sample}, boundaryInputs(got.Codebook, 3, len(sample), 1)...)
		nan := make([]float32, len(sample))
		for j := range nan {
			nan[j] = float32(math.NaN())
		}
		X = append(X, nan)
		s := got.NewScratch()
		vw := got.VoteWidth()
		batch := make([]int64, len(X)*vw)
		got.VotesBatch(X, s, batch)
		row := make([]int64, vw)
		for i, x := range X {
			got.Votes(x, s, row)
			for c := range row {
				if batch[i*vw+c] != row[c] {
					t.Fatalf("row %d class %d: batch=%d row=%d", i, c, batch[i*vw+c], row[c])
				}
			}
		}
	})
}

// FuzzVotesBatch is the differential fuzz target for the batch kernel:
// random forest shapes, compile options, batch geometries and input
// perturbations, asserting VotesBatch is bit-exact against per-sample
// Votes — the CheckSafety discipline extended to the batch path.
func FuzzVotesBatch(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(6), uint8(3), uint16(70), uint16(0))
	f.Add(uint64(2), uint8(1), uint8(2), uint8(1), uint16(1), uint16(64))
	f.Add(uint64(3), uint8(16), uint8(12), uint8(5), uint16(129), uint16(100))
	f.Add(uint64(4), uint8(8), uint8(3), uint8(2), uint16(64), uint16(1))

	f.Fuzz(func(t *testing.T, seed uint64, thresholdRaw, treesRaw, depthRaw uint8, nRaw, blockRaw uint16) {
		trees := int(treesRaw%12) + 2
		depth := int(depthRaw%5) + 1
		fr, d := trainForest(t, seed, trees, depth)
		opts := Options{ClusterThreshold: int(thresholdRaw%16) + 1, Seed: seed}
		if thresholdRaw%3 == 0 {
			opts.BloomBitsPerKey = -1
		}
		bf, err := Compile(fr, opts)
		if err != nil {
			t.Fatalf("compile failed: %v", err)
		}
		n := int(nRaw % 300)
		X := boundaryInputs(bf.Codebook, n, d.NumFeatures, seed^0xbeef)
		s := bf.NewScratch()
		s.SetBatchBlock(int(blockRaw % 512)) // 0 keeps the default
		vw := bf.VoteWidth()
		batch := make([]int64, n*vw)
		bf.VotesBatch(X, s, batch)
		row := make([]int64, vw)
		for i, x := range X {
			bf.Votes(x, s, row)
			for c := range row {
				if batch[i*vw+c] != row[c] {
					t.Fatalf("seed=%d n=%d sample %d class %d: batch=%d row=%d",
						seed, n, i, c, batch[i*vw+c], row[c])
				}
			}
		}
	})
}

// FuzzCompactDict is the differential fuzz target for the §5 compact
// layout: for random forest shapes, compile options (including
// CompactIDs mode and disabled bloom filters) and batch geometries, the
// compact batch kernel and compact row path must be bit-exact with
// their flat counterparts.
func FuzzCompactDict(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(6), uint8(3), uint16(70), uint16(0))
	f.Add(uint64(2), uint8(1), uint8(2), uint8(1), uint16(1), uint16(64))
	f.Add(uint64(3), uint8(16), uint8(12), uint8(5), uint16(129), uint16(100))
	f.Add(uint64(5), uint8(9), uint8(7), uint8(4), uint16(200), uint16(2))

	f.Fuzz(func(t *testing.T, seed uint64, thresholdRaw, treesRaw, depthRaw uint8, nRaw, blockRaw uint16) {
		trees := int(treesRaw%12) + 2
		depth := int(depthRaw%5) + 1
		fr, d := trainForest(t, seed, trees, depth)
		opts := Options{ClusterThreshold: int(thresholdRaw%16) + 1, Seed: seed}
		if thresholdRaw%3 == 0 {
			opts.BloomBitsPerKey = -1
		}
		opts.CompactIDs = seed%2 == 0
		bf, err := Compile(fr, opts)
		if err != nil {
			t.Fatalf("compile failed: %v", err)
		}
		n := int(nRaw % 300)
		X := boundaryInputs(bf.Codebook, n, d.NumFeatures, seed^0xc0de)
		vw := bf.VoteWidth()
		batches := make(map[bool][]int64, 2)
		rows := make(map[bool][]int64, 2)
		for _, compact := range []bool{false, true} {
			bf.SetCompactScan(compact)
			s := bf.NewScratch()
			s.SetBatchBlock(int(blockRaw % 512)) // 0 keeps the default
			batch := make([]int64, n*vw)
			bf.VotesBatch(X, s, batch)
			batches[compact] = batch
			row := make([]int64, n*vw)
			for i, x := range X {
				bf.Votes(x, s, row[i*vw:(i+1)*vw])
			}
			rows[compact] = row
		}
		for i := 0; i < n*vw; i++ {
			want := batches[false][i]
			if rows[false][i] != want || batches[true][i] != want || rows[true][i] != want {
				t.Fatalf("seed=%d n=%d index %d: flat batch=%d flat row=%d compact batch=%d compact row=%d",
					seed, n, i, want, rows[false][i], batches[true][i], rows[true][i])
			}
		}
	})
}

// FuzzVotesBatchParallel extends the differential discipline to the
// persistent runtime: for random forest shapes, batch geometries and
// every worker count 1..8, the parallel batch kernel must be bit-exact
// against both the serial batch kernel and the per-sample row path.
func FuzzVotesBatchParallel(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(6), uint8(3), uint16(70), uint8(2))
	f.Add(uint64(2), uint8(1), uint8(2), uint8(1), uint16(1), uint8(8))
	f.Add(uint64(3), uint8(16), uint8(12), uint8(5), uint16(129), uint8(3))
	f.Add(uint64(4), uint8(8), uint8(3), uint8(2), uint16(64), uint8(5))

	f.Fuzz(func(t *testing.T, seed uint64, thresholdRaw, treesRaw, depthRaw uint8, nRaw uint16, workersRaw uint8) {
		trees := int(treesRaw%12) + 2
		depth := int(depthRaw%5) + 1
		fr, d := trainForest(t, seed, trees, depth)
		opts := Options{ClusterThreshold: int(thresholdRaw%16) + 1, Seed: seed}
		if thresholdRaw%3 == 0 {
			opts.BloomBitsPerKey = -1
		}
		bf, err := Compile(fr, opts)
		if err != nil {
			t.Fatalf("compile failed: %v", err)
		}
		n := int(nRaw % 300)
		workers := int(workersRaw%8) + 1
		X := boundaryInputs(bf.Codebook, n, d.NumFeatures, seed^0xfeed)
		s := bf.NewScratch()
		vw := bf.VoteWidth()
		batch := make([]int64, n*vw)
		bf.VotesBatch(X, s, batch)
		rt := NewRuntime(bf, workers)
		defer rt.Close()
		par := make([]int64, n*vw)
		bf.VotesBatchParallel(X, rt, par)
		row := make([]int64, vw)
		for i, x := range X {
			bf.Votes(x, s, row)
			for c := range row {
				if par[i*vw+c] != batch[i*vw+c] {
					t.Fatalf("seed=%d n=%d workers=%d sample %d class %d: parallel=%d batch=%d",
						seed, n, workers, i, c, par[i*vw+c], batch[i*vw+c])
				}
				if par[i*vw+c] != row[c] {
					t.Fatalf("seed=%d n=%d workers=%d sample %d class %d: parallel=%d row=%d",
						seed, n, workers, i, c, par[i*vw+c], row[c])
				}
			}
		}
	})
}
