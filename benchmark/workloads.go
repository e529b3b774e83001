package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bolt"
)

// forestSpec is the shape of one trained mnist forest.
type forestSpec struct{ trees, depth int }

// workload is one traffic mix against one serving topology. The reasons
// for each choice are recorded in BENCHMARK.json and README.md.
type workload struct {
	name   string
	forest forestSpec
	// routed puts bolt-router in front of two single-worker backends.
	routed bool
	// Single-row OpClassify requests on rowConns connections: Poisson
	// arrivals at rate per second spread round-robin (open loop), or, with
	// rowDepth > 0, a closed loop keeping rowDepth requests in flight on
	// each connection.
	rate     float64
	rowConns int
	rowDepth int
	// batchRows > 0 adds OpBatch requests of that many rows on one more
	// connection: one every batchEvery (open loop), or, with batchEvery
	// zero, a closed loop keeping batchDepth batches in flight.
	batchRows  int
	batchEvery time.Duration
	batchDepth int
}

var workloads = []workload{
	{name: "classify-light", forest: forestSpec{20, 8}, rate: 2000, rowConns: 2},
	{name: "classify-busy", forest: forestSpec{20, 8}, rowConns: 2, rowDepth: 2},
	{name: "batch-offline", forest: forestSpec{30, 10}, batchRows: 1024, batchDepth: 2},
	{name: "mixed", forest: forestSpec{20, 8}, rate: 2000, rowConns: 1, batchRows: 256, batchEvery: 50 * time.Millisecond},
	{name: "routed", forest: forestSpec{10, 4}, routed: true, rate: 4000, rowConns: 2},
}

// Compile options bolt-serve uses with its default flags; the traced
// host and the isolated kernel timings compile the same way.
var serveOptions = bolt.Options{ClusterThreshold: 8, BloomBitsPerKey: 8, Seed: 2022}

const (
	poolRows    = 2048 // distinct request rows per seed
	batchFrames = 4    // distinct batch payloads per workload
)

// Request classes: single-row OpClassify or multi-row OpBatch.
const (
	classRow = uint8(iota)
	classBatch
)

// Wire bytes of the two request ops and the OK status (internal/serve
// protocol.go); the generator frames requests itself so it can pipeline.
const (
	reqClassify = byte('C')
	reqBatch    = byte('B')
	statusOK    = byte(0)
)

// frame is one pre-encoded request and the labels the source forest
// gives its rows.
type frame struct {
	wire []byte
	want []int
}

// inputs is everything a workload needs before traffic starts: the model
// file the servers load, the decoded source forest, and the request
// frames with their oracle labels.
type inputs struct {
	modelPath string
	forest    *bolt.Forest
	rows      [][]float32
	rowFrames []frame
	batches   []frame
}

// prepare trains (or reuses) the workload's forest for seed, writes the
// model file, and encodes the request frames. The oracle labels come
// from Forest.Predict on the forest decoded back from the model file, so
// they describe exactly what the servers load.
func (b *bench) prepare(w workload, seed uint64) (*inputs, error) {
	path := filepath.Join(b.dir, "models", fmt.Sprintf("mnist-%dx%d-n%d-s%d.bin", w.forest.trees, w.forest.depth, b.trainRows, seed))
	if _, err := os.Stat(path); err != nil {
		if err := trainModel(path, w.forest, b.trainRows, seed); err != nil {
			return nil, err
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := bolt.DecodeForest(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	in := &inputs{modelPath: path, forest: f, rows: bolt.SyntheticMNIST(poolRows, seed^0x7e57).X}
	in.rowFrames = make([]frame, len(in.rows))
	for i, x := range in.rows {
		in.rowFrames[i] = frame{wire: encodeRequest(reqClassify, [][]float32{x}), want: []int{f.Predict(x)}}
	}
	if w.batchRows > 0 {
		rng := rand.New(rand.NewPCG(seed, 0xba7c4))
		for k := 0; k < batchFrames; k++ {
			X := make([][]float32, w.batchRows)
			want := make([]int, w.batchRows)
			for i := range X {
				j := rng.IntN(len(in.rows))
				X[i], want[i] = in.rows[j], in.rowFrames[j].want[0]
			}
			in.batches = append(in.batches, frame{wire: encodeRequest(reqBatch, X), want: want})
		}
	}
	return in, nil
}

// trainModel fits the forest on a seeded synthetic mnist training set
// and writes it atomically, so an interrupted run never leaves a
// truncated model behind for the next one to reuse.
func trainModel(path string, spec forestSpec, n int, seed uint64) error {
	d := bolt.SyntheticMNIST(n, seed^0x11)
	f := bolt.Train(d, bolt.ForestConfig{NumTrees: spec.trees, Tree: bolt.TreeConfig{MaxDepth: spec.depth}, Seed: seed})
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := bolt.EncodeForest(&buf, f); err != nil {
		return fmt.Errorf("encoding model: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// encodeRequest frames op | len | payload: one row's float32 features
// for OpClassify, count | rows for OpBatch.
func encodeRequest(op byte, X [][]float32) []byte {
	n := 0
	if op == reqBatch {
		n = 4
	}
	for _, x := range X {
		n += 4 * len(x)
	}
	buf := make([]byte, 5+n)
	buf[0] = op
	binary.LittleEndian.PutUint32(buf[1:], uint32(n))
	off := 5
	if op == reqBatch {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(X)))
		off += 4
	}
	for _, x := range X {
		for _, v := range x {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
			off += 4
		}
	}
	return buf
}

// request is one request of a plan. Open-loop requests are due at a
// fixed offset from the traffic base; closed-loop ones when sent.
type request struct {
	due   int64 // ns after the traffic base
	frame int32
	conn  int8
	class uint8
}

// plan is the whole traffic of one measured run. The open-loop requests
// come first, in due order; each closed-loop connection's requests
// follow, in send order. The measured window is [warm, end) in ns after
// the base, and everything before warm is a discarded warm-up.
type plan struct {
	frames    []frame
	reqs      []request
	open      int   // open-loop requests at the front of reqs
	depth     []int // per connection: requests kept in flight, 0 = open loop
	warm, end int64
}

// newPlan draws the workload's traffic from seed: exponential gaps for
// Poisson single rows, a fixed period for open-loop batches, and for a
// closed loop a seeded frame order with room for more requests than the
// connection can complete.
func newPlan(w workload, in *inputs, seed uint64, warm, measure time.Duration) *plan {
	p := &plan{warm: int64(warm), end: int64(warm + measure)}
	rng := rand.New(rand.NewPCG(seed, 0xa771))
	p.frames = append(append(p.frames, in.rowFrames...), in.batches...)
	batch0 := len(in.rowFrames)
	var closed [][]request
	for c := 0; c < w.rowConns; c++ {
		p.depth = append(p.depth, w.rowDepth)
	}
	if w.rowDepth > 0 {
		for c := 0; c < w.rowConns; c++ {
			reqs := make([]request, int(float64(p.end)/1e9*maxClosedRowsPerSec))
			for i := range reqs {
				reqs[i] = request{frame: int32(rng.IntN(len(in.rowFrames))), conn: int8(c), class: classRow}
			}
			closed = append(closed, reqs)
		}
	} else if w.rate > 0 {
		t := 0.0
		for i := 0; ; i++ {
			t += rng.ExpFloat64() / w.rate * 1e9
			if int64(t) >= p.end {
				break
			}
			p.reqs = append(p.reqs, request{due: int64(t), frame: int32(rng.IntN(len(in.rowFrames))), conn: int8(i % w.rowConns), class: classRow})
		}
	}
	if w.batchRows > 0 {
		c := int8(len(p.depth))
		p.depth = append(p.depth, w.batchDepth)
		if w.batchDepth > 0 {
			reqs := make([]request, int(float64(p.end)/1e9*maxClosedBatchesPerSec))
			for i := range reqs {
				reqs[i] = request{frame: int32(batch0 + i%len(in.batches)), conn: c, class: classBatch}
			}
			closed = append(closed, reqs)
		} else {
			for k := 1; int64(k)*int64(w.batchEvery) < p.end; k++ {
				p.reqs = append(p.reqs, request{due: int64(k) * int64(w.batchEvery), frame: int32(batch0 + k%len(in.batches)), conn: c, class: classBatch})
			}
		}
	}
	sort.SliceStable(p.reqs, func(i, j int) bool { return p.reqs[i].due < p.reqs[j].due })
	p.open = len(p.reqs)
	for _, reqs := range closed {
		p.reqs = append(p.reqs, reqs...)
	}
	return p
}

// Closed-loop request slots per connection and second: well above what
// the reference host completes (about 5,000 rows or 60 batches of 1,024
// rows per second on one connection). A connection that runs out stops
// sending, and its window fails the completeness check.
const (
	maxClosedRowsPerSec    = 15000
	maxClosedBatchesPerSec = 500
)
