package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"bolt"
)

// The traced host does what cmd/bolt-serve does with its default flags
// (decode, compile with threshold 8, bloom 8 and seed 2022, a parallel
// engine factory, a default-coalescing ServePool), except that every
// engine is wrapped in tracedEngine, which records a span around each
// call into the core kernels. Spans stay in memory and are written to
// the -spans file when the host is interrupted.

// Span kinds: the row kernel, the serial batch kernel and the parallel
// batch kernel.
const (
	spanRow = int8(iota)
	spanBatch
	spanParallel
)

// maxSpans bounds the recorder's memory; later spans are counted as
// dropped.
const maxSpans = 1 << 21

// spanFile is the host's span log: set-up times plus one column per
// span field (Unix ns for start and end).
type spanFile struct {
	DecodeNs  int64   `json:"decode_ns"`
	CompileNs int64   `json:"compile_ns"`
	Dropped   int     `json:"dropped"`
	Kind      []int8  `json:"kind"`
	Rows      []int32 `json:"rows"`
	Start     []int64 `json:"start"`
	End       []int64 `json:"end"`
}

type recorder struct {
	mu sync.Mutex
	f  spanFile
}

func (r *recorder) add(kind int8, rows int, start time.Time) {
	end := time.Now().UnixNano()
	r.mu.Lock()
	if len(r.f.Kind) < maxSpans {
		r.f.Kind = append(r.f.Kind, kind)
		r.f.Rows = append(r.f.Rows, int32(rows))
		r.f.Start = append(r.f.Start, start.UnixNano())
		r.f.End = append(r.f.End, end)
	} else {
		r.f.Dropped++
	}
	r.mu.Unlock()
}

// servedEngine is every method bolt-serve's engines offer the server:
// the row path plus each optional serve interface (batch, parallel
// batch, tiered batch, footprint, salience, regression).
type servedEngine interface {
	Predict(x []float32) int
	PredictBatchInto(X [][]float32, out []int)
	PredictBatchParallelInto(X [][]float32, out []int)
	ParallelKernelWorkers() int
	TierEnabled() bool
	PredictBatchTieredInto(X [][]float32, out []int) uint64
	PredictBatchTieredParallelInto(X [][]float32, out []int) uint64
	ModelFootprint() (dictBytes, tableBytes uint64, layout byte)
	Salience(x []float32) []int
	PredictValue(x []float32) float32
}

// tracedEngine forwards every servedEngine method and records a span
// around each kernel call.
type tracedEngine struct {
	e   servedEngine
	rec *recorder
}

func (t *tracedEngine) Predict(x []float32) int {
	start := time.Now()
	l := t.e.Predict(x)
	t.rec.add(spanRow, 1, start)
	return l
}

func (t *tracedEngine) PredictBatchInto(X [][]float32, out []int) {
	start := time.Now()
	t.e.PredictBatchInto(X, out)
	t.rec.add(spanBatch, len(X), start)
}

func (t *tracedEngine) PredictBatchParallelInto(X [][]float32, out []int) {
	start := time.Now()
	t.e.PredictBatchParallelInto(X, out)
	t.rec.add(spanParallel, len(X), start)
}

func (t *tracedEngine) PredictBatchTieredInto(X [][]float32, out []int) uint64 {
	start := time.Now()
	n := t.e.PredictBatchTieredInto(X, out)
	t.rec.add(spanBatch, len(X), start)
	return n
}

func (t *tracedEngine) PredictBatchTieredParallelInto(X [][]float32, out []int) uint64 {
	start := time.Now()
	n := t.e.PredictBatchTieredParallelInto(X, out)
	t.rec.add(spanParallel, len(X), start)
	return n
}

func (t *tracedEngine) ParallelKernelWorkers() int { return t.e.ParallelKernelWorkers() }
func (t *tracedEngine) TierEnabled() bool          { return t.e.TierEnabled() }
func (t *tracedEngine) Salience(x []float32) []int { return t.e.Salience(x) }
func (t *tracedEngine) PredictValue(x []float32) float32 {
	return t.e.PredictValue(x)
}
func (t *tracedEngine) ModelFootprint() (uint64, uint64, byte) { return t.e.ModelFootprint() }

func hostMain(args []string) int {
	if err := host(args); err != nil {
		fmt.Fprintln(os.Stderr, "boltbench host:", err)
		return 1
	}
	return 0
}

func host(args []string) error {
	fset := flag.NewFlagSet("boltbench host", flag.ContinueOnError)
	model := fset.String("model", "", "trained forest model path")
	socket := fset.String("socket", "", "UNIX socket path")
	workers := fset.Int("workers", 0, "engine-pool size (0 = GOMAXPROCS)")
	spans := fset.String("spans", "", "file the spans are written to on exit")
	if err := fset.Parse(args); err != nil {
		return err
	}
	// Room for every row span of a busy run up front, so the recorder
	// does not copy its columns while requests wait on its lock.
	const prealloc = 1 << 18
	rec := &recorder{f: spanFile{
		Kind:  make([]int8, 0, prealloc),
		Rows:  make([]int32, 0, prealloc),
		Start: make([]int64, 0, prealloc),
		End:   make([]int64, 0, prealloc),
	}}
	raw, err := os.ReadFile(*model)
	if err != nil {
		return err
	}
	t0 := time.Now()
	f, err := bolt.DecodeForest(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	t1 := time.Now()
	bf, err := bolt.Compile(f, serveOptions)
	if err != nil {
		return err
	}
	rec.f.DecodeNs, rec.f.CompileNs = int64(t1.Sub(t0)), int64(time.Since(t1))

	inner := bolt.ParallelForestEngineFactory(bf, 0)
	if _, ok := inner().(servedEngine); !ok {
		return errors.New("bolt's forest engine no longer offers every serve interface the traced host forwards")
	}
	factory := func() bolt.Engine { return &tracedEngine{e: inner().(servedEngine), rec: rec} }
	if err := os.Remove(*socket); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	srv, err := bolt.ServePool(*socket, factory, bf.NumFeatures, *workers)
	if err != nil {
		return err
	}
	srv.SetModelChecksum(fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(raw)))
	srv.SetCoalescing(bolt.CoalesceConfig{Hold: bolt.DefaultCoalesceHold, MaxRows: bolt.DefaultCoalesceMaxRows})

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	<-sigs
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return writeJSON(*spans, &rec.f)
}

// writeJSON writes v to path through a temporary file, so readers never
// see a partial file.
func writeJSON(path string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func readSpans(path string) (*spanFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f spanFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
