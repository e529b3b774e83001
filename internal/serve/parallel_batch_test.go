package serve

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"bolt/internal/core"
)

// parallelBatchEngine is a Bolt engine exposing the multi-core batch
// kernel over a shared persistent runtime, counting takeovers so tests
// can prove large idle-pool batches run the parallel kernel.
type parallelBatchEngine struct {
	bf            *core.Forest
	s             *core.Scratch
	rt            *core.Runtime
	parallelCalls atomic.Int64
}

func (e *parallelBatchEngine) Predict(x []float32) int { return e.bf.Predict(x, e.s) }

func (e *parallelBatchEngine) PredictBatchInto(X [][]float32, out []int) {
	e.bf.PredictBatchInto(X, e.s, out)
}

func (e *parallelBatchEngine) PredictBatchParallelInto(X [][]float32, out []int) {
	e.parallelCalls.Add(1)
	e.bf.PredictBatchParallelInto(X, e.rt, out)
}

func (e *parallelBatchEngine) ParallelKernelWorkers() int { return e.rt.Workers() }

// newParallelPool builds a 4-engine pool whose engines share one
// 4-worker runtime — the production shape of ParallelForestEngineFactory.
func newParallelPool(t *testing.T, bf *core.Forest, numFeatures int) (*Server, string, []*parallelBatchEngine) {
	t.Helper()
	rt := core.NewRuntime(bf, 4)
	engines := make([]*parallelBatchEngine, 0, 4)
	sock := filepath.Join(t.TempDir(), "pbatch.sock")
	srv, err := NewPool(sock, func() Engine {
		e := &parallelBatchEngine{bf: bf, s: bf.NewScratch(), rt: rt}
		engines = append(engines, e)
		return e
	}, numFeatures, 4)
	if err != nil {
		t.Fatal(err)
	}
	return srv, sock, engines
}

// TestParallelBatchPreferred proves the takeover: a batch of at least
// parallelBatchMinRows rows hitting a fully idle pool is classified by
// the multi-core kernel — exactly one takeover, no row-sharding — and
// the labels match the reference row path.
func TestParallelBatchPreferred(t *testing.T) {
	bf, d := batchTestForest(t)
	if len(d.X) < parallelBatchMinRows {
		t.Fatalf("test forest has %d samples, need >= %d", len(d.X), parallelBatchMinRows)
	}
	srv, sock, engines := newParallelPool(t, bf, d.NumFeatures)
	defer srv.Close()
	cl, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	labels, _, err := cl.ClassifyBatch(d.X)
	if err != nil {
		t.Fatal(err)
	}
	s := bf.NewScratch()
	for i, x := range d.X {
		if want := bf.Predict(x, s); labels[i] != want {
			t.Fatalf("sample %d: parallel batch served %d, reference %d", i, labels[i], want)
		}
	}
	if got := srv.Stats().ParallelBatches; got != 1 {
		t.Errorf("ParallelBatches = %d, want 1", got)
	}
	var calls int64
	for _, e := range engines {
		calls += e.parallelCalls.Load()
	}
	if calls != 1 {
		t.Errorf("parallel kernel invoked %d times, want 1", calls)
	}
}

// TestParallelBatchSmallFallsBack: below the row threshold the batch
// row-shards as before and the takeover counter stays at zero.
func TestParallelBatchSmallFallsBack(t *testing.T) {
	bf, d := batchTestForest(t)
	srv, sock, _ := newParallelPool(t, bf, d.NumFeatures)
	defer srv.Close()
	cl, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	X := d.X[:parallelBatchMinRows-1]
	labels, _, err := cl.ClassifyBatch(X)
	if err != nil {
		t.Fatal(err)
	}
	s := bf.NewScratch()
	for i, x := range X {
		if want := bf.Predict(x, s); labels[i] != want {
			t.Fatalf("sample %d: served %d, reference %d", i, labels[i], want)
		}
	}
	if got := srv.Stats().ParallelBatches; got != 0 {
		t.Errorf("ParallelBatches = %d, want 0 for a small batch", got)
	}
}

// TestParallelBatchBusyPoolFallsBack: if any engine is checked out when
// the batch arrives, the non-blocking whole-pool claim backs off and
// the batch row-shards across whatever becomes idle — no deadlock, no
// takeover.
func TestParallelBatchBusyPoolFallsBack(t *testing.T) {
	bf, d := batchTestForest(t)
	srv, _, _ := newParallelPool(t, bf, d.NumFeatures)
	defer srv.Close()

	p := srv.pool.Load()
	stolen := <-p.engines // one engine busy elsewhere
	labels, err := srv.predictBatch(p, d.X)
	p.engines <- stolen
	if err != nil {
		t.Fatal(err)
	}
	s := bf.NewScratch()
	for i, x := range d.X {
		if want := bf.Predict(x, s); labels[i] != want {
			t.Fatalf("sample %d: served %d, reference %d", i, labels[i], want)
		}
	}
	if got := srv.Stats().ParallelBatches; got != 0 {
		t.Errorf("ParallelBatches = %d, want 0 with a busy pool", got)
	}
}

// TestParallelBatchSingleWorkerSkipped: a runtime that cannot fan out
// (one worker) must not take over the pool — the serial sharded path
// already does the right thing.
func TestParallelBatchSingleWorkerSkipped(t *testing.T) {
	bf, d := batchTestForest(t)
	rt := core.NewRuntime(bf, 1)
	sock := filepath.Join(t.TempDir(), "pbatch1.sock")
	srv, err := NewPool(sock, func() Engine {
		return &parallelBatchEngine{bf: bf, s: bf.NewScratch(), rt: rt}
	}, d.NumFeatures, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.ClassifyBatch(d.X); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().ParallelBatches; got != 0 {
		t.Errorf("ParallelBatches = %d, want 0 for a 1-worker kernel", got)
	}
}

// TestReloadUnderParallelBatch races hot pool swaps against concurrent
// large batches on the parallel kernel: every batch must come back
// correct from whichever generation served it, and the old generations'
// runtimes must drain without tripping the race detector (the -race CI
// job runs this test).
func TestReloadUnderParallelBatch(t *testing.T) {
	bf, d := batchTestForest(t)
	srv, sock, _ := newParallelPool(t, bf, d.NumFeatures)
	defer srv.Close()
	srv.SetReloader(func(path string) (EngineFactory, int, string, error) {
		rt := core.NewRuntime(bf, 4)
		return func() Engine {
			return &parallelBatchEngine{bf: bf, s: bf.NewScratch(), rt: rt}
		}, d.NumFeatures, fmt.Sprintf("gen-%s", path), nil
	})

	s := bf.NewScratch()
	want := make([]int, len(d.X))
	bf.PredictBatchInto(d.X, s, want)

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(sock)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for iter := 0; iter < 8; iter++ {
				labels, _, err := cl.ClassifyBatch(d.X)
				if err != nil {
					errs <- err
					return
				}
				for i := range labels {
					if labels[i] != want[i] {
						errs <- fmt.Errorf("iter %d sample %d: got %d, want %d", iter, i, labels[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < 6; r++ {
			if err := srv.Reload(fmt.Sprintf("%d", r)); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
