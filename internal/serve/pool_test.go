package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bolt/internal/core"
	"bolt/internal/dataset"
	"bolt/internal/forest"
	"bolt/internal/tree"
)

// newPoolServer builds a 4-worker pool over a compiled forest; every
// worker engine owns its scratch.
func newPoolServer(t *testing.T, workers int) (*Server, *core.Forest, *dataset.Dataset, string) {
	t.Helper()
	d := dataset.SyntheticBlobs(300, 6, 3, 1.0, 301)
	f := forest.Train(d, forest.Config{NumTrees: 6, Tree: tree.Config{MaxDepth: 4}, Seed: 302})
	bf, err := core.Compile(f, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(t.TempDir(), "pool.sock")
	srv, err := NewPool(sock, func() Engine {
		return &boltEngine{bf: bf, s: bf.NewScratch()}
	}, d.NumFeatures, workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, bf, d, sock
}

// TestPoolConcurrentClients drives 8 concurrent connections through a
// 4-worker pool and checks every answer against a reference predictor.
// Run under -race this is the pool's data-race certificate.
func TestPoolConcurrentClients(t *testing.T) {
	srv, bf, d, sock := newPoolServer(t, 4)
	if srv.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", srv.Workers())
	}
	want := make([]int, d.Len())
	ref := bf.NewScratch()
	for i, x := range d.X {
		want[i] = bf.Predict(x, ref)
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			cl, err := Dial(sock)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for j := 0; j < 50; j++ {
				i := (id*61 + j*7) % d.Len()
				label, _, err := cl.Classify(d.X[i])
				if err != nil {
					errs <- fmt.Errorf("client %d sample %d: %w", id, i, err)
					return
				}
				if label != want[i] {
					errs <- fmt.Errorf("client %d sample %d: label %d, want %d", id, i, label, want[i])
					return
				}
			}
			// Interleave a batch per client to stress sharding too.
			labels, _, err := cl.ClassifyBatch(d.X[:40])
			if err != nil {
				errs <- err
				return
			}
			for i := range labels {
				if labels[i] != want[i] {
					errs <- fmt.Errorf("client %d batch label %d diverges", id, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// countingEngine tracks concurrent Predict calls so tests can observe
// the pool actually running in parallel — and never beyond its bound.
type countingEngine struct {
	inFlight *atomic.Int64
	maxSeen  *atomic.Int64
}

func (e *countingEngine) Predict(x []float32) int {
	n := e.inFlight.Add(1)
	for {
		m := e.maxSeen.Load()
		if n <= m || e.maxSeen.CompareAndSwap(m, n) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond)
	e.inFlight.Add(-1)
	return 0
}

// TestPoolRunsConcurrently proves the tentpole claim: with 4 workers
// and 8 clients, more than one engine is in flight at once, and never
// more than the pool bound.
func TestPoolRunsConcurrently(t *testing.T) {
	var inFlight, maxSeen atomic.Int64
	sock := filepath.Join(t.TempDir(), "count.sock")
	const workers = 4
	srv, err := NewPool(sock, func() Engine {
		return &countingEngine{inFlight: &inFlight, maxSeen: &maxSeen}
	}, 3, workers)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := Dial(sock)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			for j := 0; j < 10; j++ {
				if _, _, err := cl.Classify([]float32{1, 2, 3}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := maxSeen.Load(); got < 2 {
		t.Errorf("peak concurrent engine calls %d; pool never ran in parallel", got)
	}
	if got := maxSeen.Load(); got > workers {
		t.Errorf("peak concurrent engine calls %d exceeds pool bound %d", got, workers)
	}
}

func TestPoolBatchSharded(t *testing.T) {
	_, bf, d, sock := newPoolServer(t, 4)
	cl, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// A batch bigger than the worker count exercises the sharded path.
	labels, ns, err := cl.ClassifyBatch(d.X)
	if err != nil {
		t.Fatal(err)
	}
	if len(labels) != d.Len() || ns == 0 {
		t.Fatalf("batch returned %d labels, ns=%d", len(labels), ns)
	}
	ref := bf.NewScratch()
	for i, x := range d.X {
		if labels[i] != bf.Predict(x, ref) {
			t.Fatalf("sharded batch label %d diverges", i)
		}
	}
	// A batch smaller than the worker count still answers correctly.
	small, _, err := cl.ClassifyBatch(d.X[:2])
	if err != nil || len(small) != 2 {
		t.Fatalf("small batch: %v, %d labels", err, len(small))
	}
}

func TestPoolValidation(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "v.sock")
	factory := func() Engine { return &countingEngine{inFlight: new(atomic.Int64), maxSeen: new(atomic.Int64)} }
	if _, err := NewPool(sock, nil, 3, 1); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := NewPool(sock, factory, 3, 0); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewPool(sock, func() Engine { return nil }, 3, 1); err == nil {
		t.Error("nil-returning factory accepted")
	}
}

func TestStatsEndToEnd(t *testing.T) {
	srv, _, d, sock := newPoolServer(t, 4)
	cl, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for _, x := range d.X[:n] {
		if _, _, err := cl.Classify(x); err != nil {
			t.Fatal(err)
		}
	}
	// One application-level error: wrong feature count.
	if _, _, err := cl.Classify([]float32{1}); err == nil {
		t.Fatal("short sample accepted")
	}
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Workers != 4 {
		t.Errorf("Workers = %d, want 4", st.Workers)
	}
	// ping + 21 classifies + this stats request.
	if st.Requests < n+3 {
		t.Errorf("Requests = %d, want >= %d", st.Requests, n+3)
	}
	if st.Errors != 1 {
		t.Errorf("Errors = %d, want 1", st.Errors)
	}
	if st.InFlight != 1 {
		t.Errorf("InFlight = %d during stats request, want 1", st.InFlight)
	}
	var classify, ping *OpStat
	for i := range st.Ops {
		switch st.Ops[i].Op {
		case OpClassify:
			classify = &st.Ops[i]
		case OpPing:
			ping = &st.Ops[i]
		}
	}
	if classify == nil || ping == nil {
		t.Fatalf("stats missing tracked ops: %+v", st.Ops)
	}
	if classify.Count != n+1 || classify.Errors != 1 {
		t.Errorf("classify count=%d errors=%d, want %d/1", classify.Count, classify.Errors, n+1)
	}
	if ping.Count != 1 {
		t.Errorf("ping count = %d, want 1", ping.Count)
	}
	if classify.AvgNs() <= 0 || classify.QuantileNs(0.5) == 0 || classify.QuantileNs(0.99) < classify.QuantileNs(0.5) {
		t.Errorf("implausible latency summary: avg=%g p50=%d p99=%d",
			classify.AvgNs(), classify.QuantileNs(0.5), classify.QuantileNs(0.99))
	}
	// Server-side snapshot agrees on the monotone counters.
	local := srv.Stats()
	if local.Requests < st.Requests {
		t.Errorf("server snapshot requests %d < client-observed %d", local.Requests, st.Requests)
	}
}

func TestStatsRoundTrip(t *testing.T) {
	in := ServerStats{
		Requests: 7, Errors: 2, InFlight: 1, Workers: 4, ParallelBatches: 3,
		DictBytes: 4096, TableBytes: 8192, Layout: LayoutCompact,
		Tier0Answered: 150, TierEscalated: 50,
	}
	in.TierRate[2] = 2
	in.TierRate[10] = 1
	var op OpStat
	op.Op = OpClassify
	op.Count = 5
	op.Errors = 1
	op.TotalNs = 12345
	op.Buckets[3] = 4
	op.Buckets[10] = 1
	in.Ops = append(in.Ops, op)
	out, err := decodeStats(encodeStats(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Requests != in.Requests || out.Errors != in.Errors ||
		out.InFlight != in.InFlight || out.Workers != in.Workers ||
		out.ParallelBatches != in.ParallelBatches {
		t.Fatalf("header mismatch: %+v vs %+v", out, in)
	}
	if out.DictBytes != in.DictBytes || out.TableBytes != in.TableBytes || out.Layout != in.Layout {
		t.Fatalf("footprint block mismatch: %+v vs %+v", out, in)
	}
	if out.Tier0Answered != in.Tier0Answered || out.TierEscalated != in.TierEscalated ||
		out.TierRate != in.TierRate {
		t.Fatalf("tier block mismatch: %+v vs %+v", out, in)
	}
	if got := out.TierEscalationRate(); got != 0.25 {
		t.Errorf("TierEscalationRate = %v, want 0.25", got)
	}
	if len(out.Ops) != 1 || out.Ops[0] != in.Ops[0] {
		t.Fatalf("ops mismatch: %+v vs %+v", out.Ops, in.Ops)
	}
	if _, err := decodeStats([]byte{1, 2, 3}); err == nil {
		t.Error("truncated stats payload accepted")
	}
	if _, err := decodeStats(append(encodeStats(in), 0xFF)); err == nil {
		t.Error("oversized stats payload accepted")
	}
}

// TestErrorPathsKeepConnection sends every protocol error in sequence
// over one connection; each must return StatusErr and leave the
// connection usable (the satellite's no-killed-loop requirement).
func TestErrorPathsKeepConnection(t *testing.T) {
	_, _, d, sock := newPoolServer(t, 2)
	conn, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	expectErr := func(step string) {
		t.Helper()
		status, _, err := readFrame(conn)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		if status != StatusErr {
			t.Fatalf("%s: status %d, want StatusErr", step, status)
		}
		// Connection must still answer a ping.
		if err := writeFrame(conn, OpPing, nil); err != nil {
			t.Fatalf("%s: ping write: %v", step, err)
		}
		status, _, err = readFrame(conn)
		if err != nil || status != StatusOK {
			t.Fatalf("%s killed the connection loop: status=%d err=%v", step, status, err)
		}
	}

	// Oversized frame, payload fully sent so the server can drain it.
	big := MaxFrameBytes + 8
	var hdr [5]byte
	hdr[0] = OpClassify
	binary.LittleEndian.PutUint32(hdr[1:], uint32(big))
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	junk := make([]byte, 1<<16)
	for sent := 0; sent < big; sent += len(junk) {
		n := len(junk)
		if big-sent < n {
			n = big - sent
		}
		if _, err := conn.Write(junk[:n]); err != nil {
			t.Fatal(err)
		}
	}
	expectErr("oversized frame")

	// Wrong feature count.
	if err := writeFrame(conn, OpClassify, encodeFloats([]float32{1, 2})); err != nil {
		t.Fatal(err)
	}
	expectErr("wrong feature count")

	// Unknown op.
	if err := writeFrame(conn, 'Z', nil); err != nil {
		t.Fatal(err)
	}
	expectErr("unknown op")

	// Regression op against a classification engine.
	if err := writeFrame(conn, OpValue, encodeFloats(d.X[0])); err != nil {
		t.Fatal(err)
	}
	expectErr("regression op on classification engine")
}

// TestClientTimeout verifies a hung server cannot block a client: the
// listener accepts but never answers, and the deadline fires.
func TestClientTimeout(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "hung.sock")
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Swallow requests, never reply.
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						c.Close()
						return
					}
				}
			}(conn)
		}
	}()

	cl, err := DialTimeout(sock, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	err = cl.Ping()
	if err == nil {
		t.Fatal("ping against a hung server succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("want timeout error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// After a timeout the deadline is cleared for the next call (which
	// re-arms its own); SetTimeout(0) disables deadlines entirely.
	cl.SetTimeout(0)
}

// slowEngine simulates an engine with a fixed service time, so pool
// overlap is visible even on a single-core machine: a serialized
// server queues the sleeps, a pool overlaps them.
type slowEngine struct{ d time.Duration }

func (e *slowEngine) Predict(x []float32) int { time.Sleep(e.d); return 0 }

// BenchmarkPoolOverlap measures request throughput with 8 concurrent
// connections against a 200µs-per-request engine. Throughput scales
// with the worker count until it saturates the connection count —
// the head-of-line-blocking comparison recorded in EXPERIMENTS.md.
func BenchmarkPoolOverlap(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sock := filepath.Join(b.TempDir(), "slow.sock")
			srv, err := NewPool(sock, func() Engine {
				return &slowEngine{d: 200 * time.Microsecond}
			}, 3, workers)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			const conns = 8
			clients := make([]*Client, conns)
			for i := range clients {
				if clients[i], err = Dial(sock); err != nil {
					b.Fatal(err)
				}
				defer clients[i].Close()
			}
			x := []float32{1, 2, 3}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / conns
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func(cl *Client) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						if _, _, err := cl.Classify(x); err != nil {
							b.Error(err)
							return
						}
					}
				}(clients[c])
			}
			wg.Wait()
		})
	}
}

// BenchmarkPoolThroughput measures end-to-end serving throughput with
// 8 concurrent connections against pools of 1 (the old serialized
// server) and more workers. Recorded in EXPERIMENTS.md.
func BenchmarkPoolThroughput(b *testing.B) {
	d := dataset.SyntheticBlobs(300, 6, 3, 1.0, 301)
	f := forest.Train(d, forest.Config{NumTrees: 12, Tree: tree.Config{MaxDepth: 8}, Seed: 302})
	bf, err := core.Compile(f, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sock := filepath.Join(b.TempDir(), "bench.sock")
			srv, err := NewPool(sock, func() Engine {
				return &boltEngine{bf: bf, s: bf.NewScratch()}
			}, d.NumFeatures, workers)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			const conns = 8
			clients := make([]*Client, conns)
			for i := range clients {
				if clients[i], err = Dial(sock); err != nil {
					b.Fatal(err)
				}
				defer clients[i].Close()
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / conns
			for c := 0; c < conns; c++ {
				wg.Add(1)
				go func(cl *Client, id int) {
					defer wg.Done()
					for j := 0; j < per; j++ {
						if _, _, err := cl.Classify(d.X[(id+j)%d.Len()]); err != nil {
							b.Error(err)
							return
						}
					}
				}(clients[c], c)
			}
			wg.Wait()
		})
	}
}
