package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bolt/internal/faults"
)

// constEngine answers a fixed label, so tests can tell which engine
// generation served a request.
type constEngine struct{ label int }

func (e *constEngine) Predict(x []float32) int { return e.label }

func constFactory(label int) EngineFactory {
	return func() Engine { return &constEngine{label: label} }
}

// TestEnginePanicIsolated is the acceptance scenario: a worker panic
// injected via internal/faults yields StatusErr on that request while
// the server keeps serving subsequent requests on the same connection.
func TestEnginePanicIsolated(t *testing.T) {
	defer faults.Reset()
	sock := filepath.Join(t.TempDir(), "p.sock")
	srv, err := NewPool(sock, constFactory(7), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	faults.Enable(faults.SiteServeEngine, faults.Rule{PanicMsg: "worker killed", Times: 1})
	if _, _, err := c.Classify([]float32{1, 2, 3}); err == nil {
		t.Fatal("request served by a panicking worker succeeded")
	}
	// Same connection, next request: must succeed on a healthy worker.
	label, _, err := c.Classify([]float32{1, 2, 3})
	if err != nil || label != 7 {
		t.Fatalf("server did not survive worker panic: label=%d err=%v", label, err)
	}
	st := srv.Stats()
	if st.Panics != 1 {
		t.Errorf("Panics = %d, want 1", st.Panics)
	}
	if faults.Fired(faults.SiteServeEngine) != 1 {
		t.Errorf("fault fired %d times, want 1", faults.Fired(faults.SiteServeEngine))
	}
}

// TestWorkerPanicMidBatch kills one shard worker of a sharded batch:
// the batch fails cleanly, every engine returns to the pool, and the
// next batch on the same connection succeeds.
func TestWorkerPanicMidBatch(t *testing.T) {
	defer faults.Reset()
	sock := filepath.Join(t.TempDir(), "b.sock")
	srv, err := NewPool(sock, constFactory(3), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	X := make([][]float32, 64)
	for i := range X {
		X[i] = []float32{float32(i), 1}
	}
	faults.Enable(faults.SiteServeEngine, faults.Rule{PanicMsg: "shard died", Times: 1})
	if _, _, err := c.ClassifyBatch(X); err == nil {
		t.Fatal("batch with a killed shard worker succeeded")
	}
	labels, _, err := c.ClassifyBatch(X)
	if err != nil {
		t.Fatalf("server did not survive mid-batch panic: %v", err)
	}
	for _, l := range labels {
		if l != 3 {
			t.Fatalf("wrong label %d after recovery", l)
		}
	}
	if st := srv.Stats(); st.Panics != 1 {
		t.Errorf("Panics = %d, want 1", st.Panics)
	}
}

// TestConnFaultKeepsConnection arms the connection-loop injection
// point: the faulted request answers StatusErr, the next one works.
func TestConnFaultKeepsConnection(t *testing.T) {
	defer faults.Reset()
	sock := filepath.Join(t.TempDir(), "c.sock")
	srv, err := NewPool(sock, constFactory(1), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	faults.Enable(faults.SiteServeConn, faults.Rule{Err: errors.New("injected frame corruption"), Times: 1})
	if _, _, err := c.Classify([]float32{1, 2, 3}); err == nil {
		t.Fatal("faulted request succeeded")
	}
	if _, _, err := c.Classify([]float32{1, 2, 3}); err != nil {
		t.Fatalf("connection dead after injected fault: %v", err)
	}
}

// TestConnPanicIsolated arms a panic at the connection loop (outside
// the engine): the per-connection recover answers StatusErr and the
// connection keeps serving.
func TestConnPanicIsolated(t *testing.T) {
	defer faults.Reset()
	sock := filepath.Join(t.TempDir(), "cp.sock")
	srv, err := NewPool(sock, constFactory(1), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	faults.Enable(faults.SiteServeConn, faults.Rule{PanicMsg: "dispatch blew up", Times: 1})
	if _, _, err := c.Classify([]float32{1, 2, 3}); err == nil {
		t.Fatal("panicking dispatch succeeded")
	}
	if err := c.Ping(); err != nil {
		t.Fatalf("connection dead after dispatch panic: %v", err)
	}
	if st := srv.Stats(); st.Panics != 1 {
		t.Errorf("Panics = %d, want 1", st.Panics)
	}
}

func TestHealthEndToEnd(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "h.sock")
	srv, err := NewPool(sock, constFactory(1), 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetModelChecksum("crc32:cafef00d")
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.State != HealthReady {
		t.Errorf("State = %s, want ready", HealthStateName(h.State))
	}
	if h.Workers != 4 {
		t.Errorf("Workers = %d, want 4", h.Workers)
	}
	if h.ModelChecksum != "crc32:cafef00d" {
		t.Errorf("ModelChecksum = %q", h.ModelChecksum)
	}
	if h.Reloads != 0 {
		t.Errorf("Reloads = %d, want 0", h.Reloads)
	}
}

func TestReloadSwapsEngines(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "r.sock")
	srv, err := NewPool(sock, constFactory(1), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetModelChecksum("crc32:aaaa")
	srv.SetReloader(func(path string) (EngineFactory, int, string, error) {
		if path == "bad" {
			return nil, 0, "", errors.New("no such model")
		}
		return constFactory(2), 3, "crc32:bbbb", nil
	})
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if label, _, _ := c.Classify([]float32{0, 0, 0}); label != 1 {
		t.Fatalf("pre-reload label %d, want 1", label)
	}
	sum, err := c.TriggerReload("")
	if err != nil {
		t.Fatal(err)
	}
	if sum != "crc32:bbbb" {
		t.Errorf("reload checksum %q", sum)
	}
	if label, _, _ := c.Classify([]float32{0, 0, 0}); label != 2 {
		t.Fatalf("post-reload label %d, want 2", label)
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Reloads != 1 || h.State != HealthReady || h.ModelChecksum != "crc32:bbbb" {
		t.Errorf("health after reload: %+v", h)
	}
	// A failing reload keeps the current pool serving.
	if _, err := c.TriggerReload("bad"); err == nil {
		t.Fatal("failing reload accepted")
	}
	if label, _, _ := c.Classify([]float32{0, 0, 0}); label != 2 {
		t.Fatalf("label %d after failed reload, want 2", label)
	}
	if st := srv.Stats(); st.Reloads != 1 {
		t.Errorf("Reloads = %d, want 1", st.Reloads)
	}
}

// TestReloadFactoryFaultKeepsOldPool injects a failure into pool
// construction itself: the swap never happens and the old generation
// keeps serving.
func TestReloadFactoryFaultKeepsOldPool(t *testing.T) {
	defer faults.Reset()
	sock := filepath.Join(t.TempDir(), "rf.sock")
	srv, err := NewPool(sock, constFactory(5), 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.SetReloader(func(string) (EngineFactory, int, string, error) {
		return constFactory(6), 3, "crc32:next", nil
	})

	faults.Enable(faults.SiteServeFactory, faults.Rule{Err: errors.New("injected build failure"), Times: 1})
	if err := srv.Reload(""); err == nil {
		t.Fatal("reload with failing factory succeeded")
	}
	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if label, _, err := c.Classify([]float32{0, 0, 0}); err != nil || label != 5 {
		t.Fatalf("old pool not serving after failed reload: label=%d err=%v", label, err)
	}
	if h := srv.Healthz(); h.State != HealthReady {
		t.Errorf("health %s after failed reload, want ready", HealthStateName(h.State))
	}
}

// TestReloadUnderLoad is the acceptance scenario: 8 connections hammer
// Classify and OpBatch across repeated engine swaps and observe zero
// failed requests; every answer comes from a coherent generation.
func TestReloadUnderLoad(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "rl.sock")
	srv, err := NewPool(sock, constFactory(100), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var gen atomic.Int64
	gen.Store(100)
	srv.SetReloader(func(string) (EngineFactory, int, string, error) {
		g := int(gen.Add(1))
		return constFactory(g), 4, fmt.Sprintf("crc32:%08x", g), nil
	})

	const clients = 8
	var stop atomic.Bool
	var served atomic.Int64
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(sock)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			x := []float32{1, 2, 3, 4}
			batch := [][]float32{x, x, x, x, x, x, x, x}
			for !stop.Load() {
				label, _, err := c.Classify(x)
				if err != nil {
					errs <- fmt.Errorf("client %d classify during reload: %w", id, err)
					return
				}
				if label < 100 || label > 200 {
					errs <- fmt.Errorf("client %d got label %d from no known generation", id, label)
					return
				}
				labels, _, err := c.ClassifyBatch(batch)
				if err != nil {
					errs <- fmt.Errorf("client %d batch during reload: %w", id, err)
					return
				}
				for _, l := range labels {
					// A batch must never mix generations: the pool
					// snapshot is taken once per request.
					if l != labels[0] {
						errs <- fmt.Errorf("client %d batch mixed generations %d/%d", id, labels[0], l)
						return
					}
				}
				served.Add(1)
			}
		}(i)
	}

	const reloads = 20
	for i := 0; i < reloads; i++ {
		if err := srv.Reload(""); err != nil {
			t.Errorf("reload %d: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if served.Load() == 0 {
		t.Fatal("no requests served during the reload storm")
	}
	st := srv.Stats()
	if st.Reloads != reloads {
		t.Errorf("Reloads = %d, want %d", st.Reloads, reloads)
	}
	if st.Errors != 0 {
		t.Errorf("Errors = %d across %d requests, want 0", st.Errors, st.Requests)
	}
	t.Logf("served %d requests across %d engine swaps with zero errors", served.Load(), reloads)
}

// blockingEngine holds every Predict until released, so tests control
// exactly when an in-flight request finishes.
type blockingEngine struct {
	entered chan struct{}
	release chan struct{}
}

func (e *blockingEngine) Predict(x []float32) int {
	e.entered <- struct{}{}
	<-e.release
	return 42
}

// TestShutdownDrainsInFlight proves the graceful path: a request in
// flight when Shutdown begins completes successfully, idle connections
// are released, and the listener stops accepting.
func TestShutdownDrainsInFlight(t *testing.T) {
	// After the graceful drain, every handler and writer goroutine must
	// be joined.
	defer faults.VerifyNoLeaks(t)
	sock := filepath.Join(t.TempDir(), "d.sock")
	eng := &blockingEngine{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv, err := NewPool(sock, func() Engine { return eng }, 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	busy, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	idle, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if err := idle.Ping(); err != nil {
		t.Fatal(err)
	}

	type result struct {
		label int
		err   error
	}
	res := make(chan result, 1)
	go func() {
		label, _, err := busy.Classify([]float32{1, 2, 3})
		res <- result{label, err}
	}()
	<-eng.entered // the request is now in flight

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// Draining must be observable while the request holds the worker.
	deadline := time.After(2 * time.Second)
	for srv.Healthz().State != HealthDraining {
		select {
		case <-deadline:
			t.Fatal("server never reported draining")
		case <-time.After(time.Millisecond):
		}
	}
	// New connections are refused once draining starts.
	if c, err := Dial(sock); err == nil {
		if perr := c.Ping(); perr == nil {
			t.Error("new connection served during drain")
		}
		c.Close()
	}

	close(eng.release) // let the in-flight request finish
	r := <-res
	if r.err != nil || r.label != 42 {
		t.Fatalf("in-flight request dropped during drain: label=%d err=%v", r.label, r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestShutdownDeadlineForces bounds the drain: with a stuck worker,
// Shutdown returns once the context expires instead of hanging.
func TestShutdownDeadlineForces(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "f.sock")
	eng := &blockingEngine{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv, err := NewPool(sock, func() Engine { return eng }, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer close(eng.release)

	c, err := Dial(sock)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Classify([]float32{1, 2, 3})
	<-eng.entered

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("forced shutdown took %v", elapsed)
	}
}

// TestClientRetryReconnects restarts the server between requests: a
// client with a retry policy rides over the dead connection, while one
// without fails fast.
func TestClientRetryReconnects(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "rr.sock")
	srv1, err := NewPool(sock, constFactory(1), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := DialTimeout(sock, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	retrier, err := DialTimeout(sock, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer retrier.Close()
	retrier.SetRetry(RetryPolicy{MaxRetries: 5, Backoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond})

	if _, _, err := retrier.Classify([]float32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	srv2, err := NewPool(sock, constFactory(2), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()

	if _, _, err := plain.Classify([]float32{1, 2, 3}); err == nil {
		t.Fatal("retry-less client survived a server restart")
	}
	label, _, err := retrier.Classify([]float32{1, 2, 3})
	if err != nil {
		t.Fatalf("retrying client failed across restart: %v", err)
	}
	if label != 2 {
		t.Fatalf("label %d, want 2 from the restarted server", label)
	}
}

// TestRetryGivesUp bounds the retry loop when no server comes back.
func TestRetryGivesUp(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "gone.sock")
	srv, err := NewPool(sock, constFactory(1), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialTimeout(sock, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetRetry(RetryPolicy{MaxRetries: 2, Backoff: time.Millisecond})
	srv.Close()
	start := time.Now()
	if _, _, err := c.Classify([]float32{1, 2, 3}); err == nil {
		t.Fatal("classify against a dead server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("bounded retry took %v", elapsed)
	}
}

// TestDispatchErrorsUnderConcurrentLoad is the satellite scenario: one
// connection alternates oversized frames and valid frames while 8
// goroutines hammer OpBatch; every error is contained to its own
// request and the race detector sees the whole dance.
func TestDispatchErrorsUnderConcurrentLoad(t *testing.T) {
	sock := filepath.Join(t.TempDir(), "load.sock")
	srv, err := NewPool(sock, constFactory(9), 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const hammers = 8
	var stop atomic.Bool
	errs := make(chan error, hammers+1)
	var wg sync.WaitGroup
	for i := 0; i < hammers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(sock)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			x := []float32{1, 2, 3, 4}
			batch := [][]float32{x, x, x, x, x, x, x, x, x, x}
			for !stop.Load() {
				labels, _, err := c.ClassifyBatch(batch)
				if err != nil {
					errs <- fmt.Errorf("hammer %d: %w", id, err)
					return
				}
				for _, l := range labels {
					if l != 9 {
						errs <- fmt.Errorf("hammer %d: label %d", id, l)
						return
					}
				}
			}
		}(i)
	}

	// The abuser: oversized frame, then a valid frame, 20 times on one
	// raw connection. Each oversized frame must get StatusErr and the
	// following valid frame StatusOK.
	abuser := func() error {
		conn, err := net.Dial("unix", sock)
		if err != nil {
			return err
		}
		defer conn.Close()
		junk := make([]byte, 1<<16)
		for round := 0; round < 20; round++ {
			big := MaxFrameBytes + 64
			hdr := [5]byte{OpBatch}
			hdr[1] = byte(big)
			hdr[2] = byte(big >> 8)
			hdr[3] = byte(big >> 16)
			hdr[4] = byte(big >> 24)
			if _, err := conn.Write(hdr[:]); err != nil {
				return fmt.Errorf("round %d: %w", round, err)
			}
			for sent := 0; sent < big; sent += len(junk) {
				n := len(junk)
				if big-sent < n {
					n = big - sent
				}
				if _, err := conn.Write(junk[:n]); err != nil {
					return fmt.Errorf("round %d junk: %w", round, err)
				}
			}
			status, _, err := readFrame(conn)
			if err != nil {
				return fmt.Errorf("round %d oversized reply: %w", round, err)
			}
			if status != StatusErr {
				return fmt.Errorf("round %d: oversized frame got status %d", round, status)
			}
			if err := writeFrame(conn, OpClassify, encodeFloats([]float32{1, 2, 3, 4})); err != nil {
				return fmt.Errorf("round %d valid write: %w", round, err)
			}
			status, payload, err := readFrame(conn)
			if err != nil {
				return fmt.Errorf("round %d valid reply: %w", round, err)
			}
			if status != StatusOK {
				return fmt.Errorf("round %d: valid frame after oversized got %q", round, payload)
			}
		}
		return nil
	}
	if err := abuser(); err != nil {
		t.Error(err)
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
