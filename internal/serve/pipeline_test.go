package serve

import (
	"context"
	"net"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bolt/internal/core"
	"bolt/internal/dataset"
	"bolt/internal/forest"
	"bolt/internal/tree"
)

// TestReloadShutdownRace drives many concurrent single-row connections
// across hot reloads and a graceful shutdown. Every reply that arrives
// must be bit-exact for the sample that connection sent (distinct per
// client, so a misrouted reply shows up as a wrong label), the server
// must record zero errors, and requests in flight when the drain
// begins must still answer. Run under -race in CI, this is the
// pipeline's data-race certificate.
func TestReloadShutdownRace(t *testing.T) {
	srv, bf, d, sock := newPoolServer(t, 4)
	srv.SetReloader(func(path string) (EngineFactory, int, string, error) {
		return func() Engine {
			return &boltEngine{bf: bf, s: bf.NewScratch()}
		}, d.NumFeatures, "reloaded", nil
	})

	want := make([]int, d.Len())
	s := bf.NewScratch()
	for i, x := range d.X {
		want[i] = bf.Predict(x, s)
	}

	const clients = 32
	const iters = 50
	var draining atomic.Bool
	var served atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(sock)
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			<-start
			for j := 0; j < iters; j++ {
				i := (c*61 + j*17) % d.Len()
				label, _, err := cl.Classify(d.X[i])
				if err != nil {
					if !draining.Load() {
						t.Errorf("client %d iter %d: %v", c, j, err)
					}
					return
				}
				if label != want[i] {
					t.Errorf("client %d iter %d: label %d, want %d (misrouted?)", c, j, label, want[i])
				}
				served.Add(1)
			}
		}(c)
	}

	reloads := make(chan struct{})
	go func() {
		defer close(reloads)
		for r := 0; r < 10; r++ {
			if err := srv.Reload(""); err != nil && !draining.Load() {
				t.Errorf("reload %d: %v", r, err)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	close(start)
	time.Sleep(25 * time.Millisecond)
	draining.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	wg.Wait()
	<-reloads

	st := srv.Stats()
	if st.Errors != 0 || st.Panics != 0 {
		t.Errorf("server recorded errors=%d panics=%d, want 0/0", st.Errors, st.Panics)
	}
	if served.Load() == 0 {
		t.Error("no request completed before the drain")
	}
	t.Logf("served %d replies, %d reloads", served.Load(), st.Reloads)
}

var (
	pipelineFuzzOnce sync.Once
	pipelineFuzzBF   *core.Forest
	pipelineFuzzD    *dataset.Dataset
	pipelineFuzzWant []int
)

func pipelineFuzzModel() (*core.Forest, *dataset.Dataset, []int) {
	pipelineFuzzOnce.Do(func() {
		d := dataset.SyntheticBlobs(256, 6, 3, 1.0, 701)
		f := forest.Train(d, forest.Config{NumTrees: 6, Tree: tree.Config{MaxDepth: 4}, Seed: 702})
		bf, err := core.Compile(f, core.Options{})
		if err != nil {
			panic(err)
		}
		want := make([]int, d.Len())
		s := bf.NewScratch()
		for i, x := range d.X {
			want[i] = bf.Predict(x, s)
		}
		pipelineFuzzBF, pipelineFuzzD, pipelineFuzzWant = bf, d, want
	})
	return pipelineFuzzBF, pipelineFuzzD, pipelineFuzzWant
}

// pipelinedReq is one frame of a fuzzed pipeline and the reply it must
// draw: rows [off, off+n) of the dataset, or a StatusErr when bad.
type pipelinedReq struct {
	op      byte
	payload []byte
	off, n  int
	bad     bool
}

// FuzzPipelineDifferential pipelines arbitrary request mixes on
// concurrent connections: each connection writes every frame before
// reading any reply, and the replies must come back in request order,
// bit-exact with the serial row path. Byte 0 picks the connection
// count; each further byte becomes one request on a connection
// (round-robin): the high bits choose a batch size (0 = single-row
// classify), the low bits an offset into the dataset. Every connection
// also sends one row of the wrong width mid-stream, which must draw
// StatusErr without disturbing the order of the replies around it.
func FuzzPipelineDifferential(f *testing.F) {
	f.Add([]byte{3, 0, 5, 17, 129, 0, 33, 255, 64})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{6, 2, 250, 2, 9, 2, 77, 2, 180, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 48 {
			return
		}
		bf, d, want := pipelineFuzzModel()
		nConns := int(data[0])%6 + 1
		scripts := make([][]byte, nConns)
		for i, b := range data[1:] {
			scripts[i%nConns] = append(scripts[i%nConns], b)
		}
		sock := filepath.Join(t.TempDir(), "fuzz.sock")
		srv, err := NewPool(sock, func() Engine {
			return &boltEngine{bf: bf, s: bf.NewScratch()}
		}, d.NumFeatures, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()

		var wg sync.WaitGroup
		for c, script := range scripts {
			if len(script) == 0 {
				continue
			}
			reqs := make([]pipelinedReq, 0, len(script)+1)
			for _, b := range script {
				sz := int(b >> 3)
				off := int(b&7) * 31 % d.Len()
				if sz == 0 {
					reqs = append(reqs, pipelinedReq{op: OpClassify, payload: encodeFloats(d.X[off]), off: off, n: 1})
					continue
				}
				if off+sz > d.Len() {
					sz = d.Len() - off
				}
				reqs = append(reqs, pipelinedReq{op: OpBatch, payload: encodeBatchRequest(d.X[off : off+sz]), off: off, n: sz})
			}
			reqs = slices.Insert(reqs, len(reqs)/2,
				pipelinedReq{op: OpClassify, payload: encodeFloats(d.X[0][:d.NumFeatures-1]), bad: true})

			wg.Add(1)
			go func(c int, reqs []pipelinedReq) {
				defer wg.Done()
				conn, err := net.Dial("unix", sock)
				if err != nil {
					t.Error(err)
					return
				}
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				for j, rq := range reqs {
					if err := writeFrame(conn, rq.op, rq.payload); err != nil {
						t.Errorf("conn %d req %d: write: %v", c, j, err)
						return
					}
				}
				for j, rq := range reqs {
					status, payload, err := readFrame(conn)
					if err != nil {
						t.Errorf("conn %d reply %d: %v", c, j, err)
						return
					}
					if rq.bad {
						if status != StatusErr {
							t.Errorf("conn %d reply %d: wrong-width row drew status %d, want StatusErr", c, j, status)
						}
						continue
					}
					if status != StatusOK {
						t.Errorf("conn %d reply %d: status %d (%q)", c, j, status, payload)
						continue
					}
					var labels []int
					if rq.op == OpClassify {
						var label int
						label, _, err = decodeClassifyResponse(payload)
						labels = []int{label}
					} else {
						labels, _, err = decodeBatchResponse(payload)
					}
					if err != nil || len(labels) != rq.n {
						t.Errorf("conn %d reply %d: %d labels (%v), want %d: out of order?", c, j, len(labels), err, rq.n)
						continue
					}
					for k, label := range labels {
						if label != want[rq.off+k] {
							t.Errorf("conn %d reply %d row %d: label %d, row path %d", c, j, k, label, want[rq.off+k])
						}
					}
				}
			}(c, reqs)
		}
		wg.Wait()
	})
}
