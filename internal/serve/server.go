package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bolt/internal/faults"
)

// Engine is the pluggable inference backend: Bolt forests, baseline
// platforms and plain forests all satisfy it through small adapters
// (§4.5: "Alternatively, the front-end can connect to other forest
// implementations").
type Engine interface {
	Predict(x []float32) int
}

// EngineFactory constructs one engine per pool worker. Each engine
// owns its scratch buffers, so independent workers run inference
// concurrently without sharing mutable state.
type EngineFactory func() Engine

// Explainer is the optional salience extension (Bolt engines support
// it; baselines typically do not).
type Explainer interface {
	Salience(x []float32) []int
}

// ValuePredictor is the optional regression extension.
type ValuePredictor interface {
	PredictValue(x []float32) float32
}

// BatchPredictor is the optional batch extension: engines that expose a
// cache-blocked batch kernel classify OpBatch shards in one call
// instead of row-at-a-time Predict. out has the same length as X.
type BatchPredictor interface {
	PredictBatchInto(X [][]float32, out []int)
}

// ParallelBatchPredictor is the optional multi-core batch extension:
// engines backed by a persistent worker pool classify a whole batch
// with the parallel cache-blocked kernel in one call. A large OpBatch
// arriving at a fully idle pool takes this path instead of row-sharding
// across pool workers — one kernel spanning every core beats
// re-scanning the dictionary once per shard. ParallelKernelWorkers
// reports the pool size so the server can skip the takeover when the
// kernel could not actually fan out (a single-core host).
type ParallelBatchPredictor interface {
	PredictBatchParallelInto(X [][]float32, out []int)
	ParallelKernelWorkers() int
}

// TieredBatchPredictor is the optional staged-inference extension:
// engines over a tier-partitioned model (compiled with TierTrees > 0)
// classify a batch in two stages — a prefix of the ensemble votes
// first, and only samples whose leading margin fails to clear the
// engine's escalation policy pay for the remaining trees. Both predict
// methods return how many samples the first stage answered (the rest
// escalated to the full ensemble); the server aggregates those counts
// into the OpStats tier counters and the per-batch escalation-rate
// histogram. TierEnabled reports whether the loaded model actually
// carries a tier split: engines over untier'd models return false and
// every batch path stays monolithic, with no tier counters recorded.
type TieredBatchPredictor interface {
	TierEnabled() bool
	PredictBatchTieredInto(X [][]float32, out []int) (tier0Answered uint64)
	PredictBatchTieredParallelInto(X [][]float32, out []int) (tier0Answered uint64)
}

// FootprintReporter is the optional memory-observability extension:
// engines that know their resident model size report dictionary and
// table bytes plus the active layout (a Layout* wire byte), and the
// server surfaces them in OpStats snapshots. Baseline adapters that do
// not implement it leave the fields zero (LayoutUnknown).
type FootprintReporter interface {
	ModelFootprint() (dictBytes, tableBytes uint64, layout byte)
}

// ReloadFunc rebuilds the serving artifacts from a model path. It
// returns the new engine factory, the model's feature count and a
// human-readable checksum of the artifact. An empty path means "the
// model the server was started with".
type ReloadFunc func(path string) (factory EngineFactory, numFeatures int, checksum string, err error)

// enginePool is one immutable generation of engines. The server swaps
// whole generations atomically on reload: requests that checked an
// engine out of an old generation return it there and the generation
// is garbage-collected once drained, so a swap drops zero requests.
type enginePool struct {
	// engines holds the idle engines; receiving checks one out,
	// sending returns it. Capacity equals workers, so the channel
	// never blocks on return.
	engines     chan Engine
	workers     int
	rep         Engine // representative engine for interface checks
	numFeatures int
}

func newEnginePool(factory EngineFactory, numFeatures, workers int) (*enginePool, error) {
	if factory == nil {
		return nil, errors.New("serve: nil engine factory")
	}
	if numFeatures <= 0 {
		return nil, fmt.Errorf("serve: invalid feature count %d", numFeatures)
	}
	if workers < 1 {
		return nil, fmt.Errorf("serve: invalid worker count %d", workers)
	}
	if err := faults.Inject(faults.SiteServeFactory); err != nil {
		return nil, err
	}
	p := &enginePool{
		engines:     make(chan Engine, workers),
		workers:     workers,
		numFeatures: numFeatures,
	}
	for i := 0; i < workers; i++ {
		e := factory()
		if e == nil {
			return nil, errors.New("serve: engine factory returned nil")
		}
		if i == 0 {
			p.rep = e
		}
		p.engines <- e
	}
	return p, nil
}

// Server answers classification requests on a UNIX domain socket.
// Inference runs on a bounded pool of engines: each connection handler
// checks an engine out of the current pool generation per request, so
// up to `workers` requests execute concurrently and OpBatch frames are
// sharded across idle workers. A pool of one reproduces the paper's
// serialized, single-writer engine discipline (§6).
//
// The server is fault-tolerant by construction: engine and dispatch
// panics are recovered into StatusErr responses (counted in Stats),
// OpReload/SIGHUP swap in a freshly built pool without dropping
// in-flight requests, and Shutdown drains gracefully with a deadline.
type Server struct {
	ln net.Listener

	// pool is the current engine generation, swapped atomically by
	// Reload. Every request loads it once and uses that snapshot
	// throughout, so a mid-request swap never splits a batch across
	// generations.
	pool atomic.Pointer[enginePool]

	// health is a HealthLoading/HealthReady/HealthDraining byte.
	health atomic.Uint32

	// modelSum is the checksum string reported by OpHealth.
	modelSum atomic.Value // string

	reloadMu sync.Mutex
	reloader ReloadFunc

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	lnErr  error
	wg     sync.WaitGroup
	// drained is closed once every handler goroutine has exited; it is
	// armed by the first Shutdown/Close so concurrent callers share one
	// drain.
	drained chan struct{}

	stats serverStats
}

// NewServer listens on the UNIX socket path and serves a single
// engine, serialising every inference — the safe mode for engines that
// reuse shared scratch buffers. numFeatures is enforced on every
// request.
func NewServer(socketPath string, engine Engine, numFeatures int) (*Server, error) {
	if engine == nil {
		return nil, errors.New("serve: nil engine")
	}
	return NewPool(socketPath, func() Engine { return engine }, numFeatures, 1)
}

// NewPool listens on the UNIX socket path and serves a pool of
// `workers` engines built by the factory. workers < 1 is an error:
// callers choose the concurrency (typically the core count).
func NewPool(socketPath string, factory EngineFactory, numFeatures, workers int) (*Server, error) {
	p, err := newEnginePool(factory, numFeatures, workers)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("unix", socketPath)
	if err != nil {
		return nil, fmt.Errorf("serve: listen on %s: %w", socketPath, err)
	}
	s := &Server{
		ln:      ln,
		conns:   map[net.Conn]struct{}{},
		drained: make(chan struct{}),
	}
	s.pool.Store(p)
	s.health.Store(uint32(HealthReady))
	s.wg.Add(1)
	go s.acceptLoop() //bolt:goroutine s.wg
	return s, nil
}

// CoalesceConfig configured the request coalescer, which no longer
// exists.
//
// Deprecated: every request is served as it arrives; the config has no
// effect.
type CoalesceConfig struct {
	Hold    time.Duration
	MaxRows int
}

// SetCoalescing does nothing.
//
// Deprecated: the server no longer coalesces requests.
func (s *Server) SetCoalescing(CoalesceConfig) {}

// Addr returns the listening socket path.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Workers returns the current engine-pool size.
func (s *Server) Workers() int { return s.pool.Load().workers }

// Stats returns a snapshot of the server's request counters.
func (s *Server) Stats() ServerStats { return s.statsFor(s.pool.Load()) }

// statsFor snapshots the counters and stamps in the pool's model
// footprint when its engines report one.
func (s *Server) statsFor(p *enginePool) ServerStats {
	st := s.stats.snapshot(p.workers)
	if fr, ok := p.rep.(FootprintReporter); ok {
		st.DictBytes, st.TableBytes, st.Layout = fr.ModelFootprint()
	}
	return st
}

// SetModelChecksum records the checksum OpHealth reports, typically
// set once at startup and refreshed automatically by Reload.
func (s *Server) SetModelChecksum(sum string) { s.modelSum.Store(sum) }

func (s *Server) modelChecksum() string {
	if v, ok := s.modelSum.Load().(string); ok {
		return v
	}
	return ""
}

// SetReloader installs the callback OpReload and Server.Reload use to
// rebuild engines from a model path. Without one, reload requests are
// rejected.
func (s *Server) SetReloader(fn ReloadFunc) {
	s.reloadMu.Lock()
	s.reloader = fn
	s.reloadMu.Unlock()
}

// Reload rebuilds the engine pool from the model at path (empty =
// startup model) and swaps it in. In-flight requests keep their old
// engines and drain naturally; new requests see the new pool as soon
// as the swap lands, so no request is dropped. On any error the old
// pool keeps serving untouched.
func (s *Server) Reload(path string) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	fn := s.reloader
	if fn == nil {
		return errors.New("serve: no reloader configured")
	}
	// Announce loading unless a shutdown already owns the state; a
	// draining server refuses to reload.
	if !s.health.CompareAndSwap(uint32(HealthReady), uint32(HealthLoading)) {
		return fmt.Errorf("serve: cannot reload while %s", HealthStateName(byte(s.health.Load())))
	}
	defer s.health.CompareAndSwap(uint32(HealthLoading), uint32(HealthReady))

	factory, numFeatures, sum, err := fn(path)
	if err != nil {
		return fmt.Errorf("serve: reload: %w", err)
	}
	p, err := newEnginePool(factory, numFeatures, s.pool.Load().workers)
	if err != nil {
		return fmt.Errorf("serve: reload: %w", err)
	}
	s.pool.Store(p)
	s.modelSum.Store(sum)
	s.stats.reloads.Add(1)
	return nil
}

// Healthz reports the server's current health snapshot.
func (s *Server) Healthz() Health {
	return Health{
		State:         byte(s.health.Load()),
		Workers:       s.Workers(),
		Reloads:       s.stats.reloads.Load(),
		ModelChecksum: s.modelChecksum(),
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn) //bolt:goroutine s.wg
	}
}

func (s *Server) draining() bool { return s.health.Load() == uint32(HealthDraining) }

// oversizeDrainTimeout bounds how long a handler will spend draining
// the payload of a rejected oversized frame. A variable, not a const,
// so the slow-loris test can tighten it.
var oversizeDrainTimeout = 5 * time.Second

// pipelineDepth bounds how many computed replies a connection may have
// queued for its writer before its reader blocks: backpressure against
// a client that pipelines requests faster than it reads replies.
const pipelineDepth = 128

// reply is one computed response on its way to the connection's
// writer.
type reply struct {
	op    byte
	start time.Time
	// observe marks dispatched requests: the writer records dispatch
	// latency, error counters and the in-flight decrement when the
	// reply reaches it. Raw protocol-error replies pre-count instead.
	observe bool
	status  byte
	payload []byte
}

// connWriter owns the write half of one connection. The reader computes
// each reply before queueing it, so replies reach the wire in request
// order; the write runs on the writer goroutine so the reader can
// decode the next pipelined frame meanwhile.
type connWriter struct {
	s    *Server
	conn net.Conn
	q    chan reply
	done chan struct{}
}

func (s *Server) newConnWriter(conn net.Conn) *connWriter {
	w := &connWriter{
		s:    s,
		conn: conn,
		q:    make(chan reply, pipelineDepth),
		done: make(chan struct{}),
	}
	s.wg.Add(1)
	go w.run() //bolt:goroutine s.wg
	return w
}

// finish closes the queue and waits until every queued reply has been
// written (or discarded on a dead connection).
func (w *connWriter) finish() {
	close(w.q)
	<-w.done
}

// run writes queued replies to the wire in order. Writes here carry no
// per-call deadline; Shutdown bounds them by nudging every tracked
// connection with an expired deadline, which surfaces in the next
// Write and flips the writer into discard mode.
//
//bolt:deadline Shutdown
func (w *connWriter) run() {
	defer w.s.wg.Done()
	defer close(w.done)
	dead := false
	for r := range w.q {
		if r.observe {
			// Bookkeeping before the write, as the lockstep loop did:
			// the latency histogram covers decode + queueing + engine
			// time, and in-flight drops before the reply can provoke
			// the client's next request.
			c := w.s.stats.op(r.op)
			c.observe(time.Since(r.start))
			if r.status == StatusErr {
				c.errors.Add(1)
				w.s.stats.errors.Add(1)
			}
			w.s.stats.inFlight.Add(-1)
		}
		if !dead && writeFrame(w.conn, r.status, r.payload) != nil {
			// The client is gone. Replies already queued still drain
			// here so counters settle; the frames just have nowhere to
			// go. Closing the conn wakes the reader out of readFrame.
			dead = true
			w.conn.Close()
		}
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	w := s.newConnWriter(conn)
	defer func() {
		// Stop queueing, let every queued reply reach the wire, then
		// release the connection.
		w.finish()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		op, payload, err := readFrame(conn)
		if err != nil {
			var tooBig *FrameTooLargeError
			if errors.As(err, &tooBig) {
				// The frame boundary is known: reject, drain the payload
				// to stay in sync, and keep serving the connection.
				s.stats.requests.Add(1)
				s.stats.errors.Add(1)
				s.stats.op(op).errors.Add(1)
				w.q <- reply{op: op, status: StatusErr, payload: []byte(err.Error())}
				// The drain must be deadline-bounded: a client that
				// declares an oversized frame and then trickles bytes
				// (or goes silent) would otherwise park this handler
				// in CopyN forever — the one read on this connection
				// that Shutdown's expired-deadline nudge cannot reach
				// if it starts after the nudge.
				conn.SetReadDeadline(time.Now().Add(oversizeDrainTimeout))
				_, cerr := io.CopyN(io.Discard, conn, int64(tooBig.N))
				conn.SetReadDeadline(time.Time{})
				if cerr != nil {
					return
				}
				if s.draining() {
					// Clearing the deadline above may have erased the
					// shutdown nudge; re-check before parking in the
					// next readFrame.
					return
				}
				continue
			}
			if s.draining() {
				// Shutdown nudged this connection awake with an expired
				// read deadline; no request was in flight, so just close.
				return
			}
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				// Protocol violation: answer once if possible, then drop.
				s.stats.errors.Add(1)
				w.q <- reply{op: op, status: StatusErr, payload: []byte(err.Error())}
			}
			return
		}
		s.stats.requests.Add(1)
		s.stats.inFlight.Add(1)
		start := time.Now()
		status, out := s.serveRequest(op, payload)
		w.q <- reply{op: op, start: start, observe: true, status: status, payload: out}
		if s.draining() {
			// The request in flight when Shutdown began has its reply
			// queued; the deferred finish writes it before the
			// connection closes.
			return
		}
	}
}

// serveRequest dispatches one frame with per-connection panic
// isolation: a panic anywhere in decode or dispatch becomes a StatusErr
// reply and bumps the panic counter, and the connection loop keeps
// serving.
func (s *Server) serveRequest(op byte, payload []byte) (status byte, out []byte) {
	defer func() {
		if rec := recover(); rec != nil {
			s.stats.panics.Add(1)
			status, out = StatusErr, []byte(fmt.Sprintf("serve: request handler panicked: %v", rec))
		}
	}()
	if err := faults.Inject(faults.SiteServeConn); err != nil {
		return errReply(err)
	}
	return s.dispatch(op, payload)
}

func errReply(err error) (status byte, payload []byte) { return StatusErr, []byte(err.Error()) }

// dispatch serves one decoded frame and returns its reply. The latency
// histogram the writer records covers decode + queueing + engine time;
// the serviceNs inside successful responses remains the
// receipt-to-output clock of §4.5.
func (s *Server) dispatch(op byte, payload []byte) (status byte, out []byte) {
	// One pool snapshot per request: a concurrent reload never mixes
	// engine generations or feature counts within a request.
	p := s.pool.Load()
	//bolt:ops decode
	switch op {
	case OpPing:
		return StatusOK, nil
	case OpStats:
		return StatusOK, encodeStats(s.statsFor(p))
	case OpHealth:
		return StatusOK, encodeHealth(s.Healthz())
	case OpReload:
		if err := s.Reload(string(payload)); err != nil {
			return errReply(err)
		}
		return StatusOK, []byte(s.modelChecksum())
	case OpClassify:
		x, err := s.decodeInput(p, payload)
		if err != nil {
			return errReply(err)
		}
		// Service time: receipt to aggregation output (§4.5), network
		// excluded — the clock starts after the frame is fully read.
		var label int
		svc := time.Now()
		if err := s.withEngine(p, func(e Engine) { label = e.Predict(x) }); err != nil {
			return errReply(err)
		}
		return StatusOK, encodeClassifyResponse(label, uint64(time.Since(svc).Nanoseconds()))
	case OpValue:
		if _, ok := p.rep.(ValuePredictor); !ok {
			return StatusErr, []byte("serve: engine does not support regression")
		}
		x, err := s.decodeInput(p, payload)
		if err != nil {
			return errReply(err)
		}
		var value float32
		svc := time.Now()
		if err := s.withEngine(p, func(e Engine) { value = e.(ValuePredictor).PredictValue(x) }); err != nil {
			return errReply(err)
		}
		return StatusOK, encodeValueResponse(value, uint64(time.Since(svc).Nanoseconds()))
	case OpBatch:
		X, err := decodeBatchRequest(payload, p.numFeatures)
		if err != nil {
			return errReply(err)
		}
		svc := time.Now()
		labels, err := s.predictBatch(p, X)
		if err != nil {
			return errReply(err)
		}
		return StatusOK, encodeBatchResponse(labels, uint64(time.Since(svc).Nanoseconds()))
	case OpSalience:
		if _, ok := p.rep.(Explainer); !ok {
			return StatusErr, []byte("serve: engine does not support salience")
		}
		x, err := s.decodeInput(p, payload)
		if err != nil {
			return errReply(err)
		}
		var counts []int
		if err := s.withEngine(p, func(e Engine) { counts = e.(Explainer).Salience(x) }); err != nil {
			return errReply(err)
		}
		return StatusOK, encodeCounts(counts)
	default:
		return StatusErr, []byte(fmt.Sprintf("serve: unknown op %#x", op))
	}
}

// withEngine checks an engine out of the given pool generation, runs
// fn, and converts engine panics (a killed worker, a classification
// request sent to a regression engine) into protocol errors instead of
// killing the service. The engine is always returned to its own
// generation, panic or not.
func (s *Server) withEngine(p *enginePool, fn func(Engine)) (err error) {
	e := <-p.engines
	defer func() { p.engines <- e }()
	return s.runProtected(func() { fn(e) })
}

// runProtected runs fn with the server's engine fault injection and
// panic isolation: a panic anywhere inside becomes a protocol error
// and a bumped panic counter instead of a dead process.
func (s *Server) runProtected(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			err = fmt.Errorf("serve: engine rejected request: %v", r)
		}
	}()
	if err := faults.Inject(faults.SiteServeEngine); err != nil {
		return err
	}
	fn()
	return nil
}

// parallelBatchMinRows gates the whole-pool parallel-kernel takeover:
// below it, per-shard dispatch overhead is negligible and row-sharding
// (or a single serial kernel call) serves the batch without making
// concurrent single-sample requests wait behind an all-core kernel.
const parallelBatchMinRows = 256

// predictBatch classifies a batch. A batch of at least
// parallelBatchMinRows rows meeting a fully idle pool whose engines
// expose the multi-core kernel (ParallelBatchPredictor) is classified
// by one engine fanning out across every core; otherwise the rows are
// sharded across idle pool workers as before. Either way, engines over
// a tier-partitioned model run the staged kernel (see
// TieredBatchPredictor) and the tier outcome lands in the stats.
func (s *Server) predictBatch(p *enginePool, X [][]float32) ([]int, error) {
	tiered := false
	if tp, ok := p.rep.(TieredBatchPredictor); ok {
		tiered = tp.TierEnabled()
	}
	if pb, ok := p.rep.(ParallelBatchPredictor); ok &&
		len(X) >= parallelBatchMinRows && pb.ParallelKernelWorkers() > 1 {
		if labels, took, err := s.predictBatchParallel(p, X); took {
			return labels, err
		}
		s.stats.parallelFallbacks.Add(1)
	}
	labels := make([]int, len(X))
	shards := p.workers
	if shards > len(X) {
		shards = len(X)
	}
	if shards <= 1 {
		var answered uint64
		err := s.withEngine(p, func(e Engine) {
			answered = runBatch(e, X, labels)
		})
		if err == nil && tiered {
			s.stats.observeTier(answered, uint64(len(X)))
		}
		return labels, err
	}
	chunk := (len(X) + shards - 1) / shards
	errs := make([]error, shards)
	answered := make([]uint64, shards)
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		lo := sh * chunk
		if lo >= len(X) {
			// Ceil-divided chunks can leave trailing shards empty
			// (e.g. 5 rows over 4 workers); nothing left to assign.
			break
		}
		hi := lo + chunk
		if hi > len(X) {
			hi = len(X)
		}
		wg.Add(1)
		go func(sh, lo, hi int) { //bolt:goroutine wg
			defer wg.Done()
			errs[sh] = s.withEngine(p, func(e Engine) {
				answered[sh] = runBatch(e, X[lo:hi], labels[lo:hi])
			})
		}(sh, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if tiered {
		var total uint64
		for _, a := range answered {
			total += a
		}
		s.stats.observeTier(total, uint64(len(X)))
	}
	return labels, nil
}

// predictBatchParallel attempts the whole-pool takeover: it claims
// every engine of the generation without blocking — the parallel
// kernel is about to use every core, so nothing else should run — and
// classifies the batch with one ParallelBatchPredictor engine. If any
// engine is busy the claim is abandoned (took=false) and the caller
// falls back to row-sharding, counted in ParallelFallbacks; two
// concurrent batches can each grab part of the pool, both back off,
// and both shard — engines always return to the channel, so no
// request deadlocks.
func (s *Server) predictBatchParallel(p *enginePool, X [][]float32) (labels []int, took bool, err error) {
	taken := make([]Engine, 0, p.workers)
	defer func() {
		for _, e := range taken {
			p.engines <- e
		}
	}()
	for len(taken) < p.workers {
		select {
		case e := <-p.engines:
			taken = append(taken, e)
		default:
			return nil, false, nil
		}
	}
	var pb ParallelBatchPredictor
	for _, e := range taken {
		if c, ok := e.(ParallelBatchPredictor); ok {
			pb = c
			break
		}
	}
	if pb == nil {
		return nil, false, nil
	}
	labels = make([]int, len(X))
	s.stats.parallelBatches.Add(1)
	if tp, ok := pb.(TieredBatchPredictor); ok && tp.TierEnabled() {
		var answered uint64
		err = s.runProtected(func() { answered = tp.PredictBatchTieredParallelInto(X, labels) })
		if err != nil {
			return nil, true, err
		}
		s.stats.observeTier(answered, uint64(len(X)))
		return labels, true, nil
	}
	err = s.runProtected(func() { pb.PredictBatchParallelInto(X, labels) })
	if err != nil {
		return nil, true, err
	}
	return labels, true, nil
}

// runBatch classifies one shard on a checked-out engine, taking the
// engine's staged tiered kernel when its model carries a tier split,
// the plain batch kernel when it offers one, and falling back to
// row-at-a-time Predict otherwise. Returns how many samples the tier-0
// stage answered (0 on the untier'd paths). TestRunBatchZeroAlloc pins
// the steady-state allocation count at zero.
//
//bolt:hotpath
func runBatch(e Engine, X [][]float32, out []int) (tier0Answered uint64) {
	if tp, ok := e.(TieredBatchPredictor); ok && tp.TierEnabled() {
		return tp.PredictBatchTieredInto(X, out)
	}
	if bp, ok := e.(BatchPredictor); ok {
		bp.PredictBatchInto(X, out)
		return 0
	}
	for i, x := range X {
		out[i] = e.Predict(x)
	}
	return 0
}

func (s *Server) decodeInput(p *enginePool, payload []byte) ([]float32, error) {
	x, err := decodeFloats(payload)
	if err != nil {
		return nil, err
	}
	if len(x) != p.numFeatures {
		return nil, fmt.Errorf("serve: request has %d features, engine expects %d", len(x), p.numFeatures)
	}
	return x, nil
}

// shutdownForceGrace bounds how long a forced shutdown waits for
// handlers after closing their connections. A handler stuck inside an
// engine cannot be killed from the outside; after the grace it is
// abandoned (the process is exiting anyway).
const shutdownForceGrace = time.Second

// Shutdown gracefully stops the server: it stops accepting, marks the
// health state draining, lets requests already in flight finish, and
// closes idle connections. If ctx expires before the drain completes,
// remaining connections are closed forcibly and handlers that still do
// not exit (a worker wedged inside an engine) are abandoned after a
// short grace. Concurrent calls share one drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.health.Store(uint32(HealthDraining))
		s.lnErr = s.ln.Close()
		// Wake idle connections parked in readFrame: an expired read
		// deadline errors their next read without touching the
		// response write of any request still being served.
		now := time.Now()
		for conn := range s.conns {
			conn.SetReadDeadline(now)
		}
		go func() { //bolt:goroutine s.drained
			s.wg.Wait()
			close(s.drained)
		}()
	}
	err := s.lnErr
	s.mu.Unlock()

	select {
	case <-s.drained:
		return err
	case <-ctx.Done():
	}
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	select {
	case <-s.drained:
	case <-time.After(shutdownForceGrace):
	}
	return err
}

// Close stops the server immediately: open connections are closed
// without waiting for in-flight requests. Use Shutdown to drain.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return s.Shutdown(ctx)
}
