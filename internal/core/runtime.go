package core

import (
	"runtime"
	"sync"

	"bolt/internal/bitpack"
	"bolt/internal/faults"
	"bolt/internal/tree"
)

// Runtime is the persistent multi-core execution engine: a pool of
// worker goroutines created once per engine and reused across calls, so
// steady-state dispatch costs two synchronisations (one channel send
// per worker, one WaitGroup wait) and zero allocations — the real
// (non-modeled) counterpart of the paper's Fig. 13A core scaling.
//
// Each worker pins its own Scratch and vote accumulator for its whole
// lifetime, so no inference state is ever shared between cores: the
// dispatcher writes the task description, wakes the workers, and merges
// their private results once per call. Two parallel paths run on it:
//
//   - the parallel batch kernel (VotesBatchParallel /
//     PredictBatchParallelInto) shards the 64-sample column chunks of a
//     batch across workers, each running the cache-blocked serial
//     kernel (batch.go) over its shard;
//   - the partitioned single-sample engine (PartitionedEngine) runs its
//     d×t dictionary/table partition scans as one task per worker.
//
// A Runtime is bound to one Forest. Dispatches are serialised by an
// internal mutex: concurrent callers are safe and simply queue. Close
// releases the worker goroutines; a closed (or single-worker) runtime
// degrades every call to the serial path, so it is always safe to call
// into. Runtimes that become garbage are cleaned up by a finalizer, so
// a dropped engine generation (e.g. after a serving hot-reload) does
// not leak its goroutines.
type Runtime struct {
	*runtimeState
}

// runtimeState is the inner state shared with the worker goroutines.
// The split matters for cleanup: workers reference only runtimeState,
// so the outer Runtime handle can become unreachable (arming its
// finalizer) while the workers are still parked.
type runtimeState struct {
	bf *Forest

	workers []*rtWorker
	wg      sync.WaitGroup

	// mu serialises dispatches and guards the task fields below plus
	// closed. Workers read the task fields without locking: the channel
	// send that wakes them happens-after the fields are written, and
	// wg.Wait happens-after their last read.
	mu     sync.Mutex
	closed bool

	mode   uint8
	x      [][]float32 // batch modes: the input rows
	votes  []int64     // rtVotes: the caller's flattened vote matrix
	out    []int       // rtPredict/rtTiered: the caller's label buffer
	bits   []uint64    // rtPartition: the sample's evaluated predicate words
	margin int64       // rtTiered: the resolved escalation margin

	// tableParts is the backing PartitionedEngine's table partition
	// count — the one piece of engine state rtPartition workers need.
	// Deliberately not a *PartitionedEngine back-pointer: the engine
	// holds the only Runtime handle, so a reference from here would keep
	// the handle reachable from the parked workers and defeat the
	// finalizer that cleans up dropped engines.
	tableParts int
}

// Task modes.
const (
	rtVotes     = uint8(iota) // batch votes into private accumulators
	rtPredict                 // batch labels straight into rt.out
	rtPartition               // one sample across dictionary/table partitions
	rtTiered                  // staged batch labels with per-worker tier stats
)

// rtWorker is one pool worker. lo/hi and the accumulators are written
// by the dispatcher (under mu, before the wake send) and by the worker
// (between wake and Done); the two never overlap in time.
type rtWorker struct {
	wake chan struct{}
	s    *Scratch

	// votes is the worker-private accumulator. Batch shards accumulate
	// here and merge with one copy per call instead of writing the
	// shared output directly, so the repeated read-modify-write traffic
	// of the kernel inner loop never crosses a cache line owned by a
	// neighbouring worker's rows.
	votes []int64

	lo, hi int

	// part is the dictionary/table partition this worker owns when the
	// runtime backs a PartitionedEngine.
	part partWorker

	// ts accumulates the worker's tiered outcome counts for one rtTiered
	// task; the dispatcher zeroes it before the wake and sums after.
	ts TierStats

	// panicked carries a recovered task panic back to the dispatcher,
	// which re-panics on the caller's goroutine so serving layers keep
	// their panic-isolation behaviour.
	panicked any
}

// maxRuntimeWorkers bounds the pool size against absurd requests; real
// callers want the core count.
const maxRuntimeWorkers = 256

// NewRuntime builds a persistent worker pool over bf. workers < 1
// defaults to GOMAXPROCS, the core budget the Go scheduler actually
// has; the count is clamped to [1, 256].
func NewRuntime(bf *Forest, workers int) *Runtime {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > maxRuntimeWorkers {
		workers = maxRuntimeWorkers
	}
	st := &runtimeState{bf: bf}
	st.workers = make([]*rtWorker, workers)
	for i := range st.workers {
		w := &rtWorker{
			// Buffered wake: the dispatcher only signals parked workers
			// (it waits for every task before the next dispatch), so a
			// one-slot buffer makes the send non-blocking.
			wake:  make(chan struct{}, 1),
			s:     bf.NewScratch(),
			votes: make([]int64, bf.VoteWidth()),
		}
		st.workers[i] = w
		go st.workerLoop(w) //bolt:goroutine w.wake
	}
	rt := &Runtime{st}
	runtime.SetFinalizer(rt, (*Runtime).Close)
	return rt
}

// Workers returns the pool size.
func (rt *Runtime) Workers() int { return len(rt.workers) }

// Close releases the worker goroutines. Subsequent calls through the
// runtime fall back to the serial kernels; Close is idempotent and safe
// to call concurrently with dispatches (it takes the dispatch lock).
func (rt *Runtime) Close() {
	runtime.SetFinalizer(rt, nil)
	rt.runtimeState.close()
}

func (st *runtimeState) close() {
	st.mu.Lock()
	if !st.closed {
		st.closed = true
		for _, w := range st.workers {
			close(w.wake)
		}
	}
	st.mu.Unlock()
}

// workerLoop parks on the wake channel and runs one task per signal.
// It is the cold side of the pool — the hot per-task kernels live in
// the run*Shard functions it calls.
func (st *runtimeState) workerLoop(w *rtWorker) {
	for range w.wake {
		st.runTask(w)
	}
}

// runTask executes the current task on w, capturing panics so a
// contract violation (or an injected fault) inside a worker surfaces
// on the dispatching goroutine instead of killing the process.
func (st *runtimeState) runTask(w *rtWorker) {
	defer func() {
		if r := recover(); r != nil {
			w.panicked = r
		}
		st.wg.Done()
	}()
	// Fault site for resilience tests: arming it with a panic rule kills
	// every active worker in one task, exercising the dispatcher's
	// all-worker panic sweep. Disarmed it is one atomic load.
	if err := faults.Inject(faults.SiteCoreRuntimeTask); err != nil {
		panic(err)
	}
	switch st.mode {
	case rtVotes:
		w.runVotesShard(st)
	case rtPredict:
		w.runPredictShard(st)
	case rtPartition:
		w.runPartitionShard(st)
	case rtTiered:
		w.runTieredShard(st)
	}
}

// dispatch wakes the first active workers and blocks until all have
// finished, then re-raises any captured worker panic. Steady state it
// allocates nothing: the task description lives in reused fields.
//
// The panic sweep clears every worker's flag before re-raising the
// first capture: several workers can panic in one task (a fault hit by
// every shard), and a flag left set would be spuriously re-raised on
// the next, unrelated dispatch.
func (st *runtimeState) dispatch(active int) {
	st.wg.Add(active)
	for i := 0; i < active; i++ {
		st.workers[i].wake <- struct{}{}
	}
	st.wg.Wait()
	var first any
	for i := 0; i < active; i++ {
		if r := st.workers[i].panicked; r != nil {
			st.workers[i].panicked = nil
			if first == nil {
				first = r
			}
		}
	}
	if first != nil {
		panic(first)
	}
}

// shard assigns contiguous runs of 64-sample chunks to workers and
// returns how many workers got a non-empty shard. Boundaries land on
// multiples of 64 so no 64-row column chunk is split between cores;
// the last shard absorbs the tail.
func (st *runtimeState) shard(n int) int {
	chunks := (n + 63) / 64
	active := len(st.workers)
	if chunks < active {
		active = chunks
	}
	if active < 1 {
		active = 1
	}
	lo := 0
	for i := 0; i < active; i++ {
		hi := (i + 1) * chunks / active * 64
		if hi > n {
			hi = n
		}
		w := st.workers[i]
		w.lo, w.hi = lo, hi
		lo = hi
	}
	return active
}

// growShardVotes sizes each active worker's private accumulator for its
// shard. Cold: runs before the dispatch, outside the hot kernels, and
// only ever grows, so steady state allocates nothing.
func (st *runtimeState) growShardVotes(active, vw int) {
	for i := 0; i < active; i++ {
		w := st.workers[i]
		if need := (w.hi - w.lo) * vw; len(w.votes) < need {
			w.votes = make([]int64, need)
		}
	}
}

// validateBatchRows rejects ragged inputs before the work is sharded,
// so shape violations panic on the calling goroutine exactly like the
// serial kernel instead of inside a worker.
func (bf *Forest) validateBatchRows(X [][]float32) {
	for i, x := range X {
		if len(x) != bf.NumFeatures {
			panicRowFeatures(i, len(x), bf.NumFeatures)
		}
	}
}

func panicRuntimeForest() {
	panic("core: runtime is bound to a different forest")
}

// VotesBatchParallel runs the cache-blocked batch kernel for every row
// of X across the runtime's workers, accumulating into votes — the
// same flattened len(X)×VoteWidth matrix VotesBatch fills, bit-exact
// with it (CheckSafety and FuzzVotesBatchParallel enforce this) and
// allocation-free once the worker scratches have grown. Each worker
// runs the serial kernel over its own run of 64-sample chunks into a
// private accumulator; the shards are disjoint, so the merge is one
// copy per worker. With a nil, closed or single-worker runtime — or a
// batch of at most one chunk — it degrades to the serial kernel on
// worker 0's scratch.
func (bf *Forest) VotesBatchParallel(X [][]float32, rt *Runtime, votes []int64) {
	vw := bf.VoteWidth()
	if len(votes) != len(X)*vw {
		panicBatchVotesLen(len(votes), len(X), vw)
	}
	if rt == nil {
		s := bf.NewScratch()
		bf.VotesBatch(X, s, votes)
		return
	}
	st := rt.runtimeState
	if st.bf != bf {
		panicRuntimeForest()
	}
	bf.validateBatchRows(X)
	st.mu.Lock()
	defer st.mu.Unlock()
	active := 0
	if !st.closed {
		active = st.shard(len(X))
	}
	if active <= 1 {
		bf.VotesBatch(X, st.workers[0].s, votes)
		runtime.KeepAlive(rt)
		return
	}
	st.growShardVotes(active, vw)
	st.mode, st.x, st.votes = rtVotes, X, votes
	// Deferred so a re-raised worker panic cannot leave the caller's
	// batch pinned on the runtime.
	defer func() { st.x, st.votes = nil, nil }()
	st.dispatch(active)
	runtime.KeepAlive(rt)
}

// runVotesShard is one worker's slice of VotesBatchParallel: the serial
// cache-blocked kernel over rows [lo, hi) into the private accumulator,
// then one merge copy into the caller's disjoint vote rows.
//
//bolt:hotpath
func (w *rtWorker) runVotesShard(st *runtimeState) {
	bf := st.bf
	vw := bf.VoteWidth()
	n := w.hi - w.lo
	if n <= 0 {
		return
	}
	acc := w.votes[:n*vw]
	bf.VotesBatch(st.x[w.lo:w.hi], w.s, acc)
	copy(st.votes[w.lo*vw:w.hi*vw], acc)
}

// PredictBatchParallelInto classifies every row of X into out (length
// len(X)) across the runtime's workers, each running the serial
// cache-blocked PredictBatchInto over its shard. Labels are written
// once per sample straight into the caller's disjoint out regions (the
// repeated accumulation traffic stays in each worker's private scratch
// accumulators). Falls back to the serial kernel exactly like
// VotesBatchParallel.
func (bf *Forest) PredictBatchParallelInto(X [][]float32, rt *Runtime, out []int) {
	if len(out) != len(X) {
		panicBufLen("out", len(out), len(X))
	}
	if rt == nil {
		s := bf.NewScratch()
		bf.PredictBatchInto(X, s, out)
		return
	}
	st := rt.runtimeState
	if st.bf != bf {
		panicRuntimeForest()
	}
	if bf.Kind == tree.Regression {
		panic("core: PredictBatchParallelInto on a regression forest (use VotesBatchParallel)")
	}
	bf.validateBatchRows(X)
	st.mu.Lock()
	defer st.mu.Unlock()
	active := 0
	if !st.closed {
		active = st.shard(len(X))
	}
	if active <= 1 {
		bf.PredictBatchInto(X, st.workers[0].s, out)
		runtime.KeepAlive(rt)
		return
	}
	st.mode, st.x, st.out = rtPredict, X, out
	// Deferred so a re-raised worker panic cannot leave the caller's
	// batch pinned on the runtime.
	defer func() { st.x, st.out = nil, nil }()
	st.dispatch(active)
	runtime.KeepAlive(rt)
}

// runPredictShard is one worker's slice of PredictBatchParallelInto.
//
//bolt:hotpath
func (w *rtWorker) runPredictShard(st *runtimeState) {
	if w.hi <= w.lo {
		return
	}
	st.bf.PredictBatchInto(st.x[w.lo:w.hi], w.s, st.out[w.lo:w.hi])
}

// PredictBatchTieredParallelInto is the staged kernel across the
// runtime's workers: each shard runs the full serial tiered pipeline
// (tier-0 scan, margin test, survivor compaction, tier-1 resume) over
// its own 64-aligned run of samples, so tier 0 is parallel and each
// shard's survivor set is compacted and re-scanned within the owning
// worker — shards stay disjoint, no survivor crosses cores. Per-worker
// TierStats are zeroed before dispatch and summed into ts (may be nil)
// after. Exact mode (margin < 0) produces labels identical to
// PredictBatchParallelInto. Falls back to the serial tiered kernel
// exactly like the other parallel entry points.
func (bf *Forest) PredictBatchTieredParallelInto(X [][]float32, rt *Runtime, margin int64, out []int, ts *TierStats) {
	if len(out) != len(X) {
		panicBufLen("out", len(out), len(X))
	}
	var local TierStats
	if ts == nil {
		ts = &local
	}
	if rt == nil {
		s := bf.NewScratch()
		bf.PredictBatchTieredInto(X, s, margin, out, ts)
		return
	}
	st := rt.runtimeState
	if st.bf != bf {
		panicRuntimeForest()
	}
	if bf.Kind == tree.Regression {
		panic("core: PredictBatchTieredParallelInto on a regression forest (use VotesBatchParallel)")
	}
	bf.validateBatchRows(X)
	st.mu.Lock()
	defer st.mu.Unlock()
	active := 0
	if !st.closed {
		active = st.shard(len(X))
	}
	if active <= 1 {
		bf.PredictBatchTieredInto(X, st.workers[0].s, margin, out, ts)
		runtime.KeepAlive(rt)
		return
	}
	for i := 0; i < active; i++ {
		st.workers[i].ts = TierStats{}
	}
	st.mode, st.x, st.out, st.margin = rtTiered, X, out, margin
	// Deferred so a re-raised worker panic cannot leave the caller's
	// batch pinned on the runtime.
	defer func() { st.x, st.out = nil, nil }()
	st.dispatch(active)
	for i := 0; i < active; i++ {
		ts.Tier0Answered += st.workers[i].ts.Tier0Answered
		ts.Escalated += st.workers[i].ts.Escalated
	}
	runtime.KeepAlive(rt)
}

// runTieredShard is one worker's slice of PredictBatchTieredParallelInto.
//
//bolt:hotpath
func (w *rtWorker) runTieredShard(st *runtimeState) {
	if w.hi <= w.lo {
		return
	}
	st.bf.PredictBatchTieredInto(st.x[w.lo:w.hi], w.s, st.margin, st.out[w.lo:w.hi], &w.ts)
}

// runPartitionShard is one worker's slice of PartitionedEngine.Votes:
// scan the owned dictionary partition over the shared predicate words,
// performing only the lookups the worker's table partition owns
// (§4.5), into the private accumulator. The dispatcher sums the
// accumulators once per sample.
//
//bolt:hotpath
func (w *rtWorker) runPartitionShard(st *runtimeState) {
	bf := st.bf
	words := st.bits
	votes := w.votes[:bf.VoteWidth()]
	for i := range votes {
		votes[i] = 0
	}
	fd := bf.Flat
	table, filter := bf.Table, bf.Filter
	tp, slots := uint64(st.tableParts), uint64(table.NumSlots())
	for i := w.part.dictLo; i < w.part.dictHi; i++ {
		mask, vals := fd.MaskVals(i)
		if !bitpack.MatchesMasked(words, mask, vals) {
			continue
		}
		addr := uint64(0)
		for bi, pred := range fd.Uncommon(i) {
			bit := (words[pred>>6] >> uint(pred&63)) & 1
			addr |= bit << uint(bi)
		}
		id := fd.ID(i)
		key := Key(id, addr)
		if int(table.h1(key)*tp/slots) != w.part.tablePart {
			continue // another core owns this lookup (§4.5)
		}
		if filter != nil && !filter.Contains(key) {
			continue
		}
		if ri, ok := table.Lookup(id, addr); ok {
			for c, v := range table.Votes(ri) {
				votes[c] += v
			}
		}
	}
}

// partitionVotes dispatches one sample's partition scans and merges the
// per-worker accumulators into votes. Caller holds st.mu and has
// evaluated the predicate words into st.bits.
func (st *runtimeState) partitionVotes(votes []int64) {
	st.mode = rtPartition
	st.dispatch(len(st.workers))
	st.mergePartitionVotes(votes)
}

// mergePartitionVotes sums the per-worker partition accumulators into
// votes; partition shards overlap in class space (unlike batch shards),
// so the merge is an addition, not a copy.
func (st *runtimeState) mergePartitionVotes(votes []int64) {
	for i := range votes {
		votes[i] = 0
	}
	for _, w := range st.workers {
		acc := w.votes[:len(votes)]
		for c, v := range acc {
			votes[c] += v
		}
	}
}
