package bolt

import (
	"runtime"
	"time"

	"bolt/internal/core"
	"bolt/internal/perfsim"
	"bolt/internal/router"
	"bolt/internal/serve"
	"bolt/internal/tuning"
)

// HardwareProfile describes a target machine for model-based tuning and
// capacity planning (§4.6): LLC capacity, core count, clock, and memory
// latencies.
type HardwareProfile = perfsim.Profile

// The three machines of the paper's evaluation (§6.2).
var (
	// ProfileXeonE52650 is the default server (12 cores, 30 MB LLC).
	ProfileXeonE52650 = perfsim.XeonE52650
	// ProfileECSmall is the e2-standard-4 cloud instance.
	ProfileECSmall = perfsim.ECSmall
	// ProfileECLarge is the e2-standard-32 cloud instance.
	ProfileECLarge = perfsim.ECLarge
)

// BatchBlockForProfile sizes the batch kernel's block for a target
// machine: each serving worker gets an even share of the profile's LLC,
// part of that share is reserved for the scan-resident structures of
// the forest's ACTIVE layout (flat or §5 compact — a compressed
// dictionary leaves more room, so blocks grow), and the block is chosen
// so the predicate column block and the vote accumulators stay
// resident in the remainder (the budget still counts a row bitset per
// sample, which only the tiered kernel holds). Apply the result with a Predictor's
// scratch via core's SetBatchBlock, or just rely on the built-in
// default, which targets common per-core L2 sizes.
func BatchBlockForProfile(bf *CompiledForest, prof HardwareProfile) int {
	cores := prof.Cores
	if cores < 1 {
		cores = 1
	}
	return core.BatchBlockForLayout(prof.LLCBytes/cores, bf.ScanBytes(), bf.Flat.Words(), bf.VoteWidth())
}

// Server is a classification service on a UNIX domain socket (the
// paper's front-end/engine split, §4.5 and §6).
type Server = serve.Server

// ServiceClient is a synchronous front-end connection.
type ServiceClient = serve.Client

// RetryPolicy configures ServiceClient's automatic retry of idempotent
// requests (reconnect + exponential backoff with jitter).
type RetryPolicy = serve.RetryPolicy

// ServiceHealth is a server readiness snapshot (state, workers, reload
// count, model checksum) fetched with ServiceClient.Health.
type ServiceHealth = serve.Health

// ReloadFunc rebuilds serving artifacts from a model path for
// Server.Reload / the OpReload admin op / SIGHUP in bolt-serve.
type ReloadFunc = serve.ReloadFunc

// Health states reported by ServiceHealth.State.
const (
	HealthLoading  = serve.HealthLoading
	HealthReady    = serve.HealthReady
	HealthDraining = serve.HealthDraining
)

// HealthStateName renders a health state byte for humans.
func HealthStateName(s byte) string { return serve.HealthStateName(s) }

// LatencyStats summarises service-time observations.
type LatencyStats = serve.LatencyStats

// ServerStats is a snapshot of a server's request counters and per-op
// latency histograms, fetched with ServiceClient.Stats.
type ServerStats = serve.ServerStats

// OpStat is one op's counters in a ServerStats snapshot.
type OpStat = serve.OpStat

// Model-layout bytes reported in ServerStats.Layout (wire values,
// distinct from the Layout* name strings in Footprint.Layout).
const (
	StatsLayoutUnknown = serve.LayoutUnknown
	StatsLayoutFlat    = serve.LayoutFlat
	StatsLayoutCompact = serve.LayoutCompact
)

// StatsLayoutName renders a ServerStats.Layout byte for humans.
func StatsLayoutName(l byte) string { return serve.LayoutName(l) }

// CoalesceConfig configured the request coalescer, which no longer
// exists.
//
// Deprecated: Server.SetCoalescing ignores it.
type CoalesceConfig = serve.CoalesceConfig

// The former coalescing defaults, kept at their old values.
//
// Deprecated: nothing reads them.
const (
	DefaultCoalesceHold    = 250 * time.Microsecond
	DefaultCoalesceMaxRows = 256
)

// Engine is the pluggable inference backend accepted by Serve.
type Engine = serve.Engine

// EngineFactory builds one Engine per pool worker for ServePool.
type EngineFactory = serve.EngineFactory

// Serve starts a classification service for a single engine on the
// given UNIX socket path, serialising every inference — the safe mode
// for engines that are not concurrency-safe (baselines sharing scratch
// buffers). Close the returned server to shut down.
func Serve(socketPath string, engine Engine, numFeatures int) (*Server, error) {
	return serve.NewServer(socketPath, engine, numFeatures)
}

// ServePool starts a classification service backed by a bounded pool
// of `workers` engines, one per factory call; independent connections
// run inference concurrently and batches are sharded across idle
// workers. workers < 1 defaults to GOMAXPROCS.
func ServePool(socketPath string, factory EngineFactory, numFeatures, workers int) (*Server, error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	return serve.NewPool(socketPath, factory, numFeatures, workers)
}

// ForestEngineFactory returns an EngineFactory producing one Predictor
// per pool worker over a shared compiled forest — the factory shape
// Server.Reload swaps in on a hot model reload. The predictors share
// one parallel-kernel Runtime sized to GOMAXPROCS, so a large OpBatch
// meeting an idle pool runs the multi-core batch kernel (see
// ParallelForestEngineFactory for explicit sizing).
func ForestEngineFactory(bf *CompiledForest) EngineFactory {
	return ParallelForestEngineFactory(bf, 0)
}

// ParallelForestEngineFactory is ForestEngineFactory with an explicit
// parallel-kernel worker count: every predictor the factory builds
// shares one Runtime of kernelWorkers workers (< 1 = GOMAXPROCS, the
// default). The runtime's dispatch lock serialises whole-batch
// parallel calls; per-request row paths never touch it. Its goroutines
// are released when the engine generation is garbage-collected (e.g.
// after a hot reload swaps in a fresh factory).
func ParallelForestEngineFactory(bf *CompiledForest, kernelWorkers int) EngineFactory {
	rt := NewRuntime(bf, kernelWorkers)
	return func() Engine { return &predictorEngine{p: NewPredictorWithRuntime(bf, rt)} }
}

// TieredForestEngineFactory is ParallelForestEngineFactory with an
// explicit tier escalation policy: every predictor the factory builds
// applies tier with SetTier, overriding the model's stored policy.
// Use it when bolt-serve's -tier-margin flag (or an embedder) pins a
// calibrated threshold; factories built by ForestEngineFactory /
// ParallelForestEngineFactory already serve tiered models with the
// policy stored on the artifact.
func TieredForestEngineFactory(bf *CompiledForest, kernelWorkers int, tier TierConfig) EngineFactory {
	rt := NewRuntime(bf, kernelWorkers)
	return func() Engine {
		p := NewPredictorWithRuntime(bf, rt)
		p.SetTier(tier)
		return &predictorEngine{p: p}
	}
}

// ServeForest starts a service over a compiled Bolt forest with a pool
// of `workers` predictors, each owning its scratch buffers (the
// compiled forest itself is immutable and shared). workers < 1
// defaults to GOMAXPROCS.
func ServeForest(socketPath string, bf *CompiledForest, workers int) (*Server, error) {
	return ServePool(socketPath, ForestEngineFactory(bf), bf.NumFeatures, workers)
}

// predictorEngine adapts Predictor to serve.Engine, serve.Explainer
// and serve.ValuePredictor. Each pool worker gets its own Predictor —
// and with it private scratch — so workers never race; kind-mismatched
// requests surface as protocol errors (the server converts the
// engine's panic).
type predictorEngine struct{ p *Predictor }

func (e *predictorEngine) Predict(x []float32) int          { return e.p.Predict(x) }
func (e *predictorEngine) Salience(x []float32) []int       { return e.p.Salience(x) }
func (e *predictorEngine) PredictValue(x []float32) float32 { return e.p.PredictValue(x) }

// PredictBatchInto satisfies serve.BatchPredictor, so OpBatch shards
// run the cache-blocked batch kernel instead of row-at-a-time Predict.
func (e *predictorEngine) PredictBatchInto(X [][]float32, out []int) {
	e.p.PredictBatchInto(X, out)
}

// PredictBatchParallelInto and ParallelKernelWorkers satisfy
// serve.ParallelBatchPredictor: a large OpBatch arriving at an idle
// pool runs the multi-core parallel kernel on one engine instead of
// row-sharding across pool workers.
func (e *predictorEngine) PredictBatchParallelInto(X [][]float32, out []int) {
	e.p.PredictBatchParallelInto(X, out)
}

func (e *predictorEngine) ParallelKernelWorkers() int { return e.p.ParallelWorkers() }

// TierEnabled, PredictBatchTieredInto and PredictBatchTieredParallelInto
// satisfy serve.TieredBatchPredictor: batches against a tier-partitioned
// model run the staged kernel — tier-0 prefix first, escalation only for
// samples whose margin fails the predictor's tier policy — and the server
// aggregates the returned tier-0 answer counts into its stats.
func (e *predictorEngine) TierEnabled() bool { return e.p.Tiered() }

func (e *predictorEngine) PredictBatchTieredInto(X [][]float32, out []int) uint64 {
	var ts TierStats
	e.p.PredictBatchTieredInto(X, out, &ts)
	return uint64(ts.Tier0Answered)
}

func (e *predictorEngine) PredictBatchTieredParallelInto(X [][]float32, out []int) uint64 {
	var ts TierStats
	e.p.PredictBatchTieredParallelInto(X, out, &ts)
	return uint64(ts.Tier0Answered)
}

// ModelFootprint satisfies serve.FootprintReporter: OpStats snapshots
// report the resident bytes of the forest's active memory layout.
func (e *predictorEngine) ModelFootprint() (dictBytes, tableBytes uint64, layout byte) {
	fp := e.p.bf.Footprint()
	l := serve.LayoutFlat
	if fp.Layout == core.LayoutCompact {
		l = serve.LayoutCompact
	}
	return uint64(fp.ActiveDictBytes()), uint64(fp.ActiveTableBytes()), l
}

// DialService connects to a running classification service.
func DialService(socketPath string) (*ServiceClient, error) { return serve.Dial(socketPath) }

// DialServiceTimeout connects like DialService and bounds the dial and
// every request round trip by timeout, so a hung server cannot block a
// client forever.
func DialServiceTimeout(socketPath string, timeout time.Duration) (*ServiceClient, error) {
	return serve.DialTimeout(socketPath, timeout)
}

// SummarizeLatencies computes latency statistics from nanosecond
// samples.
func SummarizeLatencies(ns []uint64) LatencyStats { return serve.Summarize(ns) }

// Router is the fault-tolerant replicated-serving front-end: it speaks
// the same wire protocol a Server does, so ServiceClient and
// DialService work against it unchanged, and fans requests out across
// N backends with health-driven membership, failover for idempotent
// ops, a circuit breaker per backend, and admission control that sheds
// with StatusOverloaded when the tier saturates. Stop it with
// Shutdown(ctx) (drain, mirroring Server) or Close (immediate).
type Router = router.Router

// RouterConfig tunes a Router; zero fields select documented defaults
// and Backends is the only required field.
type RouterConfig = router.Config

// RouterSection is the router-level extension of a ServerStats
// snapshot (shed/retry totals plus per-backend counters); nil on
// snapshots from a plain Server.
type RouterSection = serve.RouterSection

// BackendStat is one replica's counters inside a RouterSection.
type BackendStat = serve.BackendStat

// Backend membership states in a BackendStat.
const (
	BackendUp       = serve.BackendUp
	BackendDraining = serve.BackendDraining
	BackendDown     = serve.BackendDown
)

// BackendStateName renders a backend membership state for humans.
func BackendStateName(s byte) string { return serve.BackendStateName(s) }

// NewRouter starts a Router listening on listen ("unix:/path",
// "tcp:host:port", or the bare forms) in front of cfg.Backends.
func NewRouter(listen string, cfg RouterConfig) (*Router, error) {
	return router.New(listen, cfg)
}

// ParseRouterAddr splits a router listen or backend address into its
// (network, addr) pair: explicit "unix:"/"tcp:" prefixes win, a bare
// path containing '/' is a unix socket, anything else is TCP.
func ParseRouterAddr(s string) (network, addr string, err error) {
	return router.ParseAddr(s)
}

// TuneConfig controls the Phase 2 parameter search.
type TuneConfig = tuning.Config

// TuneCandidate is one point in the Phase 2 search space.
type TuneCandidate = tuning.Candidate

// TuneResult scores one candidate; the winner carries its compiled
// forest.
type TuneResult = tuning.Result

// Tuning modes.
const (
	// TuneEmpirical times the real engine on sample inputs.
	TuneEmpirical = tuning.Empirical
	// TuneModelBased scores candidates with the analytic hardware model
	// (capacity planning, §4.6).
	TuneModelBased = tuning.ModelBased
)

// Tune runs the Phase 2 grid search and returns the best configuration
// plus every scored candidate.
func Tune(f *Forest, cfg TuneConfig) (TuneResult, []TuneResult, error) {
	return tuning.Search(f, cfg)
}

// TuneRefine scores small deviations around a known-good configuration.
func TuneRefine(f *Forest, base TuneCandidate, cfg TuneConfig) (TuneResult, []TuneResult, error) {
	return tuning.Refine(f, base, cfg)
}
