package bolt

import (
	"io"

	"bolt/internal/core"
	"bolt/internal/dataset"
	"bolt/internal/forest"
	"bolt/internal/tree"
)

// Dataset is a dense labelled sample matrix; see the dataset generators
// SyntheticMNIST, SyntheticLSTW, SyntheticYelp and SyntheticBlobs.
type Dataset = dataset.Dataset

// TreeConfig controls CART training of individual trees.
type TreeConfig = tree.Config

// Tree is a trained decision tree.
type Tree = tree.Tree

// Criterion selects the split impurity measure (Gini or Entropy).
type Criterion = tree.Criterion

// Impurity criteria.
const (
	Gini    = tree.Gini
	Entropy = tree.Entropy
)

// TreeKind distinguishes classification from regression models.
type TreeKind = tree.Kind

// Model kinds.
const (
	ClassificationKind = tree.Classification
	RegressionKind     = tree.Regression
)

// ForestConfig controls random-forest training.
type ForestConfig = forest.Config

// Forest is a trained (optionally weighted) ensemble.
type Forest = forest.Forest

// DeepConfig controls deep-forest cascade training.
type DeepConfig = forest.DeepConfig

// DeepForest is a gcForest-style cascade.
type DeepForest = forest.DeepForest

// Options configures compilation of a forest into a Bolt forest.
type Options = core.Options

// CompiledForest is an inference-ready Bolt forest: dictionary, the
// recombined lookup table and the bloom filter.
type CompiledForest = core.Forest

// CompiledDeepForest is an inference-ready Bolt cascade.
type CompiledDeepForest = core.DeepBolt

// Stats summarises a compiled forest's structures.
type Stats = core.Stats

// Footprint reports a compiled forest's memory layouts: flat and §5
// compact byte sizes for the dictionary, lookup-table slots and result
// store, plus which layout the scan paths actually use. Obtain one
// with CompiledForest.Footprint().
type Footprint = core.Footprint

// Memory-layout names reported in Footprint.Layout.
const (
	// LayoutFlat is the uncompressed layout: 16 B mask/value pairs,
	// 32-bit split pairs, 24 B table slots, full int64 vote vectors.
	LayoutFlat = core.LayoutFlat
	// LayoutCompact is the §5 compressed layout: bit-sized masks,
	// bit-packed split pairs, narrow IDs/tags and knee-point results.
	LayoutCompact = core.LayoutCompact
)

// PartitionedEngine parallelises one sample across cores by splitting
// the dictionary and lookup table (Fig. 4 of the paper).
type PartitionedEngine = core.PartitionedEngine

// Runtime is a persistent multi-core worker pool bound to one compiled
// forest: created once, reused across calls, zero steady-state
// dispatch allocation. It powers the parallel batch kernel
// (Predictor.PredictBatchParallelInto / VotesBatchParallel) and can be
// shared by several Predictors (e.g. one per serving pool worker).
type Runtime = core.Runtime

// TierStats counts staged-kernel outcomes: how many samples the tier-0
// prefix answered and how many escalated to the full ensemble. The
// tiered batch methods accumulate into it across calls.
type TierStats = core.TierStats

// TierConfig selects the escalation policy for a Predictor's tiered
// batch methods. Margin is the vote-lead threshold: a sample whose
// tier-0 leading class beats the runner-up by more than Margin is
// answered without scanning the remaining trees. A negative Margin
// selects exact mode — the threshold becomes the total weight of the
// tier-1 trees (CompiledForest.ExactTierMargin), the one bound that
// provably cannot flip the argmax, so predictions stay bit-identical
// to the monolithic kernel. A Margin in [0, ExactTierMargin) trades a
// bounded accuracy loss for a higher tier-0 answer rate; fit one with
// CalibrateTier.
type TierConfig struct {
	Margin int64
}

// CalibrateTier fits a calibrated escalation margin on a holdout set:
// the largest threshold whose label divergence from the monolithic
// kernel stays within maxLoss (a fraction of len(X)). Store the result
// on the model with CompiledForest.SetTierMargin before encoding, or
// apply it per predictor with SetTier.
func CalibrateTier(bf *CompiledForest, X [][]float32, maxLoss float64) (int64, error) {
	return core.CalibrateTier(bf, X, maxLoss)
}

// Train fits a random forest on d by bootstrap aggregation.
func Train(d *Dataset, cfg ForestConfig) *Forest { return forest.Train(d, cfg) }

// TrainBoosted fits a weighted ensemble with multi-class AdaBoost
// (SAMME); Bolt carries the tree weights onto paths unchanged.
func TrainBoosted(d *Dataset, cfg ForestConfig) *Forest { return forest.TrainBoosted(d, cfg) }

// TrainWithOOB trains like Train and also returns the out-of-bag
// accuracy estimate.
func TrainWithOOB(d *Dataset, cfg ForestConfig) (*Forest, float64) {
	return forest.TrainWithOOB(d, cfg)
}

// GBTConfig controls gradient-boosted regression training.
type GBTConfig = forest.GBTConfig

// TrainRegressionForest fits a bagged regression forest (variance
// splits, mean aggregation) on a regression dataset.
func TrainRegressionForest(d *Dataset, cfg ForestConfig) *Forest {
	return forest.TrainRegressionForest(d, cfg)
}

// TrainGBT fits a least-squares gradient-boosted regression ensemble;
// Bolt compiles it with the stage weights carried onto every path (§5).
func TrainGBT(d *Dataset, cfg GBTConfig) *Forest { return forest.TrainGBT(d, cfg) }

// TrainDeep fits a deep-forest cascade.
func TrainDeep(d *Dataset, cfg DeepConfig) *DeepForest { return forest.TrainDeep(d, cfg) }

// Compile transforms a trained forest into a Bolt forest (Phases 1 and
// 3 of the paper; see Tune for Phase 2).
func Compile(f *Forest, opts Options) (*CompiledForest, error) { return core.Compile(f, opts) }

// CompileDeep compiles every member forest of a cascade.
func CompileDeep(df *DeepForest, opts Options) (*CompiledDeepForest, error) {
	return core.CompileDeep(df, opts)
}

// NewPartitioned builds a d×t-core partitioned engine over a compiled
// forest.
func NewPartitioned(bf *CompiledForest, dictParts, tableParts int) (*PartitionedEngine, error) {
	return core.NewPartitioned(bf, dictParts, tableParts)
}

// NewRuntime builds a persistent worker pool over a compiled forest.
// workers < 1 defaults to GOMAXPROCS. The pool's goroutines are
// released when the Runtime is garbage-collected, or eagerly via
// Runtime.Close.
func NewRuntime(bf *CompiledForest, workers int) *Runtime {
	return core.NewRuntime(bf, workers)
}

// Predictor bundles a compiled forest with its reusable scratch
// buffers. It is not safe for concurrent use; create one per goroutine
// with NewPredictor. A predictor built by NewParallelPredictor or
// NewPredictorWithRuntime additionally carries a multi-core Runtime
// for the parallel batch methods (the runtime itself serialises
// concurrent dispatches, so several predictors may share one).
type Predictor struct {
	bf *core.Forest
	s  *core.Scratch
	rt *core.Runtime
	// tierMargin is the escalation threshold the tiered batch methods
	// use; initialised from the model's stored policy (a calibrated
	// threshold if one was serialized, exact mode otherwise) and
	// overridden with SetTier.
	tierMargin int64
}

// NewPredictor returns a single-goroutine predictor over bf.
func NewPredictor(bf *CompiledForest) *Predictor {
	return &Predictor{bf: bf, s: bf.NewScratch(), tierMargin: bf.TierMargin}
}

// NewParallelPredictor returns a predictor whose batch methods can
// fan out across a private worker pool of the given size (workers < 1
// defaults to GOMAXPROCS).
func NewParallelPredictor(bf *CompiledForest, workers int) *Predictor {
	return NewPredictorWithRuntime(bf, core.NewRuntime(bf, workers))
}

// NewPredictorWithRuntime returns a predictor that dispatches its
// parallel batch methods onto rt, which may be shared with other
// predictors over the same compiled forest.
func NewPredictorWithRuntime(bf *CompiledForest, rt *Runtime) *Predictor {
	return &Predictor{bf: bf, s: bf.NewScratch(), rt: rt, tierMargin: bf.TierMargin}
}

// Predict classifies one sample.
func (p *Predictor) Predict(x []float32) int { return p.bf.Predict(x, p.s) }

// Votes accumulates the per-class weighted votes for x into votes
// (length NumClasses).
func (p *Predictor) Votes(x []float32, votes []int64) { p.bf.Votes(x, p.s, votes) }

// PredictBatch classifies every row of X with the cache-blocked batch
// kernel: a block of samples is encoded into predicate-major columns
// and the dictionary is scanned once per block instead of once per
// sample.
func (p *Predictor) PredictBatch(X [][]float32) []int {
	out := make([]int, len(X))
	p.bf.PredictBatchInto(X, p.s, out)
	return out
}

// PredictBatchInto is PredictBatch writing into a caller-provided
// buffer (length len(X)); steady-state calls allocate nothing.
func (p *Predictor) PredictBatchInto(X [][]float32, out []int) {
	p.bf.PredictBatchInto(X, p.s, out)
}

// VotesBatch accumulates weighted votes for every row of X into votes,
// a flattened len(X)×NumClasses matrix (one row per sample), using the
// batch kernel. Works for regression forests too, where the row width
// is 1.
func (p *Predictor) VotesBatch(X [][]float32, votes []int64) {
	p.bf.VotesBatch(X, p.s, votes)
}

// PredictBatchParallelInto classifies every row of X into out (length
// len(X)) with the parallel batch kernel: the 64-sample column chunks
// of the batch are sharded across the predictor's runtime workers,
// each running the cache-blocked kernel on its own pinned scratch.
// Bit-exact with PredictBatchInto and allocation-free in steady state.
// Without a runtime (NewPredictor), or when the batch is too small to
// shard, it falls back to the serial kernel.
func (p *Predictor) PredictBatchParallelInto(X [][]float32, out []int) {
	if p.rt == nil {
		p.bf.PredictBatchInto(X, p.s, out)
		return
	}
	p.bf.PredictBatchParallelInto(X, p.rt, out)
}

// VotesBatchParallel is VotesBatch on the parallel batch kernel; see
// PredictBatchParallelInto for the dispatch and fallback rules.
func (p *Predictor) VotesBatchParallel(X [][]float32, votes []int64) {
	if p.rt == nil {
		p.bf.VotesBatch(X, p.s, votes)
		return
	}
	p.bf.VotesBatchParallel(X, p.rt, votes)
}

// Tiered reports whether the predictor's model carries a tier split
// (compiled with Options.TierTrees > 0). On an untier'd model the
// tiered batch methods fall back to the monolithic kernel and report
// every sample as escalated.
func (p *Predictor) Tiered() bool { return p.bf.Tiered() }

// SetTier installs the escalation policy the tiered batch methods use;
// see TierConfig. Without a SetTier call the predictor follows the
// model's stored policy.
func (p *Predictor) SetTier(cfg TierConfig) {
	p.tierMargin = cfg.Margin
	if p.tierMargin < 0 {
		p.tierMargin = -1
	}
}

// Tier returns the predictor's current escalation policy.
func (p *Predictor) Tier() TierConfig { return TierConfig{Margin: p.tierMargin} }

// PredictBatchTiered classifies every row of X with the staged batch
// kernel: the tier-0 tree prefix votes first and only samples whose
// leading margin fails to clear the predictor's tier policy pay for
// the remaining trees. Returns the labels and the tier outcome counts
// for this call.
func (p *Predictor) PredictBatchTiered(X [][]float32) ([]int, TierStats) {
	out := make([]int, len(X))
	var ts TierStats
	p.bf.PredictBatchTieredInto(X, p.s, p.tierMargin, out, &ts)
	return out, ts
}

// PredictBatchTieredInto is PredictBatchTiered writing into a
// caller-provided buffer (length len(X)), accumulating outcome counts
// into ts (which may be nil); steady-state calls allocate nothing.
func (p *Predictor) PredictBatchTieredInto(X [][]float32, out []int, ts *TierStats) {
	p.bf.PredictBatchTieredInto(X, p.s, p.tierMargin, out, ts)
}

// VotesBatchTiered accumulates weighted votes for every row of X into
// votes (a flattened len(X)×NumClasses matrix) with the staged kernel.
// Rows answered at tier 0 hold partial vote totals whose argmax is the
// final label (in exact mode, provably; in calibrated mode, within the
// fitted budget); escalated rows hold full-ensemble totals.
func (p *Predictor) VotesBatchTiered(X [][]float32, votes []int64, ts *TierStats) {
	p.bf.VotesBatchTiered(X, p.s, votes, p.tierMargin, ts)
}

// PredictBatchTieredParallelInto is PredictBatchTieredInto on the
// parallel batch kernel: shards run the staged pipeline independently
// on the predictor's runtime workers. Falls back to the serial staged
// kernel without a runtime or when the batch is too small to shard.
func (p *Predictor) PredictBatchTieredParallelInto(X [][]float32, out []int, ts *TierStats) {
	if p.rt == nil {
		p.bf.PredictBatchTieredInto(X, p.s, p.tierMargin, out, ts)
		return
	}
	p.bf.PredictBatchTieredParallelInto(X, p.rt, p.tierMargin, out, ts)
}

// ParallelWorkers returns the size of the predictor's worker pool, or
// 0 for a serial-only predictor.
func (p *Predictor) ParallelWorkers() int {
	if p.rt == nil {
		return 0
	}
	return p.rt.Workers()
}

// Runtime returns the predictor's worker pool (nil for serial-only
// predictors), e.g. to share it with further predictors.
func (p *Predictor) Runtime() *Runtime { return p.rt }

// Close releases the predictor's runtime workers, if any. The
// predictor remains usable; batch calls degrade to the serial kernel.
func (p *Predictor) Close() {
	if p.rt != nil {
		p.rt.Close()
	}
}

// SalienceInto computes per-feature salience counts for x into counts
// (length NumFeatures) without allocating.
func (p *Predictor) SalienceInto(x []float32, counts []int) {
	p.bf.SalienceInto(x, p.s, counts)
}

// Salience returns per-feature salience counts for x — the paper's
// local-explanation workload.
func (p *Predictor) Salience(x []float32) []int { return p.bf.Salience(x, p.s) }

// PredictValue returns the regression output for x (regression
// forests only).
func (p *Predictor) PredictValue(x []float32) float32 { return p.bf.PredictValue(x, p.s) }

// EncodeCompiledForest writes a compiled Bolt forest — dictionary,
// recombined lookup table, bloom filter and codebook — so a service can
// load a tuned artifact without recompiling.
func EncodeCompiledForest(w io.Writer, bf *CompiledForest) error {
	return core.EncodeCompiled(w, bf)
}

// DecodeCompiledForest reads a compiled Bolt forest written by
// EncodeCompiledForest.
func DecodeCompiledForest(r io.Reader) (*CompiledForest, error) {
	return core.DecodeCompiled(r)
}

// EncodeForest writes a trained forest in the binary model format.
func EncodeForest(w io.Writer, f *Forest) error { return forest.Encode(w, f) }

// DecodeForest reads a trained forest from the binary model format.
func DecodeForest(r io.Reader) (*Forest, error) { return forest.Decode(r) }

// EncodeDeepForest writes a cascade in the binary model format.
func EncodeDeepForest(w io.Writer, df *DeepForest) error { return forest.EncodeDeep(w, df) }

// DecodeDeepForest reads a cascade from the binary model format.
func DecodeDeepForest(r io.Reader) (*DeepForest, error) { return forest.DecodeDeep(r) }

// MarshalTreeDOT writes one tree as a Graphviz digraph — the
// interchange format the paper uses between trainer and compiler.
func MarshalTreeDOT(w io.Writer, t *Tree) error { return t.MarshalDOT(w) }

// UnmarshalTreeDOT parses a digraph produced by MarshalTreeDOT.
func UnmarshalTreeDOT(r io.Reader, numFeatures, numClasses int) (*Tree, error) {
	return tree.UnmarshalDOT(r, numFeatures, numClasses)
}

// Accuracy returns the fraction of predictions matching labels.
func Accuracy(pred, labels []int) float64 { return dataset.Accuracy(pred, labels) }
