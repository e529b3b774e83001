package bench

import (
	"fmt"
	"io"
	"runtime"

	"bolt/internal/baselines"
	"bolt/internal/core"
	"bolt/internal/forest"
	"bolt/internal/layout"
	"bolt/internal/perfsim"
	"bolt/internal/tree"
	"bolt/internal/tuning"
)

// The paper's standard small forest: 10 trees, maximum height 4 (§6.3).
const (
	paperTrees  = 10
	paperHeight = 4
)

// boltPredictor returns a single-core Bolt predict closure.
func boltPredictor(bf *core.Forest) func(x []float32) int {
	s := bf.NewScratch()
	return func(x []float32) int { return bf.Predict(x, s) }
}

// Fig8Layout regenerates Fig. 8: bytes per entry of the compressed
// (Bolt) vs decompressed layouts for masks, features, results and
// dictionary entry IDs, on the digit-recognition forest.
func Fig8Layout(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	w := MNISTWorkload(cfg)
	f := TrainForest(w, paperTrees, paperHeight, cfg.Seed)
	bf, th, err := CompileAuto(f, cfg, w.Test.X)
	if err != nil {
		return nil, err
	}
	acc, err := layout.Measure(bf)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig 8: bytes per entry, Bolt vs decompressed (MNIST-like)",
		Columns: []string{"component", "bolt B/entry", "decompressed B/entry", "ratio"},
	}
	add := func(name string, b, d float64) {
		t.AddRow(name, b, d, d/b)
	}
	add("dictionary masks", acc.Bolt.Masks, acc.Decompressed.Masks)
	add("dictionary features", acc.Bolt.Features, acc.Decompressed.Features)
	add("table results", acc.Bolt.Results, acc.Decompressed.Results)
	add("table entry ID", acc.Bolt.EntryID, acc.Decompressed.EntryID)
	t.Note("forest: %d trees, height %d, threshold %d; %d dictionary entries, %d table entries",
		paperTrees, paperHeight, th, acc.DictEntries, acc.TableEntries)
	return t, nil
}

// Fig9Architectures regenerates Fig. 9: Bolt response time on the three
// hardware profiles (E5-2650 v4, EC Small, EC Large), via the perfsim
// latency model (hardware PMC substitution, see DESIGN.md §5).
func Fig9Architectures(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	w := MNISTWorkload(cfg)
	f := TrainForest(w, paperTrees, paperHeight, cfg.Seed)
	bf, th, err := CompileAuto(f, cfg, w.Test.X)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig 9: Bolt avg response time across architectures (modeled, MNIST-like)",
		Columns: []string{"architecture", "us/sample"},
	}
	costs := perfsim.DefaultCosts()
	half := len(w.Test.X) / 2
	for _, p := range perfsim.Profiles() {
		sim := perfsim.NewBoltSim(bf, costs)
		m := perfsim.NewMachine(p)
		for _, x := range w.Test.X[:half] {
			sim.Predict(x, m)
		}
		m.C = perfsim.Counters{}
		for _, x := range w.Test.X[half:] {
			sim.Predict(x, m)
		}
		perSample := m.ModeledLatency(p) / float64(len(w.Test.X)-half)
		t.AddRow(p.Name, perSample/1000)
	}
	t.Note("threshold %d; modeled on the perfsim architectural twin (steady state)", th)
	return t, nil
}

// platformSet builds the four platforms of Figs. 10–11 over one forest.
func platformSet(f *forest.Forest, calibration [][]float32, cfg Config) (map[string]func(x []float32) int, *core.Forest, int, error) {
	bf, th, err := CompileAuto(f, cfg, calibration)
	if err != nil {
		return nil, nil, 0, err
	}
	naive := baselines.NewNaive(f, cfg.Seed^0x77)
	ranger := baselines.NewRanger(f)
	fp := baselines.NewForestPacking(f, calibration)
	return map[string]func(x []float32) int{
		"BOLT":   boltPredictor(bf),
		"Scikit": naive.Predict,
		"Ranger": ranger.Predict,
		"FP":     fp.Predict,
	}, bf, th, nil
}

var platformOrder = []string{"BOLT", "Scikit", "Ranger", "FP"}

// modeledLatencies runs each platform's perfsim twin in steady state
// and returns modeled ns/sample on the default profile. Wall-clock Go
// numbers cannot reflect the interpreter/service overheads of the real
// Scikit and Ranger stacks (see EXPERIMENTS.md), so the platform
// figures report both views.
func modeledLatencies(f *forest.Forest, bf *core.Forest, calibration, X [][]float32, seed uint64) map[string]float64 {
	costs := perfsim.DefaultCosts()
	sims := map[string]func(x []float32, m *perfsim.Machine) int{
		"Scikit": perfsim.NewNaiveSim(baselines.NewNaive(f, seed), costs).Predict,
		"Ranger": perfsim.NewRangerSim(baselines.NewRanger(f), costs).Predict,
		"FP":     perfsim.NewFPSim(baselines.NewForestPacking(f, calibration), costs).Predict,
	}
	out := make(map[string]float64, len(sims)+1)
	for name, predict := range sims {
		out[name] = steadyStateModeled(predict, X)
	}
	// Bolt is tuned *for the modeled hardware*, exactly as the paper's
	// Phase 2 tunes for the machine it serves on: pick the modeled-best
	// (threshold, bloom) configuration. The wall-clock-tuned engine bf
	// is the fallback when every alternative fails to compile.
	best := steadyStateModeled(perfsim.NewBoltSim(bf, costs).Predict, X)
	comp, err := core.NewCompilation(f)
	if err == nil {
		for _, th := range []int{1, 2, 4, 8} {
			if comp.EstimateEntries(th) > DefaultConfig().EntryBudget {
				continue
			}
			for _, bloom := range []int{-1, 8} {
				alt, err := comp.Compile(core.Options{ClusterThreshold: th, BloomBitsPerKey: bloom, Seed: seed})
				if err != nil {
					continue
				}
				if ns := steadyStateModeled(perfsim.NewBoltSim(alt, costs).Predict, X); ns < best {
					best = ns
				}
			}
		}
	}
	out["BOLT"] = best
	return out
}

// steadyStateModeled warms the machine on the first half of X and
// returns modeled ns/sample over the second half.
func steadyStateModeled(predict func(x []float32, m *perfsim.Machine) int, X [][]float32) float64 {
	half := len(X) / 2
	if half == 0 {
		half = len(X)
	}
	m := perfsim.NewMachine(perfsim.XeonE52650)
	for _, x := range X[:half] {
		predict(x, m)
	}
	m.C = perfsim.Counters{}
	n := 0
	for _, x := range X[half:] {
		predict(x, m)
		n++
	}
	if n == 0 {
		for _, x := range X[:half] {
			predict(x, m)
			n++
		}
	}
	return m.ModeledLatency(perfsim.XeonE52650) / float64(n)
}

// Fig10Platforms regenerates Fig. 10: average response time of the four
// platforms on the small forest, one core.
func Fig10Platforms(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	w := MNISTWorkload(cfg)
	f := TrainForest(w, paperTrees, paperHeight, cfg.Seed)
	engines, bf, th, err := platformSet(f, w.Test.X, cfg)
	if err != nil {
		return nil, err
	}
	modeled := modeledLatencies(f, bf, w.Test.X, w.Test.X, cfg.Seed^0x66)
	t := &Table{
		Title:   "Fig 10: platform comparison, small forest (MNIST-like, 10 trees, height 4)",
		Columns: []string{"platform", "go-wall us/sample", "modeled us/sample"},
	}
	for _, name := range platformOrder {
		ns := TimePerSample(engines[name], w.Test.X, cfg.Rounds)
		t.AddRow(name, ns/1000, modeled[name]/1000)
	}
	t.Note("Bolt threshold %d. go-wall is compiled-Go wall clock; modeled replays each "+
		"platform's access/branch stream on the perfsim E5-2650 twin including the "+
		"interpreter/service overheads of the real stacks (EXPERIMENTS.md)", th)
	return t, nil
}

// sweepPlatforms times the four platforms over one forest (wall clock
// and modeled) and appends a row.
func sweepPlatforms(t *Table, label string, f *forest.Forest, test [][]float32, cfg Config) error {
	engines, bf, th, err := platformSet(f, test, cfg)
	if err != nil {
		return err
	}
	modeled := modeledLatencies(f, bf, test, test, cfg.Seed^0x66)
	row := []any{label}
	for _, name := range platformOrder {
		ns := TimePerSample(engines[name], test, cfg.Rounds)
		row = append(row, ns/1000)
	}
	for _, name := range platformOrder {
		row = append(row, modeled[name]/1000)
	}
	row = append(row, th)
	t.AddRow(row...)
	return nil
}

// Fig11AHeight regenerates Fig. 11(A): response time vs maximum tree
// height, 10 trees.
func Fig11AHeight(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	w := MNISTWorkload(cfg)
	t := &Table{
		Title:   "Fig 11A: inference by tree height (10 trees, MNIST-like), us/sample",
		Columns: []string{"height", "BOLT", "Scikit", "Ranger", "FP", "BOLT(m)", "Scikit(m)", "Ranger(m)", "FP(m)", "bolt-threshold"},
	}
	for _, h := range []int{4, 5, 6, 8, 10} {
		f := TrainForest(w, paperTrees, h, cfg.Seed^uint64(h))
		if err := sweepPlatforms(t, fmt.Sprintf("%d", h), f, w.Test.X, cfg); err != nil {
			return nil, err
		}
	}
	t.Note("paper: Bolt wins up to height 8; Forest Packing wins on deeper trees")
	return t, nil
}

// Fig11BTrees regenerates Fig. 11(B): response time vs ensemble size,
// height 4.
func Fig11BTrees(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	w := MNISTWorkload(cfg)
	t := &Table{
		Title:   "Fig 11B: inference by number of trees (height 4, MNIST-like), us/sample",
		Columns: []string{"trees", "BOLT", "Scikit", "Ranger", "FP", "BOLT(m)", "Scikit(m)", "Ranger(m)", "FP(m)", "bolt-threshold"},
	}
	for _, n := range []int{10, 14, 18, 22, 26, 30} {
		f := TrainForest(w, n, paperHeight, cfg.Seed^uint64(n)<<4)
		if err := sweepPlatforms(t, fmt.Sprintf("%d", n), f, w.Test.X, cfg); err != nil {
			return nil, err
		}
	}
	t.Note("paper: Bolt outperforms Forest Packing at every ensemble size")
	return t, nil
}

// Fig12Counters regenerates Fig. 12: instructions, branches taken,
// branch misses and cache misses per platform on the small forest,
// via the perfsim architectural twin (steady-state protocol).
func Fig12Counters(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	w := MNISTWorkload(cfg)
	f := TrainForest(w, paperTrees, paperHeight, cfg.Seed)
	bf, th, err := CompileAuto(f, cfg, w.Test.X)
	if err != nil {
		return nil, err
	}
	costs := perfsim.DefaultCosts()
	sims := []struct {
		name    string
		predict func(x []float32, m *perfsim.Machine) int
	}{
		{"BOLT", perfsim.NewBoltSim(bf, costs).Predict},
		{"Scikit", perfsim.NewNaiveSim(baselines.NewNaive(f, cfg.Seed^0x88), costs).Predict},
		{"Ranger", perfsim.NewRangerSim(baselines.NewRanger(f), costs).Predict},
		{"FP", perfsim.NewFPSim(baselines.NewForestPacking(f, w.Test.X), costs).Predict},
	}
	t := &Table{
		Title:   "Fig 12: execution-efficiency counters (simulated, per test set)",
		Columns: []string{"platform", "instructions", "branches", "branch-misses", "cache-misses"},
	}
	half := len(w.Test.X) / 2
	for _, s := range sims {
		m := perfsim.NewMachine(perfsim.XeonE52650)
		for _, x := range w.Test.X[:half] {
			s.predict(x, m)
		}
		m.C = perfsim.Counters{}
		for _, x := range w.Test.X[half:] {
			s.predict(x, m)
		}
		t.AddRow(s.name, fmt.Sprintf("%d", m.C.Instructions), fmt.Sprintf("%d", m.C.Branches),
			fmt.Sprintf("%d", m.C.BranchMisses), fmt.Sprintf("%d", m.C.CacheMisses))
	}
	t.Note("threshold %d; warm-cache measurement over %d samples; interpreter "+
		"amplification per perfsim.DefaultCosts", th, len(w.Test.X)-half)
	return t, nil
}

// Fig13ACores regenerates Fig. 13(A): Bolt latency when one sample is
// parallelised across cores via dictionary/table partitioning. Wall
// clock only shows real speedup when the host has that many physical
// cores (the table notes runtime.NumCPU()), so the analytic Phase 2
// model's prediction for the paper's 12-core E5-2650 is reported
// alongside. A larger forest than Fig. 10's is used so the per-sample
// work amortises Go's goroutine dispatch (documented deviation).
func Fig13ACores(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	w := MNISTWorkload(cfg)
	trees, height := 30, 8
	if cfg.Quick {
		trees, height = 12, 6
	}
	f := TrainForest(w, trees, height, cfg.Seed^0x99)
	comp, err := core.NewCompilation(f)
	if err != nil {
		return nil, err
	}
	// A deliberately low threshold keeps the dictionary long so there is
	// work to split across cores.
	bf, err := comp.Compile(core.Options{ClusterThreshold: 1, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig 13A: Bolt with one sample split across cores (30 trees, height 8), us/sample",
		Columns: []string{"cores", "go-wall us", "modeled us (E5-2650)", "partitioning"},
	}
	inputs := w.Test.X
	if len(inputs) > 200 {
		inputs = inputs[:200]
	}
	serial := TimePerSample(boltPredictor(bf), inputs, cfg.Rounds)
	serialModel := tuning.ModelLatency(bf, tuning.Candidate{Threshold: 1, DictParts: 1, TableParts: 1}, perfsim.XeonE52650)
	t.AddRow("1", serial/1000, serialModel/1000, "serial")
	for _, cores := range []int{2, 4, 8, 16} {
		bestNs, bestCfg := 0.0, ""
		bestModel := 0.0
		for d := 1; d <= cores; d++ {
			if cores%d != 0 {
				continue
			}
			tp := cores / d
			pe, err := core.NewPartitioned(bf, d, tp)
			if err != nil {
				return nil, err
			}
			ns := TimePerSample(pe.Predict, inputs, cfg.Rounds)
			model := tuning.ModelLatency(bf, tuning.Candidate{Threshold: 1, DictParts: d, TableParts: tp}, perfsim.XeonE52650)
			if bestCfg == "" || model < bestModel {
				bestNs, bestModel, bestCfg = ns, model, fmt.Sprintf("d=%d t=%d", d, tp)
			}
		}
		t.AddRow(fmt.Sprintf("%d", cores), bestNs/1000, bestModel/1000, bestCfg)
	}
	t.Note("dict entries: %d; host has %d CPU(s), so go-wall cannot show speedup beyond that — "+
		"the modeled column predicts the paper's 12-core machine", len(bf.Dict.Entries), runtime.NumCPU())
	return t, nil
}

// Fig13BHyper regenerates Fig. 13(B): Bolt latency across arbitrary
// hyperparameter settings, demonstrating the multi-x spread that
// motivates Phase 2.
func Fig13BHyper(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	w := MNISTWorkload(cfg)
	f := TrainForest(w, paperTrees, paperHeight, cfg.Seed^0xaa)
	inputs := w.Test.X
	if len(inputs) > 200 {
		inputs = inputs[:200]
	}
	_, all, err := tuning.Search(f, tuning.Config{
		Cores:      4,
		Thresholds: []int{0, 1, 2, 4, 8, 12},
		Inputs:     inputs,
		Rounds:     cfg.Rounds,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Fig 13B: Bolt latency across hyperparameter settings, us/sample",
		Columns: []string{"setting", "us/sample", "dict-entries", "table-slots"},
	}
	bestLat, worstLat := 0.0, 0.0
	for _, r := range all {
		if r.Err != nil {
			t.AddRow(r.Candidate.String(), "skipped: "+r.Err.Error(), "-", "-")
			continue
		}
		t.AddRow(r.Candidate.String(), r.LatencyNs/1000,
			fmt.Sprintf("%d", r.Stats.DictEntries), fmt.Sprintf("%d", r.Stats.TableSlots))
		if bestLat == 0 {
			bestLat = r.LatencyNs
		}
		worstLat = r.LatencyNs
	}
	if bestLat > 0 {
		t.Note("spread worst/best = %.1fx (paper reports ~4x)", worstLat/bestLat)
	}
	return t, nil
}

// Fig14Datasets regenerates Fig. 14: Bolt vs Scikit across the LSTW and
// Yelp workloads at the paper's height settings, wall-clock and modeled.
func Fig14Datasets(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	t := &Table{
		Title:   "Fig 14: Bolt vs Scikit by dataset, us/sample",
		Columns: []string{"dataset", "height", "BOLT", "Scikit", "BOLT(m)", "Scikit(m)", "bolt-threshold"},
	}
	type setting struct {
		w       Workload
		heights []int
	}
	for _, s := range []setting{
		{LSTWWorkload(cfg), []int{5, 8}},
		{YelpWorkload(cfg), []int{4, 6, 8}},
	} {
		for _, h := range s.heights {
			f := TrainForest(s.w, paperTrees, h, cfg.Seed^uint64(h)<<8)
			bf, th, err := CompileAuto(f, cfg, s.w.Test.X)
			if err != nil {
				return nil, err
			}
			naive := baselines.NewNaive(f, cfg.Seed^0xbb)
			boltNs := TimePerSample(boltPredictor(bf), s.w.Test.X, cfg.Rounds)
			skNs := TimePerSample(naive.Predict, s.w.Test.X, cfg.Rounds)
			modeled := modeledLatencies(f, bf, s.w.Test.X, s.w.Test.X, cfg.Seed^0xbc)
			t.AddRow(s.w.Name, fmt.Sprintf("%d", h), boltNs/1000, skNs/1000,
				modeled["BOLT"]/1000, modeled["Scikit"]/1000, th)
		}
	}
	t.Note("paper: Bolt achieves sub-microsecond modeled responses for modest forests on both datasets")
	return t, nil
}

// Fig15DeepForest regenerates Fig. 15: two-layer deep forests on the
// MNIST-like and LSTW-like workloads, Bolt vs Scikit, wall-clock and
// modeled (the cascade simulation charges each layer's engine on its
// widened inputs).
func Fig15DeepForest(cfg Config) (*Table, error) {
	cfg = cfg.normalized()
	t := &Table{
		Title:   "Fig 15: two-layer deep forest execution time, us/sample",
		Columns: []string{"dataset", "height", "BOLT", "Scikit", "BOLT(m)", "Scikit(m)", "bolt-threshold"},
	}
	type setting struct {
		w       Workload
		heights []int
	}
	mnistHeights := []int{5, 15, 20}
	lstwHeights := []int{5, 8, 12}
	if cfg.Quick {
		mnistHeights = []int{5, 8}
		lstwHeights = []int{5, 8}
	}
	for _, s := range []setting{
		{MNISTWorkload(cfg), mnistHeights},
		{LSTWWorkload(cfg), lstwHeights},
	} {
		for _, h := range s.heights {
			df := forest.TrainDeep(s.w.Train, forest.DeepConfig{
				NumLayers:       2,
				ForestsPerLayer: 1,
				Forest:          forest.Config{NumTrees: paperTrees, Tree: tree.Config{MaxDepth: h}},
				Seed:            cfg.Seed ^ uint64(h)<<12,
			})
			db, th, err := compileDeepAuto(df, cfg)
			if err != nil {
				return nil, err
			}
			deepNaive := newNaiveDeep(df, cfg.Seed^0xcc)
			boltNs := TimePerSample(db.Predict, s.w.Test.X, cfg.Rounds)
			skNs := TimePerSample(deepNaive.Predict, s.w.Test.X, cfg.Rounds)
			boltM, skM := deepModeled(df, db, s.w.Test.X, cfg.Seed^0xcd)
			t.AddRow(s.w.Name, fmt.Sprintf("%d", h), boltNs/1000, skNs/1000,
				boltM/1000, skM/1000, th)
		}
	}
	t.Note("paper: deep forests cost more than plain forests, Bolt still wins; depth hurts Bolt most")
	return t, nil
}

// deepModeled replays the cascade through the perfsim twins: every
// layer's engine is charged on that layer's (probability-widened)
// inputs, for Bolt and the Scikit-like baseline.
func deepModeled(df *forest.DeepForest, db *core.DeepBolt, X [][]float32, seed uint64) (boltNs, skNs float64) {
	costs := perfsim.DefaultCosts()
	// Build per-layer simulators.
	boltSims := make([][]*perfsim.BoltSim, len(df.Layers))
	naiveSims := make([][]*perfsim.NaiveSim, len(df.Layers))
	for l, layer := range df.Layers {
		boltSims[l] = make([]*perfsim.BoltSim, len(layer))
		naiveSims[l] = make([]*perfsim.NaiveSim, len(layer))
		for j, f := range layer {
			boltSims[l][j] = perfsim.NewBoltSim(db.Layers[l][j], costs)
			naiveSims[l][j] = perfsim.NewNaiveSim(baselines.NewNaive(f, seed^uint64(l*10+j)), costs)
		}
	}
	run := func(samples [][]float32, charge func(l, j int, x []float32)) {
		proba := make([]float32, df.NumClasses)
		for _, x := range samples {
			cur := x
			for l, layer := range df.Layers {
				for j := range layer {
					charge(l, j, cur)
				}
				if l == len(df.Layers)-1 {
					break
				}
				next := make([]float32, len(cur)+len(layer)*df.NumClasses)
				copy(next, cur)
				off := len(cur)
				for _, f := range layer {
					f.Proba(cur, proba)
					copy(next[off:off+df.NumClasses], proba)
					off += df.NumClasses
				}
				cur = next
			}
		}
	}
	profile := perfsim.XeonE52650
	half := len(X) / 2
	if half == 0 {
		half = 1
	}
	warm, measure := X[:half], X[half:]
	if len(measure) == 0 {
		measure = warm
	}

	mBolt := perfsim.NewMachine(profile)
	run(warm, func(l, j int, x []float32) { boltSims[l][j].Predict(x, mBolt) })
	mBolt.C = perfsim.Counters{}
	run(measure, func(l, j int, x []float32) { boltSims[l][j].Predict(x, mBolt) })
	boltNs = mBolt.ModeledLatency(profile) / float64(len(measure))

	mNaive := perfsim.NewMachine(profile)
	run(warm, func(l, j int, x []float32) { naiveSims[l][j].Predict(x, mNaive) })
	mNaive.C = perfsim.Counters{}
	run(measure, func(l, j int, x []float32) { naiveSims[l][j].Predict(x, mNaive) })
	skNs = mNaive.ModeledLatency(profile) / float64(len(measure))
	return boltNs, skNs
}

// compileDeepAuto picks the largest threshold whose expansion stays in
// budget for every member forest, then compiles the cascade with it.
func compileDeepAuto(df *forest.DeepForest, cfg Config) (*core.DeepBolt, int, error) {
	cfg = cfg.normalized()
	th := 12
	for _, layer := range df.Layers {
		for _, f := range layer {
			comp, err := core.NewCompilation(f)
			if err != nil {
				return nil, 0, err
			}
			lth, _ := PickThreshold(comp, cfg.EntryBudget)
			if lth < th {
				th = lth
			}
		}
	}
	optTh := th
	if optTh == 0 {
		optTh = -1 // Options maps 0 to the default; negative means literal 0
	}
	db, err := core.CompileDeep(df, core.Options{ClusterThreshold: optTh, Seed: cfg.Seed})
	if err != nil {
		return nil, 0, err
	}
	return db, th, nil
}

// Experiments maps experiment IDs to their implementations, in paper
// order.
var Experiments = []struct {
	ID   string
	Desc string
	Run  func(Config) (*Table, error)
}{
	{"fig8", "compressed layout bytes per entry", Fig8Layout},
	{"fig9", "Bolt across hardware profiles (modeled)", Fig9Architectures},
	{"fig10", "four platforms on the small forest", Fig10Platforms},
	{"fig11a", "latency vs tree height", Fig11AHeight},
	{"fig11b", "latency vs ensemble size", Fig11BTrees},
	{"fig12", "execution-efficiency counters (simulated)", Fig12Counters},
	{"fig13a", "single-sample parallelisation across cores", Fig13ACores},
	{"fig13b", "hyperparameter spread", Fig13BHyper},
	{"fig14", "LSTW and Yelp datasets", Fig14Datasets},
	{"fig15", "two-layer deep forests", Fig15DeepForest},
	{"ablate", "design-choice ablations (extra, not a paper figure)", Ablations},
	{"skew", "FP calibration-mismatch study, §2.1 (extra)", Skew},
	{"batch", "cache-blocked batch kernel vs row-at-a-time (extra)", FigBatch},
	{"pbatch", "parallel batch kernel scaling on the persistent runtime (extra)", FigPBatch},
	{"footprint", "§5 compact memory layout vs flat: bytes and kernel delta (extra)", FigFootprint},
	{"tiered", "tiered early exit: latency/accuracy frontier vs exit margin (extra)", FigTiered},
}

// Run executes one experiment by ID and renders it to w.
func Run(id string, cfg Config, w io.Writer) error {
	for _, e := range Experiments {
		if e.ID == id {
			table, err := e.Run(cfg)
			if err != nil {
				return fmt.Errorf("bench: %s: %w", id, err)
			}
			return table.Render(w)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q", id)
}

// RunAll executes every experiment in paper order.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range Experiments {
		if err := Run(e.ID, cfg, w); err != nil {
			return err
		}
	}
	return nil
}
