// Command boltbench is the serving benchmark. It trains the workload
// forests through the public bolt API, builds the repository's
// bolt-serve and bolt-router, starts them as child processes, drives
// open-loop traffic at them from one generator process, checks every
// reply label against the source forest, and prints every metric by
// name with its unit. Run it from the repository root through
// benchmark/run.sh, which builds it first:
//
//	bash benchmark/run.sh                                   # every workload, untraced
//	bash benchmark/run.sh -workload mixed -seed 7 -trace 1  # adds the per-layer metrics
//	bash benchmark/run.sh -runs 5 -out a.json               # seeds 1..5 into one result file
//	bash benchmark/run.sh compare a.json b.json             # verdicts against BENCHMARK.json
//
// BENCHMARK.json's command is run once per workload and seed as
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <run_seconds> --trace <0|1>
//
// so -workload and -seconds are set on every recorded run; run_seconds
// (10) is the default window.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics, or
// with -trace 1 the per-layer metrics. A run with a wrong label reports
// correct false and exits non-zero. A run whose achieved rate falls
// below 98% of the offered rate, or whose generator ran more than 1 ms
// late at p99, is marked invalid in its output and result file (see
// measureWindow).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"bolt"
)

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "host":
		os.Exit(hostMain(os.Args[2:]))
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareMain(os.Args[2:], os.Stdout)
	default:
		err = run(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "boltbench:", err)
		os.Exit(1)
	}
}

// bench is one invocation's configuration.
type bench struct {
	root, dir  string
	self       string // this binary, re-executed as the traced host
	bins       struct{ serve, router string }
	nproc      int
	trainRows  int
	warm       time.Duration
	measure    time.Duration
	coldStarts int
}

// metricValue is one metric as it appears in result files and on the
// last output line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one workload's outcome in one run.
type result struct {
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	WrongLabels int                    `json:"wrong_labels"`
	Problems    []string               `json:"problems,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
}

type runRecord struct {
	Seed      uint64             `json:"seed"`
	Workloads map[string]*result `json:"workloads"`
}

// resultFile is what -out holds: the environment and every run.
type resultFile struct {
	Env  environment `json:"env"`
	Runs []runRecord `json:"runs"`
}

// environment pins down what a result is comparable with. Results from
// hosts whose timer overshoot differs are not: the coalescer's 250 µs
// hold lasts as long as the host's timers let it.
type environment struct {
	Commit               string         `json:"commit"`
	GoVersion            string         `json:"go_version"`
	NProc                int            `json:"nproc"`
	GOMAXPROCS           map[string]int `json:"gomaxprocs"`
	Seed                 uint64         `json:"seed"`
	Runs                 int            `json:"runs"`
	Seconds              float64        `json:"seconds"`
	Quick                bool           `json:"quick"`
	SleepOvershootUs     float64        `json:"sleep_100us_overshoot_us"`
	NanosleepOvershootUs float64        `json:"nanosleep_100us_overshoot_us"`
	PacerRealtime        bool           `json:"pacer_realtime"`
}

// summary is the last output line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("boltbench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Uint64("seed", 1, "seed of datasets, forests, row order and arrival times; run r uses seed+r")
	seconds := fs.Float64("seconds", 10, "length of each measured window, after a 2 s warm-up; compare refuses results of different windows")
	trace := fs.Int("trace", 0, "1 repeats each workload on the span-recording host and reports the per-layer metrics")
	runs := fs.Int("runs", 1, "repeat every workload this many times, with consecutive seeds")
	quick := fs.Bool("quick", false, "smoke mode: about 1 s per workload at a tenth of the rates")
	root := fs.String("root", ".", "repository root holding cmd/bolt-serve and cmd/bolt-router")
	dir := fs.String("dir", ".bench_build", "directory for binaries, models, sockets, logs and output files")
	out := fs.String("out", "", "result file (default <dir>/bench-result.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *runs < 1 || *seconds <= 0 {
		return errors.New("-runs and -seconds must be positive")
	}
	sel := append([]workload(nil), workloads...)
	if *name != "" {
		sel = nil
		for _, w := range workloads {
			if w.name == *name {
				sel = []workload{w}
			}
		}
		if sel == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
	}
	b := &bench{root: *root, nproc: runtime.NumCPU(), trainRows: 3000,
		warm: 2 * time.Second, measure: time.Duration(*seconds * float64(time.Second)), coldStarts: 15}
	if *quick {
		b.trainRows, b.warm, b.measure, b.coldStarts = 600, 300*time.Millisecond, time.Second, 1
		for i := range sel {
			sel[i].rate /= 10
			sel[i].batchEvery *= 4
		}
	}
	var err error
	if b.dir, err = filepath.Abs(*dir); err != nil {
		return err
	}
	if b.self, err = os.Executable(); err != nil {
		return err
	}
	if err := b.build(); err != nil {
		return err
	}
	env := b.environment(*seed, *runs, *seconds, *quick)
	fmt.Fprintf(stdout, "boltbench: commit %s, %s, nproc %d, GOMAXPROCS %v, time.Sleep(100µs) overshoot %.0f µs, nanosleep %.0f µs, real-time pacer %v\n",
		env.Commit, env.GoVersion, env.NProc, env.GOMAXPROCS, env.SleepOvershootUs, env.NanosleepOvershootUs, env.PacerRealtime)

	rf := resultFile{Env: env}
	var traces []traceRecord
	var problems []string
	for r := 0; r < *runs; r++ {
		rec := runRecord{Seed: *seed + uint64(r), Workloads: map[string]*result{}}
		for _, w := range sel {
			res, tr, err := b.runWorkload(stdout, w, rec.Seed, *trace == 1)
			if err != nil {
				return fmt.Errorf("%s (seed %d): %w", w.name, rec.Seed, err)
			}
			rec.Workloads[w.name] = res
			if tr != nil {
				traces = append(traces, *tr)
			}
			for _, p := range res.Problems {
				problems = append(problems, fmt.Sprintf("%s seed %d: %s", w.name, rec.Seed, p))
			}
		}
		rf.Runs = append(rf.Runs, rec)
	}
	if *out == "" {
		*out = filepath.Join(b.dir, "bench-result.json")
	}
	if err := writeJSON(*out, &rf); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "result: %s\n", *out)
	if *trace == 1 {
		path := filepath.Join(b.dir, "bench-trace.json")
		if err := writeJSON(path, traces); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "trace: %s\n", path)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	sum := summarize(rf.Runs, sel, defs)
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "boltbench: invalid measurement:\n  %s\n", strings.Join(problems, "\n  "))
	}
	if !sum.Correct {
		return errWrongLabels
	}
	return nil
}

var errWrongLabels = errors.New("a reply label differs from the source forest")

// build compiles the repository's bolt-serve and bolt-router into
// <dir>/bin. The go command skips the link when a binary is current.
func (b *bench) build() error {
	bin := filepath.Join(b.dir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/bolt-serve", "./cmd/bolt-router")
	cmd.Dir = b.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building bolt-serve and bolt-router in %s: %w\n%s", b.root, err, out)
	}
	b.bins.serve, b.bins.router = filepath.Join(bin, "bolt-serve"), filepath.Join(bin, "bolt-router")
	return nil
}

func (b *bench) environment(seed uint64, runs int, seconds float64, quick bool) environment {
	env := environment{
		Commit:    commit(b.root),
		GoVersion: runtime.Version(),
		NProc:     b.nproc,
		GOMAXPROCS: map[string]int{
			"generator": runtime.GOMAXPROCS(0), "bolt-serve": b.nproc,
			"bolt-serve routed backend": 1, "bolt-router": b.nproc,
		},
		Seed: seed, Runs: runs, Seconds: seconds, Quick: quick,
	}
	env.SleepOvershootUs = overshoot(time.Sleep)
	env.NanosleepOvershootUs = overshoot(nanosleep)
	runtime.LockOSThread()
	if restore, ok := realtime(); ok {
		restore()
		env.PacerRealtime = true
	}
	runtime.UnlockOSThread()
	return env
}

// overshoot is the median lateness of 50 sleeps of 100 µs, in µs.
func overshoot(sleep func(time.Duration)) float64 {
	const d = 100 * time.Microsecond
	var late []float64
	for i := 0; i < 50; i++ {
		start := time.Now()
		sleep(d)
		late = append(late, float64(time.Since(start)-d)/1e3)
	}
	return quantile(late, 0.5)
}

// commit is the VCS revision stamped into this binary, else the
// repository's HEAD, else "unknown" (e.g. in an exported source tree).
func commit(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "+modified"
			}
			return rev
		}
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// runWorkload measures one workload for one seed: an untraced run on
// the real binaries and, with trace, a second run on the traced host
// with the same inputs and arrival schedule.
func (b *bench) runWorkload(stdout io.Writer, w workload, seed uint64, trace bool) (*result, *traceRecord, error) {
	in, err := b.prepare(w, seed)
	if err != nil {
		return nil, nil, err
	}
	p := newPlan(w, in, seed, b.warm, b.measure)
	fmt.Fprintf(stdout, "\n== %s seed %d: %s; %v measured after %v warm-up\n", w.name, seed, describe(w), b.measure, b.warm)
	plain, wn, m, err := b.measureWindow(stdout, w, in, p, false)
	if err != nil {
		return nil, nil, err
	}
	res := &result{Attempted: wn.attempted, Failed: wn.failed, WrongLabels: wn.wrong, Problems: validate(m, plain)}
	var tr *traceRecord
	if trace {
		traced, twn, tm, err := b.measureWindow(stdout, w, in, p, true)
		if err != nil {
			return nil, nil, err
		}
		res.WrongLabels += twn.wrong
		res.Problems = append(res.Problems, validate(tm, traced)...)
		if err := sameFootprint(plain.after.serve, traced.after.serve); err != nil {
			return nil, nil, err
		}
		workers := 0
		for _, st := range traced.after.serve {
			workers += st.Workers
		}
		lm := tracedMetrics(traced, twn, float64(workers))
		batch := int(math.Round(lm["core.batch_rows_per_call"]))
		if batch == 0 {
			batch = bolt.DefaultCoalesceMaxRows
		}
		if lm["core.row_us_isolated"], lm["core.batch_us_per_row_isolated"], err = isolatedKernel(in, batch); err != nil {
			return nil, nil, err
		}
		atReferenceSpeed(lm, speedFactor(traced.probeUs), p.open < len(p.reqs))
		lm["setup.start_ms"] = tm["setup_wall_s"]*1e3 - lm["setup.decode_ms"] - lm["setup.compile_ms"]
		for k, v := range lm {
			m[k] = v
		}
		fmt.Fprintf(stdout, "   self time (traced): transport %.1f us/request (p50), serve %.1f us/row, core %.1f us/row\n",
			quantile(twn.transport, 0.5)*speedFactor(traced.probeUs), lm["serve.dispatch_us_per_row"], lm["core.us_per_row"])
		fmt.Fprintf(stdout, "   tracing overhead: p50 %+.1f%%, p99 %+.1f%%, cpu_us_per_row %+.1f%%\n",
			pct(tm["p50_ms"], m["p50_ms"]), pct(tm["p99_ms"], m["p99_ms"]), pct(tm["cpu_us_per_row"], m["cpu_us_per_row"]))
		tr = newTraceRecord(w.name, seed, traced)
	}
	res.Metrics = map[string]metricValue{}
	for _, set := range metricSets {
		for _, d := range set {
			v, ok := m[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(stdout, "   %-32s %14.4f %s\n", d.name, v, d.unit)
			// A percentile that lands on a failed request is infinite; the
			// run is invalid (see validate) and JSON has no infinity.
			if !math.IsInf(v, 0) && !math.IsNaN(v) {
				res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
			}
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(stdout, "   INVALID: %s\n", p)
	}
	return res, tr, nil
}

// measureWindow measures one phase and returns it with its metrics at
// reference speed. A window that breaks a validity rule is kept and
// reported (see validate): the run is invalid, its result file lists
// the problems and the run prints them, but it still exits zero, since
// a host that wakes idle cores late breaks the schedule whatever the
// servers do. Only a wrong label makes the run fail.
func (b *bench) measureWindow(stdout io.Writer, w workload, in *inputs, p *plan, traced bool) (*phase, *window, map[string]float64, error) {
	ph, err := b.measurePhase(w, in, p, traced)
	if err != nil {
		return nil, nil, nil, err
	}
	wn := scan(ph)
	m := endToEndMetrics(ph, wn)
	atReferenceSpeed(m, speedFactor(ph.probeUs), p.open < len(p.reqs))
	fmt.Fprintf(stdout, "   host probe %.1f us: times below are at reference speed (measured x %.3f)\n", ph.probeUs, speedFactor(ph.probeUs))
	return ph, wn, m, nil
}

// measurePhase cold-starts the tier coldStarts times (timing each), keeps
// the last start up, drives the plan through it and snapshots the
// servers at both edges of the measured window, probing the host while
// traffic runs.
func (b *bench) measurePhase(w workload, in *inputs, p *plan, traced bool) (*phase, error) {
	runDir := filepath.Join(b.dir, "run", w.name)
	if traced {
		runDir += "-traced"
	}
	if err := os.RemoveAll(runDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	ph := &phase{plan: p}
	var topo *topology
	for i := 0; i < b.coldStarts; i++ {
		t, wall, cpu, err := b.start(w, in.modelPath, runDir, traced, fmt.Sprint(i))
		if err != nil {
			return nil, err
		}
		ph.setupWall = append(ph.setupWall, wall)
		ph.setupCPU = append(ph.setupCPU, cpu)
		if i == b.coldStarts-1 {
			topo = t
			break
		}
		t.stop()
		if traced {
			if _, err := ph.readSpans(t); err != nil {
				return nil, err
			}
		}
	}
	var snapErr error
	edge := func() {
		s, err := takeSnapshot(topo)
		snapErr = errors.Join(snapErr, err)
		if ph.before.serve == nil {
			ph.before = s
		} else {
			ph.after = s
		}
	}
	stop := make(chan struct{})
	probe := make(chan float64, 1)
	go func() { probe <- probeHost(stop) }() //bolt:goroutine probe
	tr, err := drive(topo.addr, p, edge)
	close(stop)
	ph.probeUs = <-probe
	topo.stop()
	if err = errors.Join(err, snapErr); err != nil {
		return nil, err
	}
	ph.tr = tr
	if traced {
		if ph.spans, err = ph.readSpans(topo); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// readSpans loads a stopped traced tier's span files and records the
// start's decode and compile times (the slowest backend's).
func (ph *phase) readSpans(t *topology) ([]*spanFile, error) {
	var files []*spanFile
	var dec, comp int64
	for _, path := range t.spans {
		f, err := readSpans(path)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		dec, comp = max(dec, f.DecodeNs), max(comp, f.CompileNs)
	}
	ph.decode = append(ph.decode, time.Duration(dec))
	ph.compile = append(ph.compile, time.Duration(comp))
	return files, nil
}

// validate applies the validity rules to one phase's measured metrics.
func validate(m map[string]float64, ph *phase) []string {
	var probs []string
	if m["wrong_labels"] > 0 {
		probs = append(probs, fmt.Sprintf("%.0f wrong labels", m["wrong_labels"]))
	}
	if ph.tr.ranOut {
		probs = append(probs, "a closed loop ran out of request slots before the window ended")
	}
	if ph.plan.open > 0 && m["achieved_rps"] < 0.98*m["offered_rps"] {
		probs = append(probs, fmt.Sprintf("achieved %.0f req/s, below 98%% of the offered %.0f", m["achieved_rps"], m["offered_rps"]))
	}
	if m["gen.lag_p99_ms"] > 1 {
		probs = append(probs, fmt.Sprintf("generator p99 lateness %.3f ms exceeds 1 ms", m["gen.lag_p99_ms"]))
	}
	for k, v := range m {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			probs = append(probs, fmt.Sprintf("%s is %v (failed requests)", k, v))
		}
	}
	return probs
}

// sameFootprint checks that the traced host compiled the same forest as
// bolt-serve: equal OpStats footprints for every backend.
func sameFootprint(plain, traced []bolt.ServerStats) error {
	for i := range plain {
		a, b := plain[i], traced[i]
		if a.DictBytes != b.DictBytes || a.TableBytes != b.TableBytes || a.Layout != b.Layout {
			return fmt.Errorf("traced host footprint (dict %d B, table %d B, layout %d) differs from bolt-serve's (dict %d B, table %d B, layout %d)",
				b.DictBytes, b.TableBytes, b.Layout, a.DictBytes, a.TableBytes, a.Layout)
		}
	}
	return nil
}

func pct(traced, plain float64) float64 { return 100 * ratio(traced-plain, plain) }

// summarize builds the last output line: one workload's metrics, or,
// across several workloads, "<workload>/<metric>" keys; several runs
// report each metric's median.
func summarize(runs []runRecord, sel []workload, defs []metricDef) summary {
	s := summary{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range sel {
		vals := map[string][]float64{}
		for _, r := range runs {
			res := r.Workloads[w.name]
			s.Attempted += res.Attempted
			s.Failed += res.Failed
			s.Correct = s.Correct && res.WrongLabels == 0
			for _, d := range defs {
				vals[d.name] = append(vals[d.name], res.Metrics[d.name].Value)
			}
		}
		for _, d := range defs {
			key := d.name
			if len(sel) > 1 {
				key = w.name + "/" + d.name
			}
			_, med, _ := quartiles(vals[d.name])
			s.Metrics[key] = metricValue{Value: med, Unit: d.unit}
		}
	}
	return s
}
