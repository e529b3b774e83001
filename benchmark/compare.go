package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json compare reads: each metric's
// direction, and the end-to-end metrics' bounds.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// compareMain prints, for every workload × metric present in both result
// files, each side's median and quartiles, how many paired runs (run i of
// A against run i of B, so the same seed) B won, and a verdict from the
// metric's bound in BENCHMARK.json:
//
//   - worse: B's median is worse than A's by more than the bound;
//   - better: over at least ten pairs, B won at least 9 in 10 and the
//     medians differ by more than A's interquartile range (with fewer
//     pairs, B sweeping all of them is too likely by chance: one metric
//     in 32 at five pairs);
//   - unresolved: either side's spread (IQR / median) is wider than the
//     bound, unless every run of one side beats every run of the other;
//   - within bound: otherwise.
//
// Metrics without a bound are listed with "-".
func compareMain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("boltbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return errors.New("usage: compare [-bench BENCHMARK.json] A.json B.json")
	}
	var spec benchSpec
	if err := readJSON(*specPath, &spec); err != nil {
		return err
	}
	var a, b resultFile
	if err := readJSON(fs.Arg(0), &a); err != nil {
		return err
	}
	if err := readJSON(fs.Arg(1), &b); err != nil {
		return err
	}
	// p50_ms and p99_ms are medians over one-second slices of the window,
	// so windows of different lengths give different statistics.
	if a.Env.Seconds != b.Env.Seconds || a.Env.Quick != b.Env.Quick {
		return fmt.Errorf("%s measured %gs windows (quick %v), %s %gs (quick %v): not comparable",
			fs.Arg(0), a.Env.Seconds, a.Env.Quick, fs.Arg(1), b.Env.Seconds, b.Env.Quick)
	}
	fmt.Fprintf(w, "A: %s (commit %s, %d runs, %d invalid)\nB: %s (commit %s, %d runs, %d invalid)\n",
		fs.Arg(0), a.Env.Commit, len(a.Runs), invalidRuns(a), fs.Arg(1), b.Env.Commit, len(b.Runs), invalidRuns(b))
	fmt.Fprintf(w, "%-15s %-32s %32s %32s %7s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B wins", "verdict")
	for _, name := range workloadNames(a, b) {
		for _, metric := range metricNames(a, name) {
			va, vb := values(a, name, metric), values(b, name, metric)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			verdict, lower := "-", true
			for _, e := range append(spec.EndToEnd, spec.PerLayer...) {
				if e.Name != metric {
					continue
				}
				lower = e.Better == "lower"
				if e.Bound != nil {
					verdict = judge(va, vb, lower, *e.Bound)
				}
			}
			wins, pairs := pairWins(va, vb, lower)
			fmt.Fprintf(w, "%-15s %-32s %32s %32s %3d/%-3d  %s\n", name, metric, spread(va), spread(vb), wins, pairs, verdict)
		}
	}
	return nil
}

func judge(a, b []float64, lower bool, bound float64) string {
	aq1, amed, aq3 := quartiles(a)
	bq1, bmed, bq3 := quartiles(b)
	if amed == 0 {
		return "unresolved"
	}
	worse := (bmed - amed) / math.Abs(amed)
	if !lower {
		worse = -worse
	}
	allBetter, allWorse := true, true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && better(y, x, lower)
			allWorse = allWorse && better(x, y, lower)
		}
	}
	if (aq3-aq1)/math.Abs(amed) > bound || (bmed != 0 && (bq3-bq1)/math.Abs(bmed) > bound) {
		switch {
		case allBetter:
			return "better"
		case allWorse:
			return "worse"
		}
		return "unresolved"
	}
	if worse > bound {
		return "worse"
	}
	wins, pairs := pairWins(a, b, lower)
	if worse < 0 && pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && math.Abs(bmed-amed) > aq3-aq1 {
		return "better"
	}
	return "within bound"
}

// pairWins counts the run pairs (run i of each side) in which b beat a.
func pairWins(a, b []float64, lower bool) (wins, pairs int) {
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i], lower) {
			wins++
		}
	}
	return wins, pairs
}

func better(x, than float64, lower bool) bool {
	if lower {
		return x < than
	}
	return x > than
}

func spread(v []float64) string {
	q1, med, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", med, q1, q3)
}

// values is one workload × metric across a file's runs, in run order.
func values(f resultFile, name, metric string) []float64 {
	var v []float64
	for _, r := range f.Runs {
		if res := r.Workloads[name]; res != nil {
			if m, ok := res.Metrics[metric]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return v
}

// invalidRuns counts the workload runs whose window broke a validity
// rule (see measureWindow).
func invalidRuns(f resultFile) int {
	n := 0
	for _, r := range f.Runs {
		for _, res := range r.Workloads {
			if len(res.Problems) > 0 {
				n++
			}
		}
	}
	return n
}

// workloadNames lists the workloads both files hold, in benchmark order.
func workloadNames(a, b resultFile) []string {
	var names []string
	for _, w := range workloads {
		if len(a.Runs) > 0 && len(b.Runs) > 0 && a.Runs[0].Workloads[w.name] != nil && b.Runs[0].Workloads[w.name] != nil {
			names = append(names, w.name)
		}
	}
	return names
}

// metricNames lists a workload's metrics: end-to-end, then
// reported-only, in their defined order, then the rest alphabetically.
func metricNames(f resultFile, name string) []string {
	res := f.Runs[0].Workloads[name]
	var names, rest []string
	listed := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), reportedOnly...) {
		if _, ok := res.Metrics[d.name]; ok {
			names = append(names, d.name)
			listed[d.name] = true
		}
	}
	for k := range res.Metrics {
		if !listed[k] {
			rest = append(rest, k)
		}
	}
	sort.Strings(rest)
	return append(names, rest...)
}

func readJSON(path string, v any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
