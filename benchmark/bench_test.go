package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// traced run re-executes it as the host.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "host" {
		os.Exit(hostMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// TestQuickRun drives every workload for about a second, traced, against
// bolt-serve and bolt-router built from this repository, and checks what
// users of the benchmark rely on: every metric BENCHMARK.json names is
// printed with its unit for every workload, the result file and the last
// output line parse, no label is wrong, the traced host's footprint
// matches bolt-serve's, and compare reads the result file back. A
// generator that fell behind its schedule is logged, not failed (see
// offSchedule).
func TestQuickRun(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-root", "..", "-quick", "-trace", "1", "-dir", dir}, &out); err != nil {
		t.Fatalf("quick run: %v\n%s", err, out.String())
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	blocks := strings.Split(out.String(), "\n== ")[1:]
	if len(blocks) != len(workloads) {
		t.Fatalf("output has %d workload sections, want %d:\n%s", len(blocks), len(workloads), out.String())
	}
	for _, blk := range blocks {
		for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
			line := regexp.MustCompile(`(?m)^ +` + regexp.QuoteMeta(m.Name) + ` +-?[0-9]+\.[0-9]+ ` + regexp.QuoteMeta(m.Unit) + `$`)
			if !line.MatchString(blk) {
				t.Errorf("workload %s: no %q line with unit %q", strings.Fields(blk)[0], m.Name, m.Unit)
			}
		}
	}

	resultPath := filepath.Join(dir, "bench-result.json")
	var rf resultFile
	if err := readJSON(resultPath, &rf); err != nil {
		t.Fatal(err)
	}
	for name, res := range rf.Runs[0].Workloads {
		if res.WrongLabels != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d attempted, %d wrong labels", name, res.Attempted, res.WrongLabels)
		}
		for _, p := range res.Problems {
			if offSchedule(p) {
				t.Logf("%s: %s", name, p)
			} else {
				t.Errorf("%s: %s", name, p)
			}
		}
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the summary: %v", err)
	}
	if !sum.Correct || sum.Attempted == 0 || len(sum.Metrics) != len(workloads)*len(perLayer) {
		t.Errorf("summary: correct %v, attempted %d, %d metrics", sum.Correct, sum.Attempted, len(sum.Metrics))
	}
	if _, err := os.Stat(filepath.Join(dir, "bench-trace.json")); err != nil {
		t.Error(err)
	}

	var cmp bytes.Buffer
	if err := compareMain([]string{"-bench", "../BENCHMARK.json", resultPath, resultPath}, &cmp); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cmp.String(), "worse") || strings.Contains(cmp.String(), "better") {
		t.Errorf("a result compared with itself should be within bound:\n%s", cmp.String())
	}
}

// offSchedule reports whether a validity problem is the generator falling
// behind its schedule. Under the race detector, or on a host that wakes
// idle cores late, that invalidates a measurement but says nothing about
// whether the benchmark works.
func offSchedule(problem string) bool {
	return strings.HasPrefix(problem, "generator p99 lateness") || strings.HasPrefix(problem, "achieved ")
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(values, n=4), which the acceptance spreads use.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 3}, 1, 3, 7},
		{[]float64{4, 1, 3, 2, 5}, 1.5, 3, 4.5},
	} {
		q1, med, q3 := quartiles(c.in)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", c.in, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

// TestScanKeepsLateSends checks that a request the pacer sent late, here
// behind a write that blocked, counts in the latency percentiles with
// its latency from the due time.
func TestScanKeepsLateSends(t *testing.T) {
	p := &plan{frames: []frame{{want: []int{0}}}, end: int64(time.Second)}
	tr := &traffic{}
	for i := 0; i < 100; i++ {
		due := int64(i) * int64(10*time.Millisecond)
		sent := due
		if i == 50 {
			sent += int64(5 * time.Millisecond)
		}
		p.reqs = append(p.reqs, request{due: due, class: classRow})
		tr.out = append(tr.out, outcome{sent: sent, recv: sent + int64(100*time.Microsecond), status: statusOK})
	}
	p.open = len(p.reqs)
	wn := scan(&phase{plan: p, tr: tr})
	if len(wn.lat) != 100 || quantile(wn.lat, 1) < 5 {
		t.Errorf("%d latencies, largest %.3f ms; want 100, the late one at 5.1 ms", len(wn.lat), quantile(wn.lat, 1))
	}
}

// TestCompareRefusesDifferentWindows: p50_ms and p99_ms are medians over
// one-second slices, so results of different window lengths differ in
// kind.
func TestCompareRefusesDifferentWindows(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for i, secs := range []float64{15, 10} {
		if err := writeJSON(paths[i], &resultFile{Env: environment{Seconds: secs}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := compareMain([]string{"-bench", "../BENCHMARK.json", paths[0], paths[1]}, io.Discard); err == nil {
		t.Error("compare accepted results of 15 s and 10 s windows")
	}
}

func TestJudge(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.02, 0.98}
	scaled := func(f float64) []float64 {
		v := make([]float64, len(base))
		for i, x := range base {
			v[i] = x * f
		}
		return v
	}
	for _, c := range []struct {
		name  string
		a, b  []float64
		lower bool
		want  string
	}{
		{"same runs", base, base, true, "within bound"},
		{"slower beyond the bound", base, scaled(1.2), true, "worse"},
		{"faster in every pair", base, scaled(0.8), true, "better"},
		{"faster in every pair, too few pairs", base[:5], scaled(0.8)[:5], true, "within bound"},
		{"higher is better", base, scaled(0.8), false, "worse"},
		{"spread wider than the bound", base[:5], []float64{0.7, 1.4, 1.0, 0.8, 1.3}, true, "unresolved"},
	} {
		if got := judge(c.a, c.b, c.lower, 0.1); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}
