package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bolt"
)

type metricDef struct{ name, unit string }

// endToEnd are the bounded metrics a user of the serving tier sees,
// measured with tracing off; every workload reports each of them.
var endToEnd = []metricDef{
	{"cpu_us_per_row", "us"},
	{"rss_mb", "MB"},
	{"setup_s", "s"},
}

// reportedOnly are printed and stored but carry no regression bound.
// Wall-clock times (latency percentiles, closed-loop throughput, the
// wall time of a start) follow the shared host's late wake-ups and
// spread too wide from run to run to hold a bound (README.md has the
// measurements); batch_p99_ms has too few samples in a run to hold one;
// error_rate and wrong_labels are zero on a healthy run; open-loop
// rows_per_s and the request rates are the schedule's, and the validity
// check's inputs; host.probe_us describes the host, not the program.
var reportedOnly = []metricDef{
	{"rows_per_s", "rows/s"},
	{"setup_wall_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"p99_window_ms", "ms"},
	{"batch_p99_ms", "ms"},
	{"error_rate", "share"},
	{"wrong_labels", "count"},
	{"offered_rps", "1/s"},
	{"achieved_rps", "1/s"},
	{"host.probe_us", "us"},
}

// perLayer are the single-layer metrics, named after the modules they
// measure, that every workload exercises: no time among them is 0 by
// construction on any workload. A count or share of a mechanism a
// workload bypasses (coalescing on batch-offline) reports 0.
var perLayer = []metricDef{
	{"serve.service_p50_us", "us"},
	{"serve.service_p99_us", "us"},
	{"serve.transport_p50_us", "us"},
	{"serve.coalesced_share", "share"},
	{"serve.rows_per_coalesced_batch", "rows"},
	{"serve.cpu_us_per_row", "us"},
	{"serve.dispatch_us_per_row", "us"},
	{"core.us_per_row", "us"},
	{"core.batch_rows_per_call", "rows"},
	{"core.parallel_calls", "count"},
	{"core.rows_share_batched", "share"},
	{"core.busy_share", "share"},
	{"core.row_us_isolated", "us"},
	{"core.batch_us_per_row_isolated", "us"},
	{"router.backend_skew", "ratio"},
	{"setup.decode_ms", "ms"},
	{"setup.compile_ms", "ms"},
	{"setup.start_ms", "ms"},
}

// layerReportedOnly are layer metrics printed and stored, but left out of
// the last output line: each is 0 on every run of a workload that
// bypasses what it times (the router outside routed, a kernel the
// workload never calls, pacer lateness in a closed loop), or 0 on a
// healthy run (shed, retries).
var layerReportedOnly = []metricDef{
	{"core.row_us", "us"},
	{"core.batch_us_per_row", "us"},
	{"core.parallel_us_per_row", "us"},
	{"router.cpu_us_per_req", "us"},
	{"router.shed", "count"},
	{"router.retries", "count"},
	{"gen.lag_p99_ms", "ms"},
}

// metricSets is every metric the benchmark prints, in print order.
var metricSets = [][]metricDef{endToEnd, reportedOnly, perLayer, layerReportedOnly}

func unitOf(name string) string {
	for _, set := range metricSets {
		for _, d := range set {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// snapshot is the servers' counters at one edge of the measured window.
type snapshot struct {
	serveCPU, routerCPU time.Duration
	hwmKB               int64
	serve               []bolt.ServerStats // one per backend, queried directly
	router              *bolt.ServerStats
}

func takeSnapshot(t *topology) (snapshot, error) {
	var s snapshot
	for i, p := range t.servers {
		cpu, hwm, err := p.sample()
		if err != nil {
			return s, err
		}
		s.serveCPU += cpu
		s.hwmKB += hwm
		st, err := stats(t.backends[i])
		if err != nil {
			return s, err
		}
		s.serve = append(s.serve, st)
	}
	if t.router != nil {
		cpu, hwm, err := t.router.sample()
		if err != nil {
			return s, err
		}
		s.routerCPU, s.hwmKB = cpu, s.hwmKB+hwm
		st, err := stats(t.addr)
		if err != nil {
			return s, err
		}
		s.router = &st
	}
	return s, nil
}

// phase is one measured run of a workload on one topology.
type phase struct {
	plan          *plan
	tr            *traffic
	setupWall     []time.Duration // per cold start: exec until ready
	setupCPU      []time.Duration // and the tier's CPU time by then
	decode        []time.Duration // traced: slowest backend per cold start
	compile       []time.Duration
	before, after snapshot
	spans         []*spanFile // traced: the serving start's spans, one per backend
	probeUs       float64     // host probe during the traffic, see probe.go
}

// window is the per-request view of a phase's measured window.
type window struct {
	attempted, failed, wrong int
	rows                     int       // rows of successful requests
	lat, batchLat            []float64 // ms; failed requests are +Inf
	latAt                    []int64   // when each lat sample was due (or sent)
	svc, transport           []float64 // us, main class, successful requests
	lag                      []float64 // ms, open loop
	svcNs                    int64     // summed serviceNs of successful requests
	offered                  int       // open-loop requests due inside the window
	achieved                 int       // and open-loop replies received inside it
	seconds                  float64
}

// scan walks a phase's requests. A request belongs to the window by its
// due time (open loop) or send time (closed loop). The main class is
// single rows when the workload sends any, else batches; its latency is
// p50_ms/p99_ms. Every request counts in the percentiles, with its
// latency from the due time however late the pacer sent it: a write the
// server did not read in time delays the sends behind it, and that delay
// is the server's.
func scan(ph *phase) *window {
	p, tr := ph.plan, ph.tr
	mainClass := classBatch
	for _, r := range p.reqs {
		if r.class == classRow {
			mainClass = classRow
			break
		}
	}
	wn := &window{seconds: float64(p.end-p.warm) / 1e9}
	for i, r := range p.reqs {
		o := tr.out[i]
		closed := i >= p.open
		if closed && o.sent < 0 {
			continue // a slot the closed loop never used
		}
		ok := o.recv > 0 && o.status == statusOK
		wn.wrong += int(o.wrong)
		if !closed && ok && o.recv >= p.warm && o.recv < p.end {
			wn.achieved++
		}
		t0 := r.due
		if closed {
			t0 = o.sent
		}
		if t0 < p.warm || t0 >= p.end {
			continue
		}
		wn.attempted++
		lat := math.Inf(1)
		if ok {
			lat = float64(o.recv-t0) / 1e6
			wn.rows += len(p.frames[r.frame].want)
			wn.svcNs += o.svc
		} else {
			wn.failed++
		}
		if !closed {
			wn.offered++
			wn.lag = append(wn.lag, float64(o.sent-r.due)/1e6)
		}
		if r.class != mainClass {
			wn.batchLat = append(wn.batchLat, lat)
			continue
		}
		wn.lat = append(wn.lat, lat)
		wn.latAt = append(wn.latAt, t0)
		if ok {
			wn.svc = append(wn.svc, float64(o.svc)/1e3)
			wn.transport = append(wn.transport, float64(o.recv-o.sent-o.svc)/1e3)
		}
	}
	return wn
}

// endToEndMetrics computes the end-to-end and reported-only metrics and
// the layer metrics measured from outside an untraced run: reply fields,
// OpStats and /proc.
func endToEndMetrics(ph *phase, wn *window) map[string]float64 {
	m := map[string]float64{}
	m["p50_ms"] = typical(wn.lat, wn.latAt, 0.50, ph.plan)
	m["p99_ms"] = typical(wn.lat, wn.latAt, 0.99, ph.plan)
	m["p99_window_ms"] = quantile(wn.lat, 0.99)
	if len(wn.batchLat) > 0 {
		m["batch_p99_ms"] = quantile(wn.batchLat, 0.99)
	}
	m["rows_per_s"] = float64(wn.rows) / wn.seconds
	m["cpu_us_per_row"] = ratio(float64(ph.after.serveCPU-ph.before.serveCPU+ph.after.routerCPU-ph.before.routerCPU)/1e3, float64(wn.rows))
	m["rss_mb"] = float64(ph.after.hwmKB) / 1024
	m["setup_s"] = quantile(durations(ph.setupCPU), 0.5) / 1e9
	m["setup_wall_s"] = quantile(durations(ph.setupWall), 0.5) / 1e9
	m["host.probe_us"] = ph.probeUs
	m["error_rate"] = ratio(float64(wn.failed), float64(wn.attempted))
	m["wrong_labels"] = float64(wn.wrong)
	m["gen.lag_p99_ms"] = quantile(wn.lag, 0.99)
	if ph.plan.open > 0 {
		m["offered_rps"] = float64(wn.offered) / wn.seconds
		m["achieved_rps"] = float64(wn.achieved) / wn.seconds
	}

	m["serve.service_p50_us"] = quantile(wn.svc, 0.50)
	m["serve.service_p99_us"] = quantile(wn.svc, 0.99)
	m["serve.transport_p50_us"] = quantile(wn.transport, 0.50)
	var coReqs, coRows, coBatches, reqs float64
	for i, a := range ph.after.serve {
		b := ph.before.serve[i]
		coReqs += float64(a.CoalescedRequests - b.CoalescedRequests)
		coRows += float64(a.CoalescedRows - b.CoalescedRows)
		coBatches += float64(a.CoalescedBatches - b.CoalescedBatches)
		reqs += float64(opCount(a, 'C') - opCount(b, 'C') + opCount(a, 'B') - opCount(b, 'B'))
	}
	m["serve.coalesced_share"] = ratio(coReqs, reqs)
	m["serve.rows_per_coalesced_batch"] = ratio(coRows, coBatches)
	m["serve.cpu_us_per_row"] = ratio(float64(ph.after.serveCPU-ph.before.serveCPU)/1e3, float64(wn.rows))
	for _, k := range []string{"router.cpu_us_per_req", "router.backend_skew", "router.shed", "router.retries"} {
		m[k] = 0
	}
	if a, b := ph.after.router, ph.before.router; a != nil && b != nil && a.Router != nil && b.Router != nil {
		m["router.cpu_us_per_req"] = ratio(float64(ph.after.routerCPU-ph.before.routerCPU)/1e3, float64(wn.attempted))
		m["router.shed"] = float64(a.Router.Shed - b.Router.Shed)
		m["router.retries"] = float64(a.Router.Retries - b.Router.Retries)
		var total, most float64
		for i, be := range a.Router.Backends {
			d := float64(be.Routed - b.Router.Backends[i].Routed)
			total += d
			most = math.Max(most, d)
		}
		m["router.backend_skew"] = ratio(most, total) * float64(len(a.Router.Backends))
	}
	return m
}

// atReferenceSpeed converts measured times to the reference host's
// speed, scaling them by f (see speedFactor). Rows per second scale by
// 1/f where a closed loop
// sets the pace; an open loop's rate is the schedule's, not a speed. The
// generator's lateness, the offered and achieved request rates (the
// validity check's inputs) and the probe itself stay as measured.
func atReferenceSpeed(m map[string]float64, f float64, closedLoop bool) {
	for k, v := range m {
		switch {
		case k == "gen.lag_p99_ms" || k == "host.probe_us":
		case unitOf(k) == "ms" || unitOf(k) == "us" || unitOf(k) == "s":
			m[k] = v * f
		case unitOf(k) == "rows/s" && closedLoop:
			m[k] = v / f
		}
	}
}

func opCount(st bolt.ServerStats, op byte) uint64 {
	for _, o := range st.Ops {
		if o.Op == op {
			return o.Count
		}
	}
	return 0
}

// spanTotals sums a traced phase's kernel spans inside the window.
type spanTotals struct {
	rowN, batchCalls, batchRows, parCalls, parRows float64
	rowNs, batchNs, parNs                          float64
}

func sumSpans(ph *phase) spanTotals {
	var t spanTotals
	lo, hi := ph.tr.wallBase+ph.plan.warm, ph.tr.wallBase+ph.plan.end
	for _, f := range ph.spans {
		for i, k := range f.Kind {
			if f.Start[i] < lo || f.Start[i] >= hi {
				continue
			}
			d, rows := float64(f.End[i]-f.Start[i]), float64(f.Rows[i])
			switch k {
			case spanRow:
				t.rowN++
				t.rowNs += d
			case spanBatch:
				t.batchCalls++
				t.batchRows += rows
				t.batchNs += d
			case spanParallel:
				t.parCalls++
				t.parRows += rows
				t.parNs += d
			}
		}
	}
	return t
}

// tracedMetrics computes the span-based layer metrics from a traced
// phase; core.us_per_row, the mean engine time per row over every
// kernel, is the core self time. workers is the tier's engine-pool size;
// a parallel-kernel span holds every engine of its pool.
func tracedMetrics(ph *phase, wn *window, workers float64) map[string]float64 {
	t := sumSpans(ph)
	m := map[string]float64{}
	rows := t.rowN + t.batchRows + t.parRows
	coreUs := ratio((t.rowNs+t.batchNs+t.parNs)/1e3, rows)
	m["core.us_per_row"] = coreUs
	m["core.row_us"] = ratio(t.rowNs/1e3, t.rowN)
	m["core.batch_us_per_row"] = ratio(t.batchNs/1e3, t.batchRows)
	m["core.batch_rows_per_call"] = ratio(t.batchRows, t.batchCalls)
	m["core.parallel_us_per_row"] = ratio(t.parNs/1e3, t.parRows)
	m["core.parallel_calls"] = t.parCalls
	m["core.rows_share_batched"] = ratio(t.batchRows+t.parRows, rows)
	perPool := workers / float64(len(ph.spans))
	m["core.busy_share"] = ratio((t.rowNs+t.batchNs+t.parNs*perPool)/1e9, wn.seconds*workers)
	m["serve.dispatch_us_per_row"] = ratio(float64(wn.svcNs)/1e3, float64(wn.rows)) - coreUs
	m["setup.decode_ms"] = quantile(durations(ph.decode), 0.5) / 1e6
	m["setup.compile_ms"] = quantile(durations(ph.compile), 0.5) / 1e6
	return m
}

// traceRecord is one traced run in bench-trace.json: one span per
// request as the generator saw it (times in ns after the traffic base,
// recv 0 = no reply) and the kernel spans each host
// recorded (Unix ns; base_unix_ns places them on the same axis).
type traceRecord struct {
	Workload   string      `json:"workload"`
	Seed       uint64      `json:"seed"`
	BaseUnixNs int64       `json:"base_unix_ns"`
	WindowNs   [2]int64    `json:"window_ns"`
	Due        []int64     `json:"due"`
	Sent       []int64     `json:"sent"`
	Recv       []int64     `json:"recv"`
	ServiceNs  []int64     `json:"service_ns"`
	Status     []int       `json:"status"`
	Rows       []int       `json:"rows"`
	Engine     []*spanFile `json:"engine_spans"`
}

func newTraceRecord(name string, seed uint64, ph *phase) *traceRecord {
	p, tr := ph.plan, ph.tr
	t := &traceRecord{Workload: name, Seed: seed, BaseUnixNs: tr.wallBase, WindowNs: [2]int64{p.warm, p.end}, Engine: ph.spans}
	for i, r := range p.reqs {
		o := tr.out[i]
		due := r.due
		if i >= p.open {
			if o.sent < 0 {
				continue
			}
			due = o.sent
		}
		t.Due = append(t.Due, due)
		t.Sent = append(t.Sent, o.sent)
		t.Recv = append(t.Recv, o.recv)
		t.ServiceNs = append(t.ServiceNs, o.svc)
		t.Status = append(t.Status, int(o.status))
		t.Rows = append(t.Rows, len(p.frames[r.frame].want))
	}
	return t
}

// isolatedKernel times Predict and PredictBatchInto on the forest the
// servers compile, over the workload's rows, in this process with the
// servers stopped: the reference for the in-situ core numbers.
func isolatedKernel(in *inputs, batch int) (rowUs, batchUs float64, err error) {
	bf, err := bolt.Compile(in.forest, serveOptions)
	if err != nil {
		return 0, 0, err
	}
	p := bolt.NewPredictor(bf)
	batch = max(1, min(batch, len(in.rows)))
	out := make([]int, batch)
	rowPass := func() float64 {
		start := time.Now()
		for _, x := range in.rows {
			p.Predict(x)
		}
		return float64(time.Since(start)) / 1e3 / float64(len(in.rows))
	}
	batchPass := func() float64 {
		start, n := time.Now(), 0
		for lo := 0; lo+batch <= len(in.rows); lo += batch {
			p.PredictBatchInto(in.rows[lo:lo+batch], out)
			n += batch
		}
		return float64(time.Since(start)) / 1e3 / float64(n)
	}
	rowPass()
	batchPass()
	var rt, bt []float64
	for i := 0; i < 5; i++ {
		rt = append(rt, rowPass())
		bt = append(bt, batchPass())
	}
	return quantile(rt, 0.5), quantile(bt, 0.5), nil
}

// typical is the q-quantile of a typical second of the window: the
// median, over one-second slices, of each slice's q-quantile. A few bad
// seconds (a host whose other tenants stall it, or a scheduling hiccup
// on one of routed's four hops) then do not decide the run, while a
// change that slows most seconds moves it as before; p99_window_ms keeps
// the whole window's tail. Slices keep at least 1,000 samples, so p99
// has ten beyond it; with fewer, the whole window is one slice.
func typical(v []float64, at []int64, q float64, p *plan) float64 {
	k := min(int((p.end-p.warm)/int64(time.Second)), len(v)/1000)
	if k <= 1 {
		return quantile(v, q)
	}
	slices := make([][]float64, k)
	for i, x := range v {
		s := min(int((at[i]-p.warm)*int64(k)/(p.end-p.warm)), k-1)
		slices[s] = append(slices[s], x)
	}
	qs := make([]float64, k)
	for i, s := range slices {
		qs[i] = quantile(s, q)
	}
	_, med, _ := quartiles(qs)
	return med
}

// quantile is the nearest-rank q-quantile (0 for no samples).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) computes them (the
// "exclusive" method), so spreads here match that tool's.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	q := [3]float64{}
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*m/4, len(s)-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

func durations(ds []time.Duration) []float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d)
	}
	return v
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// describe renders a workload for the run header.
func describe(w workload) string {
	s := fmt.Sprintf("mnist %dx%d", w.forest.trees, w.forest.depth)
	if w.routed {
		s += ", bolt-router over 2 single-worker backends"
	}
	switch {
	case w.rowDepth > 0:
		s += fmt.Sprintf(", single rows closed loop, %d in flight on each of %d conn(s)", w.rowDepth, w.rowConns)
	case w.rate > 0:
		s += fmt.Sprintf(", Poisson %.0f req/s single rows on %d conn(s)", w.rate, w.rowConns)
	}
	switch {
	case w.batchRows > 0 && w.batchEvery > 0:
		s += fmt.Sprintf(", one %d-row batch every %v", w.batchRows, w.batchEvery)
	case w.batchRows > 0:
		s += fmt.Sprintf(", %d-row batches closed loop, %d in flight", w.batchRows, w.batchDepth)
	}
	return s
}
