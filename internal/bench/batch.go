package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"
)

// BatchRecord is one (workload, forest shape) measurement of the
// cache-blocked batch kernel against row-at-a-time inference. The
// ns/sample figures are single-core steady state; Speedup is
// single/batch.
type BatchRecord struct {
	Workload          string  `json:"workload"`
	Trees             int     `json:"trees"`
	Height            int     `json:"height"`
	Threshold         int     `json:"threshold"`
	Samples           int     `json:"samples"`
	Block             int     `json:"block"`
	DictEntries       int     `json:"dict_entries"`
	TableSlots        int     `json:"table_slots"`
	SingleNsPerSample float64 `json:"single_ns_per_sample"`
	BatchNsPerSample  float64 `json:"batch_ns_per_sample"`
	Speedup           float64 `json:"speedup"`
}

// BatchReport is the machine-readable artifact bolt-bench -json emits
// (BENCH_<label>.json); EXPERIMENTS.md documents the schema.
type BatchReport struct {
	Label      string        `json:"label"`
	GOOS       string        `json:"goos"`
	GOARCH     string        `json:"goarch"`
	NumCPU     int           `json:"num_cpu"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	Records    []BatchRecord `json:"records"`
}

// batchShapes are the Fig. 8 synthetic workload shapes measured by the
// batch experiment: the paper's standard small forest plus deeper and
// wider ensembles whose long dictionaries are the regime the batch
// kernel targets.
var batchShapes = []struct {
	workload string
	trees    int
	height   int
}{
	{"mnist", 10, 4},
	{"mnist", 20, 8},
	{"mnist", 30, 10},
	{"lstw", 10, 8},
	{"yelp", 10, 6},
}

// BatchKernelReport measures every batch shape and returns the report.
func BatchKernelReport(cfg Config) (*BatchReport, error) {
	cfg = cfg.normalized()
	shapes := batchShapes
	if cfg.Quick {
		shapes = shapes[:2]
	}
	rep := &BatchReport{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, sh := range shapes {
		var w Workload
		switch sh.workload {
		case "mnist":
			w = MNISTWorkload(cfg)
		case "lstw":
			w = LSTWWorkload(cfg)
		case "yelp":
			w = YelpWorkload(cfg)
		default:
			return nil, fmt.Errorf("bench: unknown batch workload %q", sh.workload)
		}
		f := TrainForest(w, sh.trees, sh.height, cfg.Seed^uint64(sh.trees*100+sh.height))
		bf, th, err := CompileAuto(f, cfg, w.Test.X)
		if err != nil {
			return nil, err
		}
		X := w.Test.X
		s := bf.NewScratch()
		out := make([]int, len(X))
		single := TimePerSample(boltPredictor(bf), X, cfg.Rounds)
		batch := timeBatch(func() { bf.PredictBatchInto(X, s, out) }, len(X), cfg.Rounds)
		stats := bf.Stats()
		rep.Records = append(rep.Records, BatchRecord{
			Workload:          w.Name,
			Trees:             sh.trees,
			Height:            sh.height,
			Threshold:         th,
			Samples:           len(X),
			Block:             bf.DefaultBatchBlock(),
			DictEntries:       stats.DictEntries,
			TableSlots:        stats.TableSlots,
			SingleNsPerSample: single,
			BatchNsPerSample:  batch,
			Speedup:           single / batch,
		})
	}
	return rep, nil
}

// timeBatch times run (which processes `samples` rows per call): one
// warmup call (which also grows the batch scratch), then rounds timed
// calls, returning ns/sample.
func timeBatch(run func(), samples, rounds int) float64 {
	if samples == 0 {
		return 0
	}
	if rounds < 1 {
		rounds = 1
	}
	run()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		run()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*samples)
}

// WriteJSON renders the report with the given label.
func (r *BatchReport) WriteJSON(w io.Writer, label string) error {
	r.Label = label
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// FigBatch renders the batch-kernel comparison as a text table (extra
// experiment, not a paper figure: the paper serves one request at a
// time, the batch kernel is this repo's throughput-serving extension).
func FigBatch(cfg Config) (*Table, error) {
	rep, err := BatchKernelReport(cfg)
	if err != nil {
		return nil, err
	}
	return batchTable(rep), nil
}

// RenderBatchReport renders an already-measured report as the same
// table FigBatch produces (bolt-bench -json prints both views).
func RenderBatchReport(rep *BatchReport, w io.Writer) error {
	return batchTable(rep).Render(w)
}

func batchTable(rep *BatchReport) *Table {
	t := &Table{
		Title:   "Batch: cache-blocked batch kernel vs row-at-a-time, ns/sample",
		Columns: []string{"workload", "trees", "height", "dict-entries", "block", "row ns", "batch ns", "speedup"},
	}
	for _, r := range rep.Records {
		t.AddRow(r.Workload, fmt.Sprintf("%d", r.Trees), fmt.Sprintf("%d", r.Height),
			fmt.Sprintf("%d", r.DictEntries), fmt.Sprintf("%d", r.Block),
			r.SingleNsPerSample, r.BatchNsPerSample, r.Speedup)
	}
	t.Note("single core; batch = encode to predicate-major columns, dictionary entries outer; " +
		"speedup grows with dictionary length (row path re-scans the dictionary per sample)")
	return t
}
