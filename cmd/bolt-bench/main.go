// Command bolt-bench regenerates the paper's evaluation (Figs. 8–15)
// as text tables; EXPERIMENTS.md records its output against the
// paper's reported values.
//
// Usage:
//
//	bolt-bench                 # every figure, full-size workloads
//	bolt-bench -exp fig11a     # one figure
//	bolt-bench -quick          # shrunken workloads (seconds, for CI)
//	bolt-bench -json dev       # batch-kernel report to BENCH_dev.json
//	bolt-bench -list
package main

import (
	"flag"
	"fmt"
	"os"

	"bolt/internal/bench"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bolt-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bolt-bench", flag.ContinueOnError)
	var (
		exp    = fs.String("exp", "all", "experiment id (fig8..fig15) or all")
		quick  = fs.Bool("quick", false, "shrink workloads for a fast smoke run")
		list   = fs.Bool("list", false, "list experiments and exit")
		seed   = fs.Uint64("seed", 0, "override workload seed")
		train  = fs.Int("train", 0, "override training samples per dataset")
		test   = fs.Int("test", 0, "override test samples per dataset")
		rounds = fs.Int("rounds", 0, "override timed rounds")
		jsonL  = fs.String("json", "", "also run the batch-kernel experiment and write BENCH_<label>.json (the perf-trajectory artifact; schema in EXPERIMENTS.md)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range bench.Experiments {
			fmt.Printf("%-8s %s\n", e.ID, e.Desc)
		}
		return nil
	}
	cfg := bench.Config{
		Quick:        *quick,
		Seed:         *seed,
		TrainSamples: *train,
		TestSamples:  *test,
		Rounds:       *rounds,
	}
	if *jsonL != "" {
		switch *exp {
		case "pbatch":
			return writePBatchJSON(cfg, *jsonL)
		case "footprint":
			return writeFootprintJSON(cfg, *jsonL)
		case "tiered":
			return writeTieredJSON(cfg, *jsonL)
		}
		return writeBatchJSON(cfg, *jsonL)
	}
	if *exp == "all" {
		return bench.RunAll(cfg, os.Stdout)
	}
	return bench.Run(*exp, cfg, os.Stdout)
}

// writeBatchJSON measures the batch kernel, renders the table to
// stdout, and writes the machine-readable report to BENCH_<label>.json.
func writeBatchJSON(cfg bench.Config, label string) error {
	rep, err := bench.BatchKernelReport(cfg)
	if err != nil {
		return err
	}
	if err := bench.RenderBatchReport(rep, os.Stdout); err != nil {
		return err
	}
	return writeJSONArtifact(label, func(f *os.File) error { return rep.WriteJSON(f, label) })
}

// writePBatchJSON is writeBatchJSON for the parallel-batch scaling
// experiment (-exp pbatch -json pbatch → BENCH_pbatch.json).
func writePBatchJSON(cfg bench.Config, label string) error {
	rep, err := bench.PBatchReportRun(cfg)
	if err != nil {
		return err
	}
	if err := bench.RenderPBatchReport(rep, os.Stdout); err != nil {
		return err
	}
	return writeJSONArtifact(label, func(f *os.File) error { return rep.WriteJSON(f, label) })
}

// writeFootprintJSON is writeBatchJSON for the compact-layout
// experiment (-exp footprint -json compact → BENCH_compact.json).
func writeFootprintJSON(cfg bench.Config, label string) error {
	rep, err := bench.FootprintReportRun(cfg)
	if err != nil {
		return err
	}
	if err := bench.RenderFootprintReport(rep, os.Stdout); err != nil {
		return err
	}
	return writeJSONArtifact(label, func(f *os.File) error { return rep.WriteJSON(f, label) })
}

// writeTieredJSON is writeBatchJSON for the tiered early-exit
// experiment (-exp tiered -json tiered → BENCH_tiered.json).
func writeTieredJSON(cfg bench.Config, label string) error {
	rep, err := bench.TieredReportRun(cfg)
	if err != nil {
		return err
	}
	if err := bench.RenderTieredReport(rep, os.Stdout); err != nil {
		return err
	}
	return writeJSONArtifact(label, func(f *os.File) error { return rep.WriteJSON(f, label) })
}

func writeJSONArtifact(label string, write func(*os.File) error) error {
	path := fmt.Sprintf("BENCH_%s.json", label)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return f.Close()
}
