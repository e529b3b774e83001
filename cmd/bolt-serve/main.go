// Command bolt-serve loads a trained forest model, compiles it into a
// Bolt forest (optionally Phase-2 tuned) and serves classification
// requests on a UNIX domain socket — the inference service of §4.5.
//
// The service is operable: SIGHUP (or the OpReload admin op) hot-swaps
// the engine pool from the model file without dropping requests,
// SIGINT/SIGTERM drain in-flight work before exiting, and the final
// stats snapshot is always printed on the way out.
//
// Usage:
//
//	bolt-serve -model forest.bin -socket /tmp/bolt.sock -workers 8
//	bolt-serve -model forest.bin -socket /tmp/bolt.sock -tune -cores 4 -dataset mnist
//	kill -HUP $(pidof bolt-serve)   # reload forest.bin in place
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"os/signal"
	"syscall"
	"time"

	"bolt"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bolt-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bolt-serve", flag.ContinueOnError)
	var (
		model      = fs.String("model", "forest.bin", "trained forest model path")
		compiled   = fs.String("compiled", "", "precompiled artifact from bolt-compile -out (skips compilation)")
		socket     = fs.String("socket", "/tmp/bolt.sock", "UNIX socket path")
		threshold  = fs.Int("threshold", 8, "Phase 1 cluster threshold")
		bloomBits  = fs.Int("bloom", 8, "bloom filter bits per key; negative disables")
		tune       = fs.Bool("tune", false, "Phase 2 tune before serving")
		cores      = fs.Int("cores", 1, "core budget for -tune")
		dsName     = fs.String("dataset", "mnist", "dataset generating tuning probes (with -tune)")
		seed       = fs.Uint64("seed", 2022, "random seed")
		workers    = fs.Int("workers", 0, "engine-pool size; concurrent requests run on separate engines (0 = GOMAXPROCS)")
		kWorkers   = fs.Int("kernel-workers", 0, "parallel batch-kernel worker count shared by the engine pool (0 = GOMAXPROCS)")
		drain      = fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests")
		tierTrees  = fs.Int("tier-trees", 0, "tier-0 tree prefix for staged early-exit inference, applied at compile time (0 disables; exact mode needs a majority prefix)")
		tierMargin = fs.Int64("tier-margin", -1, "tiered escalation margin in vote units (negative = the model's stored policy: its calibrated threshold if one was saved, exact otherwise)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Reject nonsense sizings up front: a typo like -workers -4 should
	// fail loudly here, not surface as a confusing pool default.
	if *workers < 0 {
		return fmt.Errorf("-workers must not be negative, got %d (0 selects GOMAXPROCS)", *workers)
	}
	if *kWorkers < 0 {
		return fmt.Errorf("-kernel-workers must not be negative, got %d (0 selects GOMAXPROCS)", *kWorkers)
	}
	if *drain <= 0 {
		return fmt.Errorf("-drain must be positive, got %v", *drain)
	}
	if *tierTrees < 0 {
		return fmt.Errorf("-tier-trees must not be negative, got %d (0 disables tiering)", *tierTrees)
	}
	if *tierTrees > 0 && *compiled != "" {
		return errors.New("-tier-trees only applies when compiling from -model; a -compiled artifact's tier split is baked in (recompile with bolt-compile or bolt-serve -model)")
	}
	if *tierTrees > 0 && *tune {
		return errors.New("-tier-trees is incompatible with -tune; tune first, then serve the tuned parameters with -tier-trees")
	}

	// loadCompiled rebuilds serving artifacts from a path: it is both
	// the startup path and the SIGHUP/OpReload path, so a reload picks
	// up whatever now lives at the model file. Reloads recompile with
	// the Phase-1 flags; -tune applies to the initial load only.
	defaultPath := *model
	fromArtifact := *compiled != ""
	if fromArtifact {
		defaultPath = *compiled
	}
	loadCompiled := func(path string) (*bolt.CompiledForest, string, error) {
		if path == "" {
			path = defaultPath
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, "", err
		}
		sum := fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(raw))
		if fromArtifact {
			bf, err := bolt.DecodeCompiledForest(bytes.NewReader(raw))
			if err != nil {
				return nil, "", err
			}
			return bf, sum, nil
		}
		fst, err := bolt.DecodeForest(bytes.NewReader(raw))
		if err != nil {
			return nil, "", err
		}
		bf, err := bolt.Compile(fst, bolt.Options{
			ClusterThreshold: *threshold,
			BloomBitsPerKey:  *bloomBits,
			Seed:             *seed,
			TierTrees:        *tierTrees,
		})
		if err != nil {
			return nil, "", err
		}
		return bf, sum, nil
	}

	// mkFactory builds the engine factory for a (re)loaded forest: an
	// explicit -tier-margin pins the escalation policy on every
	// predictor, otherwise engines follow the policy stored on the model
	// (exact mode for a freshly compiled tier split).
	mkFactory := func(bf *bolt.CompiledForest) bolt.EngineFactory {
		if *tierMargin >= 0 {
			return bolt.TieredForestEngineFactory(bf, *kWorkers, bolt.TierConfig{Margin: *tierMargin})
		}
		return bolt.ParallelForestEngineFactory(bf, *kWorkers)
	}

	var bf *bolt.CompiledForest
	var sum string
	if *tune && !fromArtifact {
		raw, err := os.ReadFile(*model)
		if err != nil {
			return err
		}
		sum = fmt.Sprintf("crc32:%08x", crc32.ChecksumIEEE(raw))
		f, err := bolt.DecodeForest(bytes.NewReader(raw))
		if err != nil {
			return err
		}
		probe, err := probeInputs(*dsName, 300, f.NumFeatures, *seed)
		if err != nil {
			return err
		}
		best, _, err := bolt.Tune(f, bolt.TuneConfig{
			Cores:     *cores,
			BloomBits: []int{-1, 4, 8},
			Inputs:    probe,
		})
		if err != nil {
			return err
		}
		fmt.Printf("tuned: %s (%.2f us/sample on probes)\n", best.Candidate, best.LatencyNs/1000)
		bf = best.Forest
	} else {
		var err error
		bf, sum, err = loadCompiled("")
		if err != nil {
			return err
		}
		if fromArtifact {
			fmt.Printf("loaded precompiled artifact %s (%s)\n", *compiled, sum)
		}
	}

	reloader := func(path string) (bolt.EngineFactory, int, string, error) {
		nbf, nsum, err := loadCompiled(path)
		if err != nil {
			return nil, 0, "", err
		}
		return mkFactory(nbf), nbf.NumFeatures, nsum, nil
	}
	return serveForest(bf, sum, mkFactory(bf), reloader, *socket, *workers, *tierMargin, *drain)
}

// serveForest runs the service until interrupted. One signal handler
// covers the whole lifecycle: SIGHUP hot-reloads the model, while
// SIGINT/SIGTERM drain in-flight requests within the deadline and
// always print the request counters accumulated over the run.
func serveForest(bf *bolt.CompiledForest, sum string, factory bolt.EngineFactory, reloader bolt.ReloadFunc, socket string, workers int, tierMargin int64, drain time.Duration) error {
	// Remove a stale socket from a previous run. A removal that fails
	// for any reason other than the socket not existing would otherwise
	// resurface as a confusing bind error below.
	if err := os.Remove(socket); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("removing stale socket %s: %w", socket, err)
	}
	srv, err := bolt.ServePool(socket, factory, bf.NumFeatures, workers)
	if err != nil {
		return err
	}
	srv.SetModelChecksum(sum)
	srv.SetReloader(reloader)
	st := bf.Stats()
	fmt.Printf("serving %d-tree forest on %s with %d workers (%d dict entries, %d table slots, model %s)\n",
		bf.NumTrees, socket, srv.Workers(), st.DictEntries, st.TableSlots, sum)
	if bf.Tiered() {
		margin := tierMargin
		if margin < 0 {
			margin = bf.TierMargin
		}
		policy := "calibrated"
		if margin < 0 {
			margin = bf.ExactTierMargin()
			policy = "exact"
		}
		fmt.Printf("tiered inference on: %d of %d trees at tier 0 (%d entries), %s margin %d\n",
			bf.TierTrees, bf.NumTrees, bf.TierEntries, policy, margin)
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for sig := range sigs {
		if sig == syscall.SIGHUP {
			if err := srv.Reload(""); err != nil {
				fmt.Fprintln(os.Stderr, "bolt-serve: reload failed, keeping current model:", err)
			} else {
				fmt.Printf("reloaded model (%s)\n", srv.Healthz().ModelChecksum)
			}
			continue
		}
		fmt.Printf("caught %s, draining (deadline %s)\n", sig, drain)
		break
	}
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	err = srv.Shutdown(ctx)
	printStats(srv.Stats())
	return err
}

// printStats renders a ServerStats snapshot.
func printStats(st bolt.ServerStats) {
	fmt.Printf("served %d requests (%d errors, %d panics recovered, %d reloads, %d in flight) on %d workers\n",
		st.Requests, st.Errors, st.Panics, st.Reloads, st.InFlight, st.Workers)
	fmt.Printf("  parallel batches: %d\n", st.ParallelBatches)
	if st.Tier0Answered+st.TierEscalated > 0 {
		fmt.Printf("  tiered: %d answered at tier 0, %d escalated (escalation rate %.3f)\n",
			st.Tier0Answered, st.TierEscalated, st.TierEscalationRate())
	}
	for _, op := range st.Ops {
		fmt.Printf("  op %c: %6d reqs  %4d errs  avg %8v  p50 <%8v  p99 <%8v\n",
			op.Op, op.Count, op.Errors,
			time.Duration(op.AvgNs()),
			time.Duration(op.QuantileNs(0.50)),
			time.Duration(op.QuantileNs(0.99)))
	}
}

func probeInputs(name string, n, features int, seed uint64) ([][]float32, error) {
	var d *bolt.Dataset
	switch name {
	case "mnist":
		d = bolt.SyntheticMNIST(n, seed^0x5)
	case "lstw":
		d = bolt.SyntheticLSTW(n, seed^0x5)
	case "yelp":
		d = bolt.SyntheticYelp(n, seed^0x5)
	case "friedman":
		d = bolt.SyntheticFriedman(n, 1.0, seed^0x5)
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
	if d.NumFeatures != features {
		return nil, fmt.Errorf("dataset %s has %d features but the model expects %d", name, d.NumFeatures, features)
	}
	return d.X, nil
}
