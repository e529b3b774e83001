// Command bolt-client drives a running bolt-serve instance: it streams
// samples from a synthetic dataset through the service sequentially
// without batching (the §6 measurement protocol) and reports accuracy
// and the service-time distribution.
//
// The `stats` subcommand fetches the server's request counters and
// per-op latency histograms; `health` reports readiness, worker count,
// reload count and the model checksum; `reload` asks the server to
// hot-swap its model. -retries/-backoff arm automatic reconnect with
// exponential backoff for idempotent requests, so measurement runs
// survive a server restart or hot reload.
//
// Usage:
//
//	bolt-client -socket /tmp/bolt.sock -dataset mnist -n 1000
//	bolt-client -socket /tmp/bolt.sock -dataset mnist -n 1 -salience
//	bolt-client -socket /tmp/bolt.sock -retries 5 -backoff 20ms -batch 64
//	bolt-client stats -socket /tmp/bolt.sock
//	bolt-client health -socket /tmp/bolt.sock
//	bolt-client reload -socket /tmp/bolt.sock [-path /new/model.bin]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"bolt"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bolt-client:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "stats":
			return runStats(args[1:])
		case "health":
			return runHealth(args[1:])
		case "reload":
			return runReload(args[1:])
		}
	}
	fs := flag.NewFlagSet("bolt-client", flag.ContinueOnError)
	var (
		socket   = fs.String("socket", "/tmp/bolt.sock", "server address: UNIX socket path or TCP host:port")
		dsName   = fs.String("dataset", "mnist", "dataset: mnist, lstw, yelp or friedman")
		n        = fs.Int("n", 1000, "samples to send")
		seed     = fs.Uint64("seed", 909, "probe dataset seed (differs from training)")
		salience = fs.Bool("salience", false, "also request salience for the first sample")
		value    = fs.Bool("value", false, "regression mode: request values and report RMSE")
		batch    = fs.Int("batch", 0, "classify in batches of this size instead of one at a time")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-request deadline; 0 waits forever")
		retries  = fs.Int("retries", 0, "retry idempotent requests up to this many times after transport errors")
		backoff  = fs.Duration("backoff", 10*time.Millisecond, "initial retry backoff (doubles per attempt, with jitter)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("-n must be at least 1, got %d", *n)
	}
	if *batch < 0 {
		return fmt.Errorf("-batch must not be negative, got %d (0 classifies one at a time)", *batch)
	}
	if *retries < 0 {
		return fmt.Errorf("-retries must not be negative, got %d (0 disables retry)", *retries)
	}
	if *timeout < 0 {
		return fmt.Errorf("-timeout must not be negative, got %v (0 waits forever)", *timeout)
	}
	if *retries > 0 && *backoff <= 0 {
		return fmt.Errorf("-backoff must be positive when -retries is set, got %v", *backoff)
	}

	var d *bolt.Dataset
	switch *dsName {
	case "mnist":
		d = bolt.SyntheticMNIST(*n, *seed)
	case "lstw":
		d = bolt.SyntheticLSTW(*n, *seed)
	case "yelp":
		d = bolt.SyntheticYelp(*n, *seed)
	case "friedman":
		d = bolt.SyntheticFriedman(*n, 1.0, *seed)
	default:
		return fmt.Errorf("unknown dataset %q", *dsName)
	}

	c, err := dial(*socket, *timeout, *retries, *backoff)
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		return fmt.Errorf("ping: %w", err)
	}

	if *value {
		pred := make([]float32, d.Len())
		lat := make([]uint64, 0, d.Len())
		for i, x := range d.X {
			v, ns, err := c.PredictValue(x)
			if err != nil {
				return fmt.Errorf("sample %d: %w", i, err)
			}
			pred[i] = v
			lat = append(lat, ns)
		}
		stats := bolt.SummarizeLatencies(lat)
		if d.IsRegression() {
			fmt.Printf("predicted %d samples: RMSE %.3f\n", d.Len(), bolt.RMSE(pred, d.Values))
		} else {
			fmt.Printf("predicted %d samples\n", d.Len())
		}
		fmt.Printf("service time: avg %v  p50 %v  p99 %v  max %v\n",
			stats.Avg, stats.P50, stats.P99, stats.Max)
		return nil
	}

	pred := make([]int, d.Len())
	var lat []uint64
	if *batch > 1 {
		var totalNs uint64
		for lo := 0; lo < d.Len(); lo += *batch {
			hi := lo + *batch
			if hi > d.Len() {
				hi = d.Len()
			}
			labels, ns, err := c.ClassifyBatch(d.X[lo:hi])
			if err != nil {
				return fmt.Errorf("batch at %d: %w", lo, err)
			}
			copy(pred[lo:hi], labels)
			totalNs += ns
		}
		fmt.Printf("classified %d samples in batches of %d: accuracy %.3f\n",
			d.Len(), *batch, bolt.Accuracy(pred, d.Y))
		fmt.Printf("amortised service time: %.3fus/sample\n", float64(totalNs)/float64(d.Len())/1000)
		return nil
	}
	lat = make([]uint64, 0, d.Len())
	for i, x := range d.X {
		label, ns, err := c.Classify(x)
		if err != nil {
			return fmt.Errorf("sample %d: %w", i, err)
		}
		pred[i] = label
		lat = append(lat, ns)
	}
	stats := bolt.SummarizeLatencies(lat)
	fmt.Printf("classified %d samples: accuracy %.3f\n", d.Len(), bolt.Accuracy(pred, d.Y))
	fmt.Printf("service time: avg %v  p50 %v  p99 %v  max %v\n",
		stats.Avg, stats.P50, stats.P99, stats.Max)

	if *salience {
		counts, err := c.Salience(d.X[0])
		if err != nil {
			return err
		}
		type fc struct{ feature, count int }
		top := make([]fc, 0, len(counts))
		for f, n := range counts {
			if n > 0 {
				top = append(top, fc{f, n})
			}
		}
		sort.Slice(top, func(i, j int) bool { return top[i].count > top[j].count })
		if len(top) > 10 {
			top = top[:10]
		}
		fmt.Println("top salient features of sample 0:")
		for _, t := range top {
			fmt.Printf("  feature %4d  used by %d matched entries\n", t.feature, t.count)
		}
	}
	return nil
}

// dial connects with the shared timeout and optional retry policy.
func dial(socket string, timeout time.Duration, retries int, backoff time.Duration) (*bolt.ServiceClient, error) {
	c, err := bolt.DialServiceTimeout(socket, timeout)
	if err != nil {
		return nil, err
	}
	if retries > 0 {
		c.SetRetry(bolt.RetryPolicy{MaxRetries: retries, Backoff: backoff})
	}
	return c, nil
}

// runStats implements the `stats` subcommand.
func runStats(args []string) error {
	fs := flag.NewFlagSet("bolt-client stats", flag.ContinueOnError)
	var (
		socket  = fs.String("socket", "/tmp/bolt.sock", "server address: UNIX socket path or TCP host:port")
		timeout = fs.Duration("timeout", 30*time.Second, "per-request deadline; 0 waits forever")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := bolt.DialServiceTimeout(*socket, *timeout)
	if err != nil {
		return err
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("server: %d workers, %d requests, %d errors, %d panics recovered, %d reloads, %d in flight\n",
		st.Workers, st.Requests, st.Errors, st.Panics, st.Reloads, st.InFlight)
	if st.Layout != bolt.StatsLayoutUnknown {
		fmt.Printf("model: %s layout, %d dictionary B + %d table B resident\n",
			bolt.StatsLayoutName(st.Layout), st.DictBytes, st.TableBytes)
	}
	fmt.Printf("parallel batches: %d\n", st.ParallelBatches)
	if st.Tier0Answered+st.TierEscalated > 0 {
		fmt.Printf("tiered: %d answered at tier 0, %d escalated (escalation rate %.3f)\n",
			st.Tier0Answered, st.TierEscalated, st.TierEscalationRate())
		fmt.Print("  escalation-rate deciles:")
		for b, n := range st.TierRate {
			if n == 0 {
				continue
			}
			if b == len(st.TierRate)-1 {
				fmt.Printf("  [1.0]=%d", n)
			} else {
				fmt.Printf("  [%.1f,%.1f)=%d", float64(b)/10, float64(b+1)/10, n)
			}
		}
		fmt.Println()
	}
	if st.Router != nil {
		// The snapshot came from bolt-router: show the tier breakdown.
		fmt.Printf("router: %d shed, %d failover retries\n", st.Router.Shed, st.Router.Retries)
		for _, b := range st.Router.Backends {
			fmt.Printf("  backend %s: state=%s routed=%d retried=%d failures=%d trips=%d readmits=%d inflight=%d\n",
				b.Addr, bolt.BackendStateName(b.State), b.Routed, b.Retried,
				b.Failures, b.BreakerTrips, b.Readmits, b.InFlight)
		}
	}
	for _, op := range st.Ops {
		fmt.Printf("  op %c: %6d reqs  %4d errs  avg %8v  p50 <%8v  p99 <%8v\n",
			op.Op, op.Count, op.Errors,
			time.Duration(op.AvgNs()),
			time.Duration(op.QuantileNs(0.50)),
			time.Duration(op.QuantileNs(0.99)))
	}
	return nil
}

// runHealth implements the `health` subcommand.
func runHealth(args []string) error {
	fs := flag.NewFlagSet("bolt-client health", flag.ContinueOnError)
	var (
		socket  = fs.String("socket", "/tmp/bolt.sock", "server address: UNIX socket path or TCP host:port")
		timeout = fs.Duration("timeout", 30*time.Second, "per-request deadline; 0 waits forever")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := bolt.DialServiceTimeout(*socket, *timeout)
	if err != nil {
		return err
	}
	defer c.Close()
	h, err := c.Health()
	if err != nil {
		return err
	}
	fmt.Printf("state %s, %d workers, %d reloads, model %s\n",
		bolt.HealthStateName(h.State), h.Workers, h.Reloads, h.ModelChecksum)
	return nil
}

// runReload implements the `reload` subcommand: ask the server to
// hot-swap its model via the OpReload admin op.
func runReload(args []string) error {
	fs := flag.NewFlagSet("bolt-client reload", flag.ContinueOnError)
	var (
		socket  = fs.String("socket", "/tmp/bolt.sock", "server address: UNIX socket path or TCP host:port")
		path    = fs.String("path", "", "model path to load; empty reloads the server's configured path")
		timeout = fs.Duration("timeout", 30*time.Second, "per-request deadline; 0 waits forever")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := bolt.DialServiceTimeout(*socket, *timeout)
	if err != nil {
		return err
	}
	defer c.Close()
	sum, err := c.TriggerReload(*path)
	if err != nil {
		return err
	}
	fmt.Printf("reloaded, model %s\n", sum)
	return nil
}
