// Command batchverify runs many independent synthesis instances
// concurrently on the internal/batch worker pool and reports
// per-instance verdicts plus aggregate throughput.
//
//	batchverify -seed 1 -n 64 -workers 8
//	batchverify -scenarios -workers 2 -deadline 5s
//	batchverify -manifest batch.jsonl -journal run.jsonl -metrics
//	batchverify -n 256 -http 127.0.0.1:8473 -linger
//
// Instances come from one of three sources: seeded generator instances
// (-seed/-n, optionally -wide/-max-states), the railroad-crossing example
// scenarios (-scenarios), or a JSONL manifest (-manifest) with lines like
// {"seed": 42, "config": "wide"}.
//
// -store layers the persistent on-disk memo store (internal/memostore)
// under the in-memory closure cache, so repeated runs against the
// same directory warm-start shared constructions instead of recomputing
// them; cmd/verifyd serves the same store as a long-running service.
//
// -http serves the live observability plane while the batch runs:
// Prometheus metrics on /metrics, a JSON progress snapshot (verdict
// tallies, queue depth, cache hit rate, ETA) on /progress, the journal's
// flight-recorder tail as a live SSE stream on /events and as a JSON
// snapshot on /journal/tail, plus /healthz and /debug/pprof. With
// -linger the server stays up after the batch
// completes until the process is interrupted, so the final snapshot can
// be scraped. SIGINT/SIGTERM cancel the run gracefully: running
// instances abort, the pool drains, and the journal and metrics sinks
// flush before exit.
//
// Exit status: 0 when every instance reached a verdict, 1 when any
// errored or panicked, 2 on usage errors, 3 when instances timed out or
// were canceled by an interrupt (but none hard-errored).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"muml/internal/automata"
	"muml/internal/batch"
	"muml/internal/core"
	"muml/internal/gen"
	"muml/internal/memostore"
	"muml/internal/obs"
	"muml/internal/obs/httpd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("batchverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workers   = fs.Int("workers", 0, "worker-pool size (0 = GOMAXPROCS)")
		deadline  = fs.Duration("deadline", 0, "per-instance deadline (0 = unbounded)")
		manifest  = fs.String("manifest", "", "JSONL manifest of instances (one {\"seed\":..,\"config\":..} per line)")
		scenarios = fs.Bool("scenarios", false, "run the railroad-crossing example scenarios")
		seed      = fs.Int64("seed", 1, "generator seed of the first instance")
		n         = fs.Int("n", 64, "number of generated instances")
		wide      = fs.Bool("wide", false, "use the wide-alphabet generator configuration")
		maxStates = fs.Int("max-states", 0, "cap on states per generated automaton (0 = generator default)")
		noMemo    = fs.Bool("no-memo", false, "disable the shared closure memo cache")
		storeDir  = fs.String("store", "", "persistent memo-store directory layered under the cache (warm-starts across runs)")
		storeMax  = fs.Int64("store-max-bytes", memostore.DefaultMaxBytes, "on-disk store size cap in payload bytes (negative = unbounded)")
		journal   = fs.String("journal", "", "write the batch event journal (JSONL) to this file")
		metrics   = fs.Bool("metrics", false, "print batch counters and timers on exit")
		httpAddr  = fs.String("http", "", "serve /metrics, /progress, /events, /journal/tail, /healthz, and /debug/pprof on this address while the batch runs")
		linger    = fs.Bool("linger", false, "with -http: keep serving after the batch completes until interrupted")
		sample    = fs.Duration("sample-interval", 0, "sample runtime resources (heap, GC, goroutines) at this period into the journal and metrics (0 = off)")
		verbose   = fs.Bool("v", false, "print every instance result, not just the summary")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "batchverify: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *manifest != "" && *scenarios {
		fmt.Fprintf(stderr, "batchverify: -manifest and -scenarios are mutually exclusive\n")
		return 2
	}

	var items []batch.Item
	switch {
	case *manifest != "":
		f, err := os.Open(*manifest)
		if err != nil {
			fmt.Fprintf(stderr, "batchverify: %v\n", err)
			return 2
		}
		items, err = batch.ManifestItems(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "batchverify: %v\n", err)
			return 2
		}
	case *scenarios:
		items = batch.ScenarioItems()
	default:
		if *n <= 0 {
			fmt.Fprintf(stderr, "batchverify: -n must be positive\n")
			return 2
		}
		cfg := gen.DefaultConfig()
		if *wide {
			cfg = gen.WideConfig()
		}
		if *maxStates > 0 {
			cfg.MaxLegacyStates = *maxStates
			cfg.MaxContextStates = *maxStates
		}
		items = batch.GenItems(*seed, *n, cfg)
	}
	if len(items) == 0 {
		fmt.Fprintf(stderr, "batchverify: no instances to run\n")
		return 2
	}

	ringSize := 0
	if *httpAddr != "" {
		ringSize = obs.DefaultRingSize
	}
	obsRun, err := obs.OpenRun(obs.RunOptions{JournalPath: *journal, Metrics: *metrics || *httpAddr != "", RingSize: ringSize})
	if err != nil {
		fmt.Fprintf(stderr, "batchverify: %v\n", err)
		return 1
	}
	defer obsRun.Close()

	if *sample > 0 {
		sampler := obs.StartRuntimeSampler(obs.RuntimeSamplerOptions{
			Interval: *sample,
			Journal:  obsRun.Journal,
			Registry: obsRun.Registry,
		})
		// LIFO defers: the sampler takes its final sample and stops before
		// obsRun.Close flushes the journal.
		defer sampler.Stop()
	}

	// SIGINT/SIGTERM cancel the run context: running instances abort,
	// the pool drains, and the deferred obsRun.Close flushes the journal
	// so an interrupted run still leaves valid JSONL behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	progress := batch.NewProgress()
	var srv *httpd.Server
	if *httpAddr != "" {
		srv, err = httpd.Start(*httpAddr, httpd.Options{
			Registry: obsRun.Registry,
			Progress: func() any { return progress.Snapshot() },
			Events:   obsRun.Ring,
		})
		if err != nil {
			fmt.Fprintf(stderr, "batchverify: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "batchverify: serving /metrics /progress /events /journal/tail /healthz /debug/pprof on http://%s\n", srv.Addr())
	}

	var memo *automata.MemoCache
	var store *memostore.Store
	if !*noMemo {
		memo = automata.NewMemoCache(obsRun.Journal)
		if *storeDir != "" {
			store, err = memostore.Open(*storeDir, memostore.Options{
				MaxBytes: *storeMax,
				Journal:  obsRun.Journal,
				Metrics:  obsRun.Registry,
			})
			if err != nil {
				fmt.Fprintf(stderr, "batchverify: %v\n", err)
				return 1
			}
			defer store.Close()
			memo.SetBackend(store)
		}
	} else if *storeDir != "" {
		fmt.Fprintf(stderr, "batchverify: -store requires the memo cache (drop -no-memo)\n")
		return 2
	}
	sum, err := batch.Verify(items, batch.Options{
		Workers:  *workers,
		Deadline: *deadline,
		Context:  ctx,
		Memo:     memo,
		Journal:  obsRun.Journal,
		Metrics:  obsRun.Registry,
		Progress: progress,
	})
	if err != nil {
		fmt.Fprintf(stderr, "batchverify: %v\n", err)
		return 1
	}
	// Distinguish an interrupt that cut the batch short (exit 3) from one
	// that merely ends a -linger wait after a complete run (exit 0).
	interrupted := ctx.Err() != nil

	hardErrors := 0
	for _, res := range sum.Results {
		if res.Err != nil && !res.TimedOut {
			hardErrors++
		}
		if *verbose || res.Err != nil {
			w := stdout
			if res.Err != nil {
				w = stderr
			}
			fmt.Fprintf(w, "%s\n", describe(res))
		}
	}

	fmt.Fprintf(stdout,
		"batchverify: %d instances on %d workers in %v (%.1f/s): %d proven, %d violations, %d timed out, %d errors\n",
		len(sum.Results), sum.Workers, sum.Duration.Round(time.Millisecond), sum.Throughput(),
		sum.Proven, sum.Violations, sum.TimedOut, sum.Errored-sum.TimedOut)
	if memo != nil {
		hits, misses, entries := memo.Stats()
		fmt.Fprintf(stdout, "batchverify: memo cache: %d hits, %d misses, %d entries\n", hits, misses, entries)
	}
	if store != nil {
		hits, misses, evictions, entries, bytes := store.Stats()
		fmt.Fprintf(stdout, "batchverify: memo store: %d hits, %d misses, %d evictions, %d records, %d bytes\n",
			hits, misses, evictions, entries, bytes)
	}
	if *metrics {
		obsRun.DumpMetrics(stdout)
	}

	if *linger && srv != nil && ctx.Err() == nil {
		fmt.Fprintf(stderr, "batchverify: batch complete, lingering on http://%s until interrupted\n", srv.Addr())
		<-ctx.Done()
	}

	switch {
	case hardErrors > 0:
		return 1
	case sum.TimedOut > 0, interrupted:
		return 3
	}
	return 0
}

func describe(res batch.Result) string {
	switch {
	case res.TimedOut:
		return fmt.Sprintf("%-28s TIMEOUT after %v (worker %d): %v",
			res.Name, res.Duration.Round(time.Millisecond), res.Worker, res.Err)
	case res.Panicked:
		return fmt.Sprintf("%-28s PANIC (worker %d): %v", res.Name, res.Worker, res.Err)
	case res.Err != nil:
		return fmt.Sprintf("%-28s ERROR (worker %d): %v", res.Name, res.Worker, res.Err)
	case res.Verdict == core.VerdictViolation:
		return fmt.Sprintf("%-28s %s (%s) in %d iterations, %v (worker %d)",
			res.Name, res.Verdict, res.Kind, res.Iterations,
			res.Duration.Round(time.Millisecond), res.Worker)
	default:
		return fmt.Sprintf("%-28s %s in %d iterations, %v (worker %d)",
			res.Name, res.Verdict, res.Iterations,
			res.Duration.Round(time.Millisecond), res.Worker)
	}
}
