// Command mbt soaks the synthesis loop against randomly generated
// systems with known ground truth: every verdict the loop produces is
// checked by the model-based soundness oracles (internal/mbt), and any
// failure is greedily shrunk and written to the regression corpus.
//
//	mbt -seed 1 -n 200
//	mbt -seed 1 -n 200 -nondet
//	mbt -seed 42 -n 5000 -max-states 8 -skip-laws
//	mbt -seed 7 -n 100 -journal soak.jsonl -corpus internal/mbt/testdata
//	mbt -seed 1 -n 100000 -deadline 5m
//	mbt -seed 1 -n 100000 -http 127.0.0.1:8474
//
// The run is fully reproducible: instance k uses generator seed
// seed+k, so a reported failing seed can be replayed with -seed <s> -n 1.
//
// -http serves the live observability plane for long soaks: Prometheus
// counters (mbt.instances, mbt.failures, mbt.shrunk) on /metrics, a JSON
// soak snapshot on /progress, the journal tail on /events (SSE) and
// /journal/tail (JSON), plus /healthz and /debug/pprof. SIGINT/SIGTERM
// cancel the soak gracefully — the current instance aborts, sinks flush,
// and the run reports what it covered (exit 3, like a deadline).
//
// Exit status: 0 when every instance passed, 1 on soundness failures,
// 2 on usage errors, 3 when -deadline expired or the soak was
// interrupted before finishing (no failures among the instances that
// did run).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"muml/internal/gen"
	"muml/internal/mbt"
	"muml/internal/obs"
	"muml/internal/obs/httpd"
)

// soakProgress is the /progress snapshot source for a soak run: the
// loop publishes after every instance, concurrent HTTP handlers read.
type soakProgress struct {
	mu   sync.Mutex
	snap soakSnapshot
}

type soakSnapshot struct {
	Target       int `json:"target"`
	Run          int `json:"run"`
	Failures     int `json:"failures"`
	Shrunk       int `json:"shrunk"`
	PropHeld     int `json:"prop_held"`
	PropViolated int `json:"prop_violated"`
	DeadlockFree int `json:"deadlock_free"`
	Deadlocked   int `json:"deadlocked"`
}

func (p *soakProgress) publish(s soakSnapshot) {
	p.mu.Lock()
	p.snap = s
	p.mu.Unlock()
}

func (p *soakProgress) Snapshot() any {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.snap
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mbt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Int64("seed", 1, "generator seed of the first instance")
		n         = fs.Int("n", 200, "number of instances to run")
		maxStates = fs.Int("max-states", 0, "cap on states per generated automaton (0 = generator default)")
		wide      = fs.Bool("wide", false, "use the wide-alphabet configuration (70 signals: both words of the interner's label masks)")
		nondet    = fs.Bool("nondet", false, "generate function-nondeterministic legacy components (output races, duplicate successors, lossy outputs) and check them via the ioco path")
		skipLaws  = fs.Bool("skip-laws", false, "check verdict soundness only, skipping the algebraic-law oracles")
		journal   = fs.String("journal", "", "write the synthesis event journal (JSONL) to this file")
		corpus    = fs.String("corpus", "", "directory to write shrunk repros of failures into (empty = report only)")
		deadline  = fs.Duration("deadline", 0, "overall wall-clock budget for the soak (0 = unbounded); exceeding it exits 3")
		httpAddr  = fs.String("http", "", "serve /metrics, /progress, /events, /journal/tail, /healthz, and /debug/pprof on this address while the soak runs")
		verbose   = fs.Bool("v", false, "log every instance, not just failures")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "mbt: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	if *n <= 0 {
		fmt.Fprintf(stderr, "mbt: -n must be positive\n")
		return 2
	}

	cfg := gen.DefaultConfig()
	if *wide {
		cfg = gen.WideConfig()
	}
	if *nondet {
		cfg = gen.NondetConfig()
	}
	if *maxStates > 0 {
		cfg.MaxLegacyStates = *maxStates
		cfg.MaxContextStates = *maxStates
	}

	ringSize := 0
	if *httpAddr != "" {
		ringSize = obs.DefaultRingSize
	}
	obsRun, err := obs.OpenRun(obs.RunOptions{JournalPath: *journal, Metrics: *httpAddr != "", RingSize: ringSize})
	if err != nil {
		fmt.Fprintf(stderr, "mbt: %v\n", err)
		return 1
	}
	defer obsRun.Close()

	// SIGINT/SIGTERM cancel the soak context: the current instance
	// aborts via Canceled(), and the deferred obsRun.Close flushes the
	// journal so an interrupted soak still leaves valid JSONL behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	progress := &soakProgress{}
	progress.publish(soakSnapshot{Target: *n})
	instCounter := obsRun.Registry.Counter("mbt.instances")
	failCounter := obsRun.Registry.Counter("mbt.failures")
	shrunkCounter := obsRun.Registry.Counter("mbt.shrunk")
	if *httpAddr != "" {
		srv, err := httpd.Start(*httpAddr, httpd.Options{
			Registry: obsRun.Registry,
			Progress: progress.Snapshot,
			Events:   obsRun.Ring,
		})
		if err != nil {
			fmt.Fprintf(stderr, "mbt: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "mbt: serving /metrics /progress /events /journal/tail /healthz /debug/pprof on http://%s\n", srv.Addr())
	}

	opts := mbt.Options{Journal: obsRun.Journal, SkipLaws: *skipLaws, Context: ctx, Nondet: *nondet}
	timedOut := false

	var stats struct {
		run, failures, shrunk    int
		propHeld, propViolated   int
		deadlockFree, deadlocked int
	}
	for i := 0; i < *n; i++ {
		if ctx.Err() != nil {
			timedOut = true
			fmt.Fprintf(stderr, "mbt: %s after %d of %d instances\n", stopCause(ctx, *deadline), i, *n)
			break
		}
		s := *seed + int64(i)
		inst, err := gen.New(s, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "mbt: seed %d: generator: %v\n", s, err)
			return 1
		}
		stats.run++
		instCounter.Add(1)
		if inst.Property != nil {
			if inst.TruePropertyHolds {
				stats.propHeld++
			} else {
				stats.propViolated++
			}
		}
		if inst.TrueDeadlockFree {
			stats.deadlockFree++
		} else {
			stats.deadlocked++
		}
		if *verbose {
			fmt.Fprintf(stdout, "seed %d: %s\n", s, inst.Summary())
		}

		f := mbt.CheckInstance(inst, opts)
		if f == nil {
			progress.publish(soakSnapshot{
				Target: *n, Run: stats.run, Failures: stats.failures, Shrunk: stats.shrunk,
				PropHeld: stats.propHeld, PropViolated: stats.propViolated,
				DeadlockFree: stats.deadlockFree, Deadlocked: stats.deadlocked,
			})
			continue
		}
		if f.Canceled() {
			timedOut = true
			stats.run-- // the verdict was never reached
			instCounter.Add(-1)
			fmt.Fprintf(stderr, "mbt: %s during seed %d (%d of %d instances done)\n",
				stopCause(ctx, *deadline), s, i, *n)
			break
		}
		stats.failures++
		failCounter.Add(1)
		fmt.Fprintf(stderr, "FAIL seed %d: %v\n", s, f)
		shrunk := mbt.Shrink(f, opts)
		if shrunk != nil && shrunk != f {
			stats.shrunk++
			shrunkCounter.Add(1)
			fmt.Fprintf(stderr, "  shrunk: %s\n", shrunk.Instance.Summary())
			f = shrunk
		}
		progress.publish(soakSnapshot{
			Target: *n, Run: stats.run, Failures: stats.failures, Shrunk: stats.shrunk,
			PropHeld: stats.propHeld, PropViolated: stats.propViolated,
			DeadlockFree: stats.deadlockFree, Deadlocked: stats.deadlocked,
		})
		if *corpus != "" {
			// Name by the originating soak seed: Shrink clears the
			// instance seed (the minimized instance no longer matches
			// any generator output), and distinct failures must not
			// overwrite each other.
			path := filepath.Join(*corpus, fmt.Sprintf("%s-seed%d.json", f.Check, s))
			if err := mbt.WriteRepro(path, f); err != nil {
				fmt.Fprintf(stderr, "  write repro: %v\n", err)
			} else {
				fmt.Fprintf(stderr, "  repro: %s\n", path)
			}
		}
	}

	fmt.Fprintf(stdout, "mbt: %d instances from seed %d (φ held %d / violated %d, deadlock-free %d / deadlocked %d)\n",
		stats.run, *seed, stats.propHeld, stats.propViolated, stats.deadlockFree, stats.deadlocked)
	if stats.failures > 0 {
		fmt.Fprintf(stdout, "mbt: %d soundness FAILURES (%d shrunk)\n", stats.failures, stats.shrunk)
		return 1
	}
	if timedOut {
		fmt.Fprintf(stdout, "mbt: no failures in the %d instances that ran before the soak was cut short\n", stats.run)
		return 3
	}
	fmt.Fprintf(stdout, "mbt: all checks passed\n")
	return 0
}

// stopCause names why the soak context ended: an elapsed -deadline reads
// as a timeout, anything else (SIGINT/SIGTERM) as an interrupt.
func stopCause(ctx context.Context, deadline time.Duration) string {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return fmt.Sprintf("deadline %v exceeded", deadline)
	}
	return "interrupted"
}
