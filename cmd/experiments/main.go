// Command experiments regenerates the paper's figures, listings, and
// evaluation claims (see DESIGN.md §4 for the index) and optionally writes
// the EXPERIMENTS.md report.
//
// Usage:
//
//	experiments -list
//	experiments -run E5
//	experiments -all [-report EXPERIMENTS.md]
//	experiments -timings BENCH_incremental.json
//	experiments -batch BENCH_batch.json
//	experiments -ctl BENCH_ctl.json
//	experiments -all -http 127.0.0.1:8475 -metrics
//
// -http serves the live observability plane while experiments run:
// Prometheus metrics on /metrics, a JSON journal-position snapshot on
// /progress, the journal tail on /events (SSE) and /journal/tail (JSON),
// plus /healthz and /debug/pprof.
package main

import (
	"flag"
	"fmt"
	"os"

	"muml/internal/automata"
	"muml/internal/experiments"
	"muml/internal/obs"
	"muml/internal/obs/httpd"
	"muml/internal/replay"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list       = flag.Bool("list", false, "list available experiments")
		runID      = flag.String("run", "", "run a single experiment by ID (e.g. E5)")
		all        = flag.Bool("all", false, "run all experiments")
		report     = flag.String("report", "", "write the markdown report to this file (with -all)")
		timings    = flag.String("timings", "", "run the incremental-vs-rebuild timing scenarios and write per-iteration stats as JSON to this file")
		batchOut   = flag.String("batch", "", "run the batch-throughput scenario (sequential vs parallel) and write the report as JSON to this file")
		ctlOut     = flag.String("ctl", "", "run the CTL engine scenarios (legacy reference vs bitset checker) and write the report as JSON to this file")
		ctlMin     = flag.Float64("ctl-min-speedup", 5, "minimum legacy-over-bitset speedup the asserted -ctl scenarios must reach")
		batchN     = flag.Int("batch-n", 64, "number of generated instances for -batch")
		batchSeed  = flag.Int64("batch-seed", 1, "generator seed of the first -batch instance")
		batchW     = flag.Int("batch-workers", 0, "parallel worker count for -batch (0 = GOMAXPROCS)")
		journal    = flag.String("journal", "", "write the structured run journal (JSONL) to this file")
		metrics    = flag.Bool("metrics", false, "collect span timers and counters; print the table after the run")
		httpAddr   = flag.String("http", "", "serve /metrics, /progress, /events, /journal/tail, /healthz, and /debug/pprof on this address while experiments run")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	ringSize := 0
	if *httpAddr != "" {
		ringSize = obs.DefaultRingSize
	}
	run, err := obs.OpenRun(obs.RunOptions{
		JournalPath: *journal,
		Metrics:     *metrics || *httpAddr != "",
		RingSize:    ringSize,
		CPUProfile:  *cpuProfile,
		MemProfile:  *memProfile,
	})
	if err != nil {
		return err
	}
	defer run.Close()
	if *httpAddr != "" {
		srv, err := httpd.Start(*httpAddr, httpd.Options{
			Registry: run.Registry,
			Progress: func() any {
				return struct {
					JournalSeq uint64 `json:"journal_seq"`
				}{JournalSeq: run.Journal.Seq()}
			},
			Events: run.Ring,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "experiments: serving /metrics /progress /events /journal/tail /healthz /debug/pprof on http://%s\n", srv.Addr())
	}
	if run.Journal.Enabled() || run.Registry != nil {
		automata.EnableObservability(run.Journal, run.Registry)
		replay.EnableObservability(run.Registry)
		defer automata.DisableObservability()
		defer replay.DisableObservability()
	}
	if *metrics {
		defer run.DumpMetrics(os.Stderr)
	}

	switch {
	case *ctlOut != "":
		scenarios, err := experiments.CollectCTLBench(*ctlMin)
		if err != nil {
			return err
		}
		data, err := experiments.MarshalCTLBench(scenarios)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*ctlOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write ctl report: %w", err)
		}
		for _, sc := range scenarios {
			fmt.Printf("%-18s %6d states %7d trans  legacy %8.2fms  bitset %8.2fms  speedup %5.1fx\n",
				sc.Name, sc.States, sc.Transitions,
				float64(sc.LegacyCheckNS)/1e6, float64(sc.CheckNS)/1e6, sc.Speedup)
		}
		fmt.Printf("ctl report written to %s\n", *ctlOut)
		return nil

	case *batchOut != "":
		rep, err := experiments.CollectBatchBench(*batchSeed, *batchN, *batchW, run.Journal, run.Registry)
		if err != nil {
			return err
		}
		data, err := experiments.MarshalBatchBench(rep)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*batchOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write batch report: %w", err)
		}
		fmt.Printf("batch: %d instances, %d workers vs sequential: %.2fx speedup (%.1f/s vs %.1f/s, gomaxprocs %d)\n",
			rep.Instances, rep.Parallel.Workers, rep.Speedup,
			rep.Parallel.Throughput, rep.Sequential.Throughput, rep.MaxProcs)
		fmt.Printf("batch report written to %s\n", *batchOut)
		return nil

	case *timings != "":
		rep, err := experiments.CollectTimings(run.Journal, run.Registry)
		if err != nil {
			return err
		}
		data, err := experiments.MarshalTimings(rep)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*timings, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write timings: %w", err)
		}
		for _, sc := range rep.Scenarios {
			fmt.Printf("%-26s %2d patches / %d rebuilds  speedup %.2fx\n",
				sc.Name, sc.Incremental.Patches, sc.Incremental.Rebuilds, sc.Speedup)
		}
		fmt.Printf("timings written to %s\n", *timings)
		return nil
	case *list:
		for _, e := range experiments.Registry() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return nil

	case *runID != "":
		res, err := experiments.Run(*runID)
		if err != nil {
			return err
		}
		printResult(res)
		if !res.Match {
			return fmt.Errorf("experiment %s did not match the expected shape", res.ID)
		}
		return nil

	case *all:
		results, err := experiments.RunAll()
		if err != nil {
			return err
		}
		failures := 0
		for _, r := range results {
			status := "ok"
			if !r.Match {
				status = "MISMATCH"
				failures++
			}
			fmt.Printf("%-4s %-55s %s\n", r.ID, r.Title, status)
		}
		if *report != "" {
			if err := os.WriteFile(*report, []byte(experiments.RenderReport(results)), 0o644); err != nil {
				return fmt.Errorf("write report: %w", err)
			}
			fmt.Printf("report written to %s\n", *report)
		}
		if failures > 0 {
			return fmt.Errorf("%d experiments did not match", failures)
		}
		return nil

	default:
		flag.Usage()
		return fmt.Errorf("one of -list, -run, or -all is required")
	}
}

func printResult(r *experiments.Result) {
	fmt.Printf("%s — %s\n", r.ID, r.Title)
	fmt.Printf("paper artefact: %s\n", r.PaperArtifact)
	fmt.Printf("expectation:    %s\n", r.Expectation)
	fmt.Printf("measured:       %s\n", r.Measured)
	fmt.Printf("match:          %v\n\n%s\n", r.Match, r.Details)
}
