// Command verifyd is the verification job service: batchverify promoted
// from a one-shot CLI to a long-running HTTP/JSON server with a
// persistent warm-start memo store.
//
//	verifyd -addr 127.0.0.1:8479 -store /var/lib/verifyd/store
//
// Jobs are submitted over HTTP and drained through a bounded queue into
// the internal/batch worker pool:
//
//	POST /jobs                 submit {"manifest": "...JSONL..."} or
//	                           {"gen": {"seed":1,"n":64}} or
//	                           {"scenarios": true}; a non-JSON body is
//	                           taken as the raw manifest JSONL, with
//	                           workers/deadline_ms/shard_index/shard_count
//	                           as query parameters
//	GET  /jobs                 list all jobs
//	GET  /jobs/{id}            status, live progress, memo/store hit deltas
//	GET  /jobs/{id}/verdicts   deterministic per-instance verdicts (NDJSON,
//	                           sorted by name)
//	GET  /jobs/{id}/journal    the job's JSONL batch journal
//
// plus the live observability plane shared with the CLIs: /metrics
// (Prometheus, including the muml_store_* and muml_runtime_* families),
// /progress, /events (SSE), /journal/tail, /healthz, /readyz, and
// /debug/pprof. /healthz is pure liveness; /readyz answers 503 while the
// server is draining or the admission controller is overloaded.
//
// A runtime/metrics sampler (-sample-interval) journals resource_sample
// events and feeds the hysteretic overload controller: at or above
// -heap-high-bytes of live heap, or with the job queue at capacity,
// intake answers 503 + Retry-After and /readyz fails until the pressure
// falls back below the low watermarks. Every job accumulates a cost
// ledger (CPU seconds, attributed allocation, peak product states, CTL
// words scanned, memo savings) served in /jobs/{id} and journaled as a
// cost_report event.
//
// The -store directory is the content-addressed persistent memo store
// (internal/memostore), layered under the in-memory closure cache
// and keyed by structural fingerprints: overlapping jobs, process
// restarts, and sibling verifyd processes sharing the directory
// warm-start constructions instead of recomputing them. Shard one job
// across N processes by submitting it N times with shard_count=N and
// shard_index=0..N-1 — the name-hash partition is deterministic, and
// merging the shards' verdict documents (they are disjoint) reproduces
// the unsharded job's verdicts exactly.
//
// SIGINT/SIGTERM drain gracefully: intake stops (new submissions get
// 503), queued jobs are canceled, the in-flight job finishes, the store
// and journal are flushed, and the process exits 0. A second signal
// hard-cancels the in-flight job.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"muml/internal/automata"
	"muml/internal/memostore"
	"muml/internal/obs"
	"muml/internal/obs/httpd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verifyd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr          = fs.String("addr", "127.0.0.1:8479", "listen address of the job API and observability plane")
		storeDir      = fs.String("store", "", "persistent memo-store directory (empty = in-memory cache only)")
		storeMaxBytes = fs.Int64("store-max-bytes", memostore.DefaultMaxBytes, "on-disk store size cap in payload bytes (negative = unbounded)")
		spool         = fs.String("spool", "", "per-job journal directory (default: <store>/jobs, or a temp dir without -store)")
		queueCap      = fs.Int("queue", 16, "bounded job-queue capacity; submissions beyond it get 503")
		workers       = fs.Int("workers", 0, "default worker-pool size per job (0 = GOMAXPROCS)")
		deadline      = fs.Duration("deadline", 0, "default per-instance deadline (0 = unbounded)")
		journal       = fs.String("journal", "", "write the server event journal (job lifecycle, cache and store events) to this file")
		sampleEvery   = fs.Duration("sample-interval", obs.DefaultSampleInterval, "runtime resource sampling period (0 disables the sampler and heap-based overload)")
		heapHigh      = fs.Int64("heap-high-bytes", 0, "live-heap high watermark: at or above it, intake sheds load with 503 until heap-low-bytes (0 = no heap watermark)")
		heapLow       = fs.Int64("heap-low-bytes", 0, "live-heap low watermark ending heap overload (default: heap-high-bytes)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "verifyd: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}

	obsRun, err := obs.OpenRun(obs.RunOptions{JournalPath: *journal, Metrics: true, RingSize: obs.DefaultRingSize})
	if err != nil {
		fmt.Fprintf(stderr, "verifyd: %v\n", err)
		return 1
	}
	defer obsRun.Close()

	var store *memostore.Store
	if *storeDir != "" {
		store, err = memostore.Open(*storeDir, memostore.Options{
			MaxBytes: *storeMaxBytes,
			Journal:  obsRun.Journal,
			Metrics:  obsRun.Registry,
		})
		if err != nil {
			fmt.Fprintf(stderr, "verifyd: %v\n", err)
			return 1
		}
		defer store.Close()
	}

	spoolDir := *spool
	if spoolDir == "" {
		if *storeDir != "" {
			spoolDir = filepath.Join(*storeDir, "jobs")
		} else {
			spoolDir, err = os.MkdirTemp("", "verifyd-spool-*")
			if err != nil {
				fmt.Fprintf(stderr, "verifyd: %v\n", err)
				return 1
			}
		}
	}
	if err := os.MkdirAll(spoolDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "verifyd: %v\n", err)
		return 1
	}

	memo := automata.NewMemoCache(obsRun.Journal)
	if store != nil {
		memo.SetBackend(store)
	}

	// The admission controller sheds load before memory pressure kills the
	// process: the heap watermarks come from flags, the queue watermarks
	// from the queue capacity (enter at a full queue, exit at half).
	overload := obs.NewOverload(obs.OverloadOptions{
		HeapHighBytes: *heapHigh,
		HeapLowBytes:  *heapLow,
		QueueHigh:     *queueCap,
		QueueLow:      *queueCap / 2,
		Journal:       obsRun.Journal,
		Registry:      obsRun.Registry,
	})

	srv := newServer(serverConfig{
		Workers:  *workers,
		Deadline: *deadline,
		Spool:    spoolDir,
		QueueCap: *queueCap,
		Memo:     memo,
		Store:    store,
		Journal:  obsRun.Journal,
		Registry: obsRun.Registry,
		Overload: overload,
	})

	if *sampleEvery > 0 {
		sampler := obs.StartRuntimeSampler(obs.RuntimeSamplerOptions{
			Interval: *sampleEvery,
			Journal:  obsRun.Journal,
			Registry: obsRun.Registry,
			OnSample: func(s obs.ResourceSample) {
				overload.ObserveHeap(s.HeapLiveBytes)
				overload.ObserveQueue(srv.queueDepth())
			},
		})
		defer sampler.Stop()
	}

	httpSrv, err := httpd.Start(*addr, httpd.Options{
		Registry: obsRun.Registry,
		Progress: srv.progressSnapshot,
		Events:   obsRun.Ring,
		Extra:    srv.mux(),
		Ready:    srv.ready,
	})
	if err != nil {
		fmt.Fprintf(stderr, "verifyd: %v\n", err)
		return 1
	}
	defer httpSrv.Close()
	fmt.Fprintf(stderr, "verifyd: serving job API and /metrics /progress /events /healthz /readyz on http://%s\n", httpSrv.Addr())
	if store != nil {
		_, _, _, entries, bytes := store.Stats()
		fmt.Fprintf(stderr, "verifyd: memo store %s: %d records, %d payload bytes\n", store.Dir(), entries, bytes)
	}

	// First signal: drain — stop intake, cancel queued jobs, finish the
	// in-flight one. Second signal: hard-cancel the in-flight job too.
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintf(stderr, "verifyd: draining (signal again to cancel the running job)\n")
		srv.beginDrain()
		<-sig
		fmt.Fprintf(stderr, "verifyd: canceling the running job\n")
		srv.hardCancel()
	}()

	srv.wait()

	hits, misses, _ := memo.Stats()
	fmt.Fprintf(stdout, "verifyd: drained: %d jobs done, memo %d hits / %d misses\n",
		srv.mDone.Value(), hits, misses)
	if store != nil {
		sh, sm, se, entries, bytes := store.Stats()
		fmt.Fprintf(stdout, "verifyd: store: %d hits, %d misses, %d evictions, %d records, %d bytes\n",
			sh, sm, se, entries, bytes)
	}
	return 0
}
