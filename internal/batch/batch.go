// Package batch runs many independent synthesis instances concurrently on
// a fixed set of workers, with per-instance deadlines, panic isolation,
// and a shared memoization cache for identical chaotic closures
// (DESIGN.md §9). It is the engine behind cmd/batchverify and
// the concurrent lane the CI race detector exercises.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/ctl"
	"muml/internal/legacy"
	"muml/internal/obs"
)

// Problem is one fully materialized synthesis input: the verification
// question M_a^c ‖ chaos(M_l) ⊨ φ ∧ ¬δ over one black-box component.
type Problem struct {
	Context   *automata.Automaton
	Component legacy.Component
	Interface legacy.Interface
	// Property may be nil to check deadlock freedom only.
	Property ctl.Formula
	// MaxIterations bounds the loop (0 = core's default).
	MaxIterations int
}

// Item is one independent synthesis instance of a batch. Build is called
// exactly once, on the worker that runs the instance, so construction cost
// parallelizes and the stateful component it returns is confined to a
// single goroutine for its whole life.
type Item struct {
	Name  string
	Build func() (Problem, error)
}

// Cost is the resource ledger of one instance — or, summed, of a whole
// batch or job. It splits into two classes (DESIGN.md §15):
//
// Deterministic effort figures, identical across worker counts, memo
// warm-starts, and process restarts: PeakStates (largest composed system
// the instance built) and CTLWords (bitset words produced by the model
// checker). These are safe to embed in byte-identity-contracted outputs
// like verifyd's verdict NDJSON.
//
// Measured figures, machine- and schedule-dependent: CPUNS (wall time of
// the instance — each instance occupies exactly one pool worker, so wall
// time is worker-seconds of attribution), AllocBytes (the process-global
// allocation delta over the instance's window divided by the pool width,
// exact at one worker and a documented approximation otherwise), and the
// memo hits and misses of the instance's own lookups (counted on its
// handle of the shared cache, so exact at any pool width).
type Cost struct {
	CPUNS      int64 `json:"cpu_ns"`
	AllocBytes int64 `json:"alloc_bytes"`
	PeakStates int64 `json:"peak_states"`
	CTLWords   int64 `json:"ctl_words"`
	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`
}

// Add folds another ledger into c (the batch/job aggregation step). The
// job-level report is defined as the exact sum of its instance ledgers.
func (c *Cost) Add(o Cost) {
	c.CPUNS += o.CPUNS
	c.AllocBytes += o.AllocBytes
	c.PeakStates += o.PeakStates
	c.CTLWords += o.CTLWords
	c.MemoHits += o.MemoHits
	c.MemoMisses += o.MemoMisses
}

// Result is the outcome of one instance. Results are reported in item
// order, independent of worker scheduling, so batches are comparable
// across worker counts.
type Result struct {
	Index  int
	Name   string
	Worker int
	// Verdict and Kind are valid only when Err is nil.
	Verdict    core.Verdict
	Kind       core.ViolationKind
	Iterations int
	Err        error
	// TimedOut reports that Err wraps a context deadline/cancellation.
	TimedOut bool
	// Panicked reports that the instance panicked; the panic was recovered
	// and converted into Err without taking down the batch.
	Panicked bool
	Duration time.Duration
	// Cost is the instance's resource ledger.
	Cost Cost
}

// Options configure a batch run.
type Options struct {
	// Workers is the worker-pool size (default GOMAXPROCS).
	Workers int
	// Deadline bounds each instance individually (0 = unbounded). An
	// instance exceeding it yields a Result with TimedOut set; the batch
	// continues.
	Deadline time.Duration
	// Context, when non-nil, bounds the whole batch: once done, running
	// instances abort and no further instances start.
	Context context.Context
	// Memo, when non-nil, is shared across all instances so identical
	// chaotic closures are built once (pass automata.NewMemoCache; nil
	// disables memoization).
	Memo *automata.MemoCache
	// Journal receives batch_start, one instance_done per item, and — when
	// the memo cache was built over the same journal — cache_hit events.
	// Per-instance synthesis events are NOT forwarded: interleaved
	// iteration streams from concurrent runs would be unreadable and are
	// available by re-running a single instance.
	Journal *obs.Journal
	// Metrics, when non-nil, receives batch.instances, batch.timeouts and
	// batch.panics counters plus the batch.instance timer and latency
	// histogram.
	Metrics *obs.Registry
	// Progress, when non-nil, receives live per-instance start/finish
	// updates; the HTTP /progress endpoint snapshots it while the batch
	// runs (see Progress).
	Progress *Progress
}

// Summary aggregates a batch run.
type Summary struct {
	Results  []Result
	Duration time.Duration
	Workers  int
	// The verdict and failure counts of Results.
	Proven, Violations, Errored, TimedOut, Panicked int
	// Cost is the exact sum of the per-instance ledgers, journaled as the
	// batch's cost_report event; its memo figures are the batch's own
	// lookups.
	Cost Cost
}

// Throughput returns completed instances per second of wall-clock time.
func (s Summary) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(len(s.Results)) / s.Duration.Seconds()
}

// Verify runs all items to completion and returns the per-instance results
// in item order. Instance failures — synthesis errors, per-instance
// deadline hits, even panics — are isolated into their Result; Verify
// itself fails only on invalid options. The batch-level context (when
// given) aborts remaining work but still returns the results gathered so
// far, with unstarted items marked as canceled.
func Verify(items []Item, opts Options) (*Summary, error) {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(items) == 0 {
		return &Summary{Workers: workers}, nil
	}
	if workers > len(items) {
		workers = len(items)
	}
	batchCtx := opts.Context
	if batchCtx == nil {
		batchCtx = context.Background()
	}

	mInstances := opts.Metrics.Counter("batch.instances")
	mTimeouts := opts.Metrics.Counter("batch.timeouts")
	mPanics := opts.Metrics.Counter("batch.panics")
	tInstance := opts.Metrics.Timer("batch.instance")
	hInstance := opts.Metrics.Histogram("batch.instance")

	// batchSpan groups the batch_start and instance_done events into one
	// span tree under the "batch" trace.
	var batchSpan uint64
	if j := opts.Journal; j.Enabled() {
		batchSpan = j.NewSpan()
		j.Emit(obs.Event{Kind: obs.KindBatchStart, Iter: -1,
			Trace: "batch", Span: batchSpan,
			N: map[string]int64{
				"instances":   int64(len(items)),
				"workers":     int64(workers),
				"deadline_ns": int64(opts.Deadline),
			}})
	}
	opts.Progress.begin(len(items), workers, opts.Memo)

	start := time.Now()
	results := make([]Result, len(items))
	// The workers take the items in order from one shared counter. An
	// instance runs for tens of microseconds to seconds, so one atomic add
	// per instance is never contended.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				idx := int(next.Add(1) - 1)
				if idx >= len(items) {
					return
				}
				if err := batchCtx.Err(); err != nil {
					res := Result{Index: idx, Name: items[idx].Name, Worker: w,
						Err: fmt.Errorf("batch: not started: %w", err), TimedOut: true}
					results[idx] = res
					opts.Progress.finished(res)
					continue
				}
				opts.Progress.starting(idx, items[idx].Name)
				res := runOne(batchCtx, items[idx], idx, w, workers, opts)
				mInstances.Add(1)
				tInstance.Observe(res.Duration)
				hInstance.Observe(res.Duration)
				if res.TimedOut {
					mTimeouts.Add(1)
				}
				if res.Panicked {
					mPanics.Add(1)
				}
				if j := opts.Journal; j.Enabled() {
					j.Emit(obs.Event{Kind: obs.KindInstanceDone, Iter: -1,
						DurNS: int64(res.Duration),
						Trace: "batch", Parent: batchSpan,
						N: map[string]int64{
							"index":            int64(res.Index),
							"worker":           int64(res.Worker),
							"timed_out":        b2i(res.TimedOut),
							"panicked":         b2i(res.Panicked),
							"iterations":       int64(res.Iterations),
							"cost_cpu_ns":      res.Cost.CPUNS,
							"cost_alloc_bytes": res.Cost.AllocBytes,
							"cost_peak_states": res.Cost.PeakStates,
							"cost_ctl_words":   res.Cost.CTLWords,
							"cost_memo_hits":   res.Cost.MemoHits,
							"cost_memo_misses": res.Cost.MemoMisses,
						},
						S: instanceDoneStrings(res),
					})
				}
				results[idx] = res
				opts.Progress.finished(res)
			}
		}(w)
	}
	wg.Wait()

	sum := &Summary{Results: results, Duration: time.Since(start), Workers: workers}
	for i := range results {
		switch {
		case results[i].Panicked:
			sum.Panicked++
			sum.Errored++
		case results[i].TimedOut:
			sum.TimedOut++
			sum.Errored++
		case results[i].Err != nil:
			sum.Errored++
		case results[i].Verdict == core.VerdictProven:
			sum.Proven++
		case results[i].Verdict == core.VerdictViolation:
			sum.Violations++
		}
	}
	for i := range results {
		sum.Cost.Add(results[i].Cost)
	}
	if j := opts.Journal; j.Enabled() {
		j.Emit(obs.Event{Kind: obs.KindCostReport, Iter: -1,
			DurNS: int64(sum.Duration),
			Trace: "batch", Parent: batchSpan,
			N: map[string]int64{
				"instances":   int64(len(results)),
				"cpu_ns":      sum.Cost.CPUNS,
				"alloc_bytes": sum.Cost.AllocBytes,
				"peak_states": sum.Cost.PeakStates,
				"ctl_words":   sum.Cost.CTLWords,
				"memo_hits":   sum.Cost.MemoHits,
				"memo_misses": sum.Cost.MemoMisses,
			}})
	}
	return sum, nil
}

func instanceDoneStrings(res Result) map[string]string {
	s := map[string]string{"name": res.Name, "verdict": ""}
	if res.Err != nil {
		s["error"] = res.Err.Error()
	} else {
		s["verdict"] = res.Verdict.String()
	}
	return s
}

// runOne executes one instance with panic isolation and its own deadline.
// workers is the pool width, the divisor of the instance's share of the
// process-global allocation delta (see Cost).
func runOne(batchCtx context.Context, item Item, idx, worker, workers int, opts Options) (res Result) {
	res = Result{Index: idx, Name: item.Name, Worker: worker}
	start := time.Now()
	alloc0 := obs.ReadAllocBytes()
	memo := opts.Memo.Handle()
	defer func() {
		res.Duration = time.Since(start)
		res.Cost.CPUNS = res.Duration.Nanoseconds()
		if d := obs.ReadAllocBytes() - alloc0; d > 0 && workers > 0 {
			res.Cost.AllocBytes = d / int64(workers)
		}
		res.Cost.MemoHits, res.Cost.MemoMisses, _ = memo.Stats()
		if r := recover(); r != nil {
			res.Panicked = true
			res.Err = fmt.Errorf("batch: instance %q panicked: %v", item.Name, r)
		}
		if res.Err != nil && (errors.Is(res.Err, context.DeadlineExceeded) || errors.Is(res.Err, context.Canceled)) {
			res.TimedOut = true
		}
	}()

	problem, err := item.Build()
	if err != nil {
		res.Err = fmt.Errorf("batch: build %q: %w", item.Name, err)
		return res
	}

	ctx := batchCtx
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(batchCtx, opts.Deadline)
		defer cancel()
	}

	synth, err := core.New(problem.Context, problem.Component, problem.Interface, core.Options{
		Property:      problem.Property,
		MaxIterations: problem.MaxIterations,
		Context:       ctx,
		Memo:          memo,
		// The registry is shared across workers; counters are atomic, so
		// the ctl.* and core.* instruments aggregate over the whole batch.
		Metrics: opts.Metrics,
	})
	if err != nil {
		res.Err = fmt.Errorf("batch: %q: %w", item.Name, err)
		return res
	}
	report, err := synth.Run()
	if err != nil {
		res.Err = fmt.Errorf("batch: %q: %w", item.Name, err)
		return res
	}
	res.Verdict = report.Verdict
	res.Kind = report.Kind
	res.Iterations = report.Stats.Iterations
	res.Cost.PeakStates = int64(report.Stats.PeakSystemStates)
	res.Cost.CTLWords = report.Stats.CTLWordsScanned
	return res
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
