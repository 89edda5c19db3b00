package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"time"

	"muml/internal/automata"
	"muml/internal/batch"
	"muml/internal/core"
	"muml/internal/obs"
	"muml/internal/replay"
)

// jobSize is the number of instances per batch.Verify call ("job") on
// every workload, matching the verifyd-wide jobs.
const jobSize = 16

// poolWorkers is the batch pool width on every workload. At two workers
// both vCPUs of the reference host were busy and the spread doubled.
const poolWorkers = 1

// checkWorkers is the pool width of verifyd-wide's untimed in-process
// re-run, which runs after the window and is used only for its exact
// counts, so it may keep both vCPUs busy.
const checkWorkers = 2

// instanceDeadline bounds each instance; a hit counts as a failure.
const instanceDeadline = 10 * time.Second

// record holds the exact counts of one instance run. Two runs of the same
// instance from the same memo state must agree on all of them, with or
// without tracing.
type record struct {
	Verdict    core.Verdict
	Iterations int
	CTLWords   int64
	PeakStates int64
	MemoHits   int64
	MemoMisses int64
	AllocBytes int64
	Steps      int64
	Resets     int64
	Seen       bool
}

// session is one memo cache and registry with the corpus it serves, as
// verifyd would hold them.
type session struct {
	corpus []instance
	want   []core.Verdict
	memo   *automata.MemoCache
	reg    *obs.Registry
	stats  []callStats
	items  []batch.Item
	// job holds the items of the batch.Verify call being run.
	job []batch.Item
	// workers is the pool width of every batch.Verify call.
	workers int
	// buildAt records when each instance's Build ran (timed sessions).
	buildAt []time.Time
}

// newSession opens a fresh memo cache and registry over the corpus. A
// timed session times component calls and records Build times.
func newSession(corpus []instance, want []core.Verdict, timed bool) *session {
	s := &session{corpus: corpus, want: want, memo: automata.NewMemoCache(nil),
		reg: obs.NewRegistry(), stats: make([]callStats, len(corpus)),
		items: make([]batch.Item, len(corpus)), workers: poolWorkers}
	if timed {
		s.buildAt = make([]time.Time, len(corpus))
	}
	for i := range corpus {
		var onBuild func()
		if timed {
			onBuild = func() { s.buildAt[i] = time.Now() }
		}
		s.items[i] = corpus[i].item(&s.stats[i], timed, onBuild)
	}
	return s
}

// tally accumulates one window over a session.
type tally struct {
	start, end time.Time
	// Complete passes over the corpus: wall time, CPU time, verdicts, and
	// where each pass's samples end in instMS and jobMS.
	passWall, passCPU       []time.Duration
	passVerdicts            []int64
	passInstEnd, passJobEnd []int
	instMS, jobMS           []float64
	attempted, failed       int64
	verdicts                int64
	sumInstNS               int64
	iterations              int64
	ctlWords                int64
	allocBytes              int64
	peakStates              int64
	memoHits                int64
	memoMisses              int64
	calls                   callStats
	mismatches              []string
	// first holds the exact counts of each instance's first run.
	first []record
}

// runJobs runs the corpus instances idx as one batch.Verify call at the
// session's pool width, checks every verdict against the oracle, and adds
// the results to t.
func (s *session) runJobs(t *tally, idx []int, rec *recorder) error {
	s.job = s.job[:0]
	for _, i := range idx {
		s.stats[i] = callStats{}
		s.job = append(s.job, s.items[i])
	}
	start := time.Now()
	sum, err := batch.Verify(s.job, batch.Options{
		Workers: s.workers, Deadline: instanceDeadline, Memo: s.memo, Metrics: s.reg,
	})
	end := time.Now()
	if err != nil {
		return fmt.Errorf("batch.Verify: %w", err)
	}
	t.jobMS = append(t.jobMS, float64(end.Sub(start))/1e6)
	jobName := fmt.Sprintf("job-%d", len(t.jobMS))
	jobSpan := rec.add(0, jobName, "batch.Verify", start, end, nil)
	for _, res := range sum.Results {
		i := idx[res.Index]
		t.attempted++
		st := s.stats[i]
		if rec != nil {
			b := s.buildAt[i]
			rec.add(jobSpan, jobName, "instance", b, b.Add(res.Duration), map[string]int64{
				"index": int64(i), "iterations": int64(res.Iterations),
				"steps": st.Steps, "step_ns": st.StepNS, "resets": st.Resets, "reset_ns": st.ResetNS,
			})
		}
		if res.Err != nil {
			t.failed++
			continue
		}
		if res.Verdict != s.want[i] {
			t.mismatches = append(t.mismatches, fmt.Sprintf("%s: synthesis %v, reference %v",
				s.corpus[i].name, res.Verdict, s.want[i]))
		}
		t.verdicts++
		t.instMS = append(t.instMS, float64(res.Duration)/1e6)
		t.sumInstNS += int64(res.Duration)
		t.iterations += int64(res.Iterations)
		t.ctlWords += res.Cost.CTLWords
		t.allocBytes += res.Cost.AllocBytes
		t.memoHits += res.Cost.MemoHits
		t.memoMisses += res.Cost.MemoMisses
		if res.Cost.PeakStates > t.peakStates {
			t.peakStates = res.Cost.PeakStates
		}
		t.calls.add(st)
		if t.first != nil && !t.first[i].Seen {
			t.first[i] = record{Verdict: res.Verdict, Iterations: res.Iterations,
				CTLWords: res.Cost.CTLWords, PeakStates: res.Cost.PeakStates,
				MemoHits: res.Cost.MemoHits, MemoMisses: res.Cost.MemoMisses,
				AllocBytes: res.Cost.AllocBytes, Steps: st.Steps, Resets: st.Resets,
				Seen: true}
		}
	}
	return nil
}

// runPrefix runs the first n corpus instances in jobs, in corpus order.
func (s *session) runPrefix(t *tally, n int) error {
	return s.runOrder(t, identity(min(n, len(s.corpus))), nil)
}

// identity returns the indices 0, 1, …, n-1.
func identity(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// runOrder runs the corpus instances in the given order, jobSize at a time.
func (s *session) runOrder(t *tally, order []int, rec *recorder) error {
	for lo := 0; lo < len(order); lo += jobSize {
		if err := s.runJobs(t, order[lo:min(lo+jobSize, len(order))], rec); err != nil {
			return err
		}
	}
	return nil
}

// warmUp runs the first n corpus instances untimed; any failure or wrong
// verdict ends the run.
func (s *session) warmUp(n int) error {
	t := &tally{}
	if err := s.runPrefix(t, n); err != nil {
		return err
	}
	if t.failed > 0 || len(t.mismatches) > 0 {
		return fmt.Errorf("warm-up: %d failed, %d mismatches, first %v", t.failed, len(t.mismatches), t.mismatches[:min(3, len(t.mismatches))])
	}
	return nil
}

// runWindow is the closed loop: whole passes over the corpus, one job
// after the other, until the window has lasted at least d. A pass is the
// unit of the per-pass medians because every pass does the same work.
// Each pass visits the corpus in a fresh order drawn from seed, so that
// jobs are new 16-instance mixes in every pass rather than the same
// len(corpus)/16 fixed slices: the job-time percentiles then describe the
// corpus, not which few heavy instances one seed happens to put together.
// Two windows given the same seed run the same sequence of orders.
func (s *session) runWindow(d time.Duration, seed int64, rec *recorder) (*tally, error) {
	t := &tally{first: make([]record, len(s.corpus))}
	rng := rand.New(rand.NewSource(seed))
	t.start = time.Now()
	for time.Since(t.start) < d {
		order := rng.Perm(len(s.corpus))
		p0, c0, v0 := time.Now(), selfCPU(), t.verdicts
		if err := s.runOrder(t, order, rec); err != nil {
			return nil, err
		}
		t.passWall = append(t.passWall, time.Since(p0))
		t.passCPU = append(t.passCPU, selfCPU()-c0)
		t.passVerdicts = append(t.passVerdicts, t.verdicts-v0)
		t.passInstEnd = append(t.passInstEnd, len(t.instMS))
		t.passJobEnd = append(t.passJobEnd, len(t.jobMS))
	}
	t.end = time.Now()
	return t, nil
}

// perPass returns the per-pass verdict rate (1/s) and CPU per verdict (ms).
func (t *tally) perPass() (rate, cpuMS []float64) {
	for i := range t.passWall {
		if t.passVerdicts[i] == 0 {
			continue
		}
		v := float64(t.passVerdicts[i])
		rate = append(rate, v/t.passWall[i].Seconds())
		cpuMS = append(cpuMS, float64(t.passCPU[i])/1e6/v)
	}
	return rate, cpuMS
}

// inprocWorkload is a workload run inside the benchmark process.
type inprocWorkload struct {
	corpus func(seed int64) ([]instance, error)
	// warmup is the number of corpus instances run untimed before the
	// window.
	warmup int
}

// setupRepeats is how often set-up is repeated; setup_s is the median.
const setupRepeats = 5

// setup generates the corpus, opens a memo cache and registry, and warms
// them up, setupRepeats times. The reference verdicts are computed once,
// outside the set-up clock. It returns the last session and the set-up
// time of each repetition.
func (w inprocWorkload) setup(seed int64, repeats int) (*session, []float64, error) {
	var want []core.Verdict
	var sess *session
	var times []float64
	for r := 0; r < repeats; r++ {
		t0 := time.Now()
		corpus, err := w.corpus(seed)
		if err != nil {
			return nil, nil, err
		}
		genTime := time.Since(t0)
		if want == nil {
			if want, err = oracle(corpus); err != nil {
				return nil, nil, err
			}
		}
		t1 := time.Now()
		sess = newSession(corpus, want, false)
		if err := sess.warmUp(w.warmup); err != nil {
			return nil, nil, err
		}
		times = append(times, (genTime + time.Since(t1)).Seconds())
	}
	return sess, times, nil
}

// endToEnd computes the end-to-end metrics of an untraced window.
func (t *tally) endToEnd(setup []float64) ([]metric, error) {
	rate, cpuMS := t.perPass()
	inst, jobs := groups(t.instMS, t.passInstEnd), groups(t.jobMS, t.passJobEnd)
	rss, err := peakRSS(0)
	if err != nil {
		return nil, err
	}
	return []metric{
		medianMetric("setup_s", "s", setup, "set-ups"),
		medianMetric("verdicts_per_s", "1/s", rate, "passes over the corpus"),
		perVerdictMedian("cpu_ms_per_verdict", "ms", cpuMS, t.verdicts, "passes over the corpus"),
		groupQuantileMetric("verdict_p50_ms", "ms", inst, 50, "passes", "instance durations"),
		groupQuantileMetric("verdict_p90_ms", "ms", inst, 90, "passes", "instance durations"),
		groupQuantileMetric("job_p50_ms", "ms", jobs, 50, "passes", "batch.Verify calls"),
		groupQuantileMetric("job_p90_ms", "ms", jobs, 90, "passes", "batch.Verify calls"),
		{Name: "peak_rss_mb", Unit: "MiB", Value: float64(rss) / (1 << 20), Base: "VmHWM of the benchmark process"},
		perVerdict("component_steps_per_verdict", "1", float64(t.calls.Steps), t.verdicts, "Step calls on the legacy component"),
	}, nil
}

// gcSample reads the runtime's GC and total CPU-time estimates.
type gcSample struct{ gc, busy float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		if s[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return s[i].Value.Float64()
	}
	return gcSample{gc: val(0), busy: val(1) - val(2)}
}

// layerCounters snapshots the registry instruments the per-layer metrics
// are computed from.
type layerCounters struct {
	compose, check, replay, probe time.Duration
	ctlChecks, ctlCheckNS         int64
	patches, rebuilds             int64
}

func readLayers(reg *obs.Registry) layerCounters {
	h := reg.Histogram("ctl.check")
	return layerCounters{
		compose:    reg.Timer("core.compose").Total(),
		check:      reg.Timer("core.check").Total(),
		replay:     reg.Timer("core.replay").Total(),
		probe:      reg.Timer("core.probe").Total(),
		ctlChecks:  h.Count(),
		ctlCheckNS: h.SumNS(),
		patches:    reg.Counter("automata.product_patches").Value(),
		rebuilds:   reg.Counter("automata.product_rebuilds").Value(),
	}
}

func (w inprocWorkload) run(cfg runConfig) (*outcome, error) {
	if !cfg.trace {
		sess, setupTimes, err := w.setup(cfg.seed, setupRepeats)
		if err != nil {
			return nil, err
		}
		// Start the window without the set-ups' garbage.
		runtime.GC()
		host := newHostBlock("none")
		steal0 := stealJiffies()
		t, err := sess.runWindow(cfg.window, cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		host.StealJiffies = stealSince(steal0)
		out := &outcome{host: host}
		out.absorb(t)
		if out.metrics, err = t.endToEnd(setupTimes); err != nil {
			return nil, err
		}
		return out, nil
	}

	// Traced run: an untraced half and a traced half, each from a fresh
	// memo cache with the same warm-up, so that every instance's first run
	// sees the same memo state in both and its exact counts must match.
	sess, _, err := w.setup(cfg.seed, 1)
	if err != nil {
		return nil, err
	}
	half := cfg.window / 2
	runtime.GC()
	host := newHostBlock("none")
	steal0 := stealJiffies()
	plain, err := sess.runWindow(half, cfg.seed, nil)
	if err != nil {
		return nil, err
	}

	traced := newSession(sess.corpus, sess.want, true)
	automata.EnableObservability(nil, traced.reg)
	replay.EnableObservability(traced.reg)
	defer automata.DisableObservability()
	defer replay.DisableObservability()
	if err := traced.warmUp(w.warmup); err != nil {
		return nil, err
	}
	rec := newRecorder()
	runtime.GC()
	l0, g0 := readLayers(traced.reg), readGC()
	tt, err := traced.runWindow(half, cfg.seed, rec)
	if err != nil {
		return nil, err
	}
	l1, g1 := readLayers(traced.reg), readGC()
	host.StealJiffies = stealSince(steal0)

	out := &outcome{host: host}
	out.absorb(plain)
	out.absorb(tt)
	out.rec = rec
	if err := sameCounts(plain.first, tt.first, sess.corpus); err != nil {
		out.mismatches = append(out.mismatches, err.Error())
	}
	_, plainCPU := plain.perPass()
	_, tracedCPU := tt.perPass()
	v := tt.verdicts
	phases := (l1.compose - l0.compose) + (l1.check - l0.check) + (l1.replay - l0.replay) + (l1.probe - l0.probe)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	scope := "traced half"
	out.metrics = []metric{
		perVerdict("runtime.alloc_kb_per_verdict", "KiB", float64(tt.allocBytes)/1024, v, "batch cost ledger allocation, "+scope),
		fraction("runtime.gc_cpu_frac", g1.gc-g0.gc, g1.busy-g0.busy, "busy CPU-seconds spent in GC ("+scope+", runtime/metrics)"),
		perVerdict("batch.gap_ms_per_verdict", "ms", ms(tt.end.Sub(tt.start))-float64(tt.sumInstNS)/1e6, v, "window wall minus summed Result.Duration"),
		perVerdict("core.iterations_per_verdict", "1", float64(tt.iterations), v, scope),
		perVerdict("core.compose_ms_per_verdict", "ms", ms(l1.compose-l0.compose), v, "core.compose timer"),
		perVerdict("core.check_ms_per_verdict", "ms", ms(l1.check-l0.check), v, "core.check timer"),
		perVerdict("core.replay_ms_per_verdict", "ms", ms(l1.replay-l0.replay), v, "core.replay timer"),
		perVerdict("core.probe_ms_per_verdict", "ms", ms(l1.probe-l0.probe), v, "core.probe timer"),
		perVerdict("core.residual_ms_per_verdict", "ms", float64(tt.sumInstNS)/1e6-ms(phases), v, "summed Result.Duration minus the four phase timers"),
		fraction("automata.patch_ratio", float64(l1.patches-l0.patches), float64(l1.patches-l0.patches+l1.rebuilds-l0.rebuilds), "product builds served by patching"),
		{Name: "automata.peak_states", Unit: "count", Value: float64(tt.peakStates), Base: fmt.Sprintf("max PeakSystemStates over %d verdicts", v)},
		perVerdict("memo.lookups_per_verdict", "1", float64(tt.memoHits+tt.memoMisses), v, "memo hits plus misses"),
		fraction("memo.hit_ratio", float64(tt.memoHits), float64(tt.memoHits+tt.memoMisses), "memo lookups that hit"),
		perVerdict("ctl.words_per_verdict", "1", float64(tt.ctlWords), v, "bitset words from the cost ledger"),
		{Name: "ctl.check_us", Unit: "us", Value: meanUS(l1.ctlCheckNS-l0.ctlCheckNS, l1.ctlChecks-l0.ctlChecks),
			Base: fmt.Sprintf("mean of %d ctl.check histogram observations", l1.ctlChecks-l0.ctlChecks)},
		perVerdict("legacy.resets_per_verdict", "1", float64(tt.calls.Resets), v, "Reset calls on the legacy component"),
		perVerdict("legacy.step_ms_per_verdict", "ms", float64(tt.calls.StepNS)/1e6, v, "time inside Step calls"),
		notReached("memostore.writes_per_verdict", "1", "in-process workloads keep no store"),
		notReached("memostore.kb_written_per_verdict", "KiB", "in-process workloads keep no store"),
		notReached("verifyd.submit_ms", "ms", "in-process workload"),
		notReached("verifyd.queue_ms", "ms", "in-process workload"),
		notReached("verifyd.fetch_ms", "ms", "in-process workload"),
		notReached("verifyd.notify_ms", "ms", "in-process workload"),
		notReached("obs.events_per_verdict", "1", "in-process workloads attach no journal"),
		{Name: "trace.overhead_cpu_ms_per_verdict", Unit: "ms", Value: median(tracedCPU) - median(plainCPU),
			Base: fmt.Sprintf("per verdict over %d traced and %d untraced verdicts; median of %d traced minus median of %d untraced passes",
				tt.verdicts, plain.verdicts, len(tracedCPU), len(plainCPU))},
	}
	return out, nil
}

func meanUS(sumNS, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sumNS) / float64(n) / 1e3
}

// sameCounts checks that two windows over the same corpus recorded the
// same exact counts for every instance both ran.
func sameCounts(a, b []record, corpus []instance) error {
	compared := 0
	for i := range a {
		if !a[i].Seen || !b[i].Seen {
			continue
		}
		compared++
		x, y := a[i], b[i]
		// Allocation is left out: the runtime counts it per span refill,
		// so one instance's share is not exact.
		x.AllocBytes, y.AllocBytes = 0, 0
		if x != y {
			return fmt.Errorf("%s: untraced %+v, traced %+v", corpus[i].name, a[i], b[i])
		}
	}
	if compared == 0 {
		return fmt.Errorf("traced and untraced halves share no instance")
	}
	return nil
}
