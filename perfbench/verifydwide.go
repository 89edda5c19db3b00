package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"muml/internal/automata"
	"muml/internal/replay"
)

// verifydWorkload drives the verifyd binary over HTTP.
type verifydWorkload struct{}

// jobIndices returns the instance indices of window job k: [8k, 8k+16),
// so each job repeats the second half of the previous one.
func jobIndices(k int) (lo, hi int) { return k * jobSize / 2, k*jobSize/2 + jobSize }

// warmupJobs is the number of warm-up jobs; their instances are disjoint
// from the window's.
const warmupJobs = 4

// warmupBase is the first instance index of the warm-up jobs.
const warmupBase = 1 << 30

// sliceLen is the minimum length of a rate/CPU slice of jobs: verifyd's
// CPU time is read from /proc at 1/100 s resolution.
const sliceLen = time.Second

// rssJobs is the window job after which verifyd's peak RSS is read. Every
// new instance leaves a product in the memo cache, so the peak grows with
// the jobs served; reading it at a fixed job count keeps it a measure of
// memory for a fixed amount of traffic rather than of throughput.
const rssJobs = 128

// wideJob is one job of the window or of the warm-up.
type wideJob struct {
	// lo and hi bound the job's instance indices.
	lo, hi           int
	id               string
	submit0, submit1 time.Time
	// fetch0 is when job_done arrived and the verdicts were requested.
	fetch0, fetch1 time.Time
	lines          []verdictLine
	status         jobStatus
	journal        jobJournal
}

func (j *wideJob) latency() time.Duration { return j.fetch1.Sub(j.submit0) }

// wideWindow is the record of one window against one server.
type wideWindow struct {
	start, end time.Time
	jobs       []wideJob
	refused    int64
	sliceRate  []float64
	sliceCPU   []float64
	// sliceJobEnd is where each slice's jobs end in jobs.
	sliceJobEnd []int
	events      int64
	rssBytes    int64
	before      map[string]float64
	after       map[string]float64
}

// scraped are the /metrics counters the per-layer metrics use.
var scraped = []string{
	"muml_core_compose_seconds_total", "muml_core_check_seconds_total",
	"muml_core_replay_seconds_total", "muml_core_probe_seconds_total",
	"muml_ctl_check_ns_sum", "muml_ctl_check_ns_count",
	"muml_store_writes_total", "muml_store_bytes_written_total",
}

func wideSeeds(seed int64, lo, hi int) []int64 {
	seeds := make([]int64, 0, hi-lo)
	for k := lo; k < hi; k++ {
		seeds = append(seeds, wideSeed(seed, k))
	}
	return seeds
}

// runJob submits one job, waits for its job_done event and fetches its
// verdicts. A refused submission returns a job with no id.
func (s *server) runJob(seeds []int64, j *wideJob, rec *recorder) error {
	j.submit0 = time.Now()
	id, err := s.submit(seeds)
	j.submit1 = time.Now()
	if err != nil || id == "" {
		return err
	}
	j.id = id
	if err := s.events.waitJob(id); err != nil {
		return err
	}
	j.fetch0 = time.Now()
	if j.lines, err = s.verdicts(id); err != nil {
		return err
	}
	j.fetch1 = time.Now()
	if rec != nil {
		parent := rec.add(0, id, "job", j.submit0, j.fetch1, map[string]int64{"instances": int64(len(seeds))})
		rec.add(parent, id, "POST /jobs", j.submit0, j.submit1, nil)
		rec.add(parent, id, "wait job_done", j.submit1, j.fetch0, nil)
		rec.add(parent, id, "GET /jobs/{id}/verdicts", j.fetch0, j.fetch1, nil)
	}
	return nil
}

// warmUp runs the warm-up jobs and returns them for checking.
func (s *server) warmUp(seed int64) ([]wideJob, error) {
	jobs := make([]wideJob, warmupJobs)
	for w := range jobs {
		j := &jobs[w]
		j.lo = warmupBase + w*jobSize
		j.hi = j.lo + jobSize
		if err := s.runJob(wideSeeds(seed, j.lo, j.hi), j, nil); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		if j.id == "" {
			return nil, fmt.Errorf("warm-up: job refused")
		}
	}
	return jobs, nil
}

// window is the closed loop: one job after the other until d has passed.
func (s *server) window(seed int64, d time.Duration, rec *recorder) (*wideWindow, error) {
	pid := s.cmd.Process.Pid
	w := &wideWindow{}
	var err error
	t0 := time.Now()
	if w.before, err = s.scrape(scraped...); err != nil {
		return nil, err
	}
	rec.add(0, "metrics", "GET /metrics", t0, time.Now(), nil)
	ev0 := s.events.seen.Load()
	w.start = time.Now()
	cpu0, err := procCPU(pid)
	if err != nil {
		return nil, err
	}
	sliceStart, sliceCPU0, sliceVerdicts := w.start, cpu0, 0
	for k := 0; time.Since(w.start) < d; k++ {
		j := wideJob{}
		j.lo, j.hi = jobIndices(k)
		if err := s.runJob(wideSeeds(seed, j.lo, j.hi), &j, rec); err != nil {
			return nil, err
		}
		if j.id == "" {
			w.refused++
			time.Sleep(10 * time.Millisecond)
			continue
		}
		w.jobs = append(w.jobs, j)
		if len(w.jobs) == rssJobs {
			if w.rssBytes, err = peakRSS(pid); err != nil {
				return nil, err
			}
		}
		sliceVerdicts += len(j.lines)
		if now := time.Now(); now.Sub(sliceStart) >= sliceLen {
			cpu, err := procCPU(pid)
			if err != nil {
				return nil, err
			}
			w.sliceRate = append(w.sliceRate, float64(sliceVerdicts)/now.Sub(sliceStart).Seconds())
			w.sliceCPU = append(w.sliceCPU, float64(cpu-sliceCPU0)/1e6/float64(sliceVerdicts))
			w.sliceJobEnd = append(w.sliceJobEnd, len(w.jobs))
			sliceStart, sliceCPU0, sliceVerdicts = now, cpu, 0
		}
	}
	w.end = time.Now()
	if len(w.sliceRate) == 0 && sliceVerdicts > 0 {
		// A window shorter than one slice is one slice.
		cpu, err := procCPU(pid)
		if err != nil {
			return nil, err
		}
		w.sliceRate = append(w.sliceRate, float64(sliceVerdicts)/w.end.Sub(sliceStart).Seconds())
		w.sliceCPU = append(w.sliceCPU, float64(cpu-sliceCPU0)/1e6/float64(sliceVerdicts))
		w.sliceJobEnd = append(w.sliceJobEnd, len(w.jobs))
	}
	w.events = s.events.seen.Load() - ev0
	t1 := time.Now()
	if w.after, err = s.scrape(scraped...); err != nil {
		return nil, err
	}
	rec.add(0, "metrics", "GET /metrics", t1, time.Now(), nil)
	if len(w.jobs) < rssJobs {
		if w.rssBytes, err = peakRSS(pid); err != nil {
			return nil, err
		}
	}
	// Outside the window: each job's status and spool journal.
	for i := range w.jobs {
		j := &w.jobs[i]
		t0 := time.Now()
		body, err := s.get("/jobs/" + j.id)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(body, &j.status); err != nil {
			return nil, fmt.Errorf("status of %s: %w", j.id, err)
		}
		t1 := time.Now()
		if j.journal, err = s.journal(j.id); err != nil {
			return nil, err
		}
		rec.add(0, j.id, "GET /jobs/{id}", t0, t1, nil)
		rec.add(0, j.id, "GET /jobs/{id}/journal", t1, time.Now(), nil)
	}
	return w, nil
}

// checked is the outcome of checking a window's verdicts.
type checked struct {
	verdicts   int64
	failed     int64
	mismatches []string
	steps      int64
	resets     int64
	stepNS     int64
	// layers are the registry counters of the in-process re-run.
	layers layerCounters
}

// check computes the reference verdict of every distinct instance of the
// window and of the warm-up jobs, re-runs those instances in-process (at
// one worker when timed, for the per-layer step times) to count the
// component calls verifyd's run made, and checks every
// verdict line against both: the oracle's verdict, and the in-process
// run's verdict, iterations, CTL words and peak states, which are
// deterministic. Only the window's lines are counted.
func (w *wideWindow) check(seed int64, timed bool, warm []wideJob) (*checked, error) {
	index := map[int]int{}
	var corpus []instance
	for _, j := range append(append([]wideJob(nil), w.jobs...), warm...) {
		for k := j.lo; k < j.hi; k++ {
			if _, ok := index[k]; ok {
				continue
			}
			inst, err := wideInstance(seed, k)
			if err != nil {
				return nil, err
			}
			index[k] = len(corpus)
			corpus = append(corpus, inst)
		}
	}
	want, err := oracle(corpus)
	if err != nil {
		return nil, err
	}
	sess := newSession(corpus, want, timed)
	if timed {
		automata.EnableObservability(nil, sess.reg)
		replay.EnableObservability(sess.reg)
		defer automata.DisableObservability()
		defer replay.DisableObservability()
	} else {
		sess.workers = checkWorkers
	}
	// One batch.Verify call over the whole corpus, so that a wider pool
	// is not held up at the end of every 16-instance job.
	local := &tally{first: make([]record, len(corpus))}
	if err := sess.runJobs(local, identity(len(corpus)), nil); err != nil {
		return nil, err
	}
	c := &checked{mismatches: local.mismatches, layers: readLayers(sess.reg)}
	if local.failed > 0 {
		c.mismatches = append(c.mismatches, fmt.Sprintf("%d instances failed in the in-process re-run", local.failed))
	}
	for n, j := range append(append([]wideJob(nil), w.jobs...), warm...) {
		inWindow := n < len(w.jobs)
		for _, l := range j.lines {
			k, err := wideIndex(seed, l.Name)
			if err != nil {
				return nil, err
			}
			i, ok := index[k]
			if !ok || k < j.lo || k >= j.hi {
				return nil, fmt.Errorf("job %s returned %s, which it was not given", j.id, l.Name)
			}
			r := local.first[i]
			switch {
			case l.Error != "" && inWindow:
				c.failed++
				continue
			case l.Error != "":
				c.mismatches = append(c.mismatches, fmt.Sprintf("warm-up %s failed: %s", l.Name, l.Error))
				continue
			case inWindow:
				c.verdicts++
				c.steps += r.Steps
				c.resets += r.Resets
				c.stepNS += sess.stats[i].StepNS
			}
			if l.Verdict != want[i].String() {
				c.mismatches = append(c.mismatches, fmt.Sprintf("%s: verifyd %s, reference %v", l.Name, l.Verdict, want[i]))
			}
			if l.Verdict != r.Verdict.String() || l.Iterations != r.Iterations || l.Cost == nil ||
				l.Cost.CTLWords != r.CTLWords || l.Cost.PeakStates != r.PeakStates {
				c.mismatches = append(c.mismatches, fmt.Sprintf("%s: verifyd %+v differs from the in-process run %+v", l.Name, l, r))
			}
		}
	}
	if len(w.jobs) == 0 || c.verdicts == 0 {
		return nil, fmt.Errorf("window completed no job")
	}
	return c, nil
}

// wideIndex recovers the instance index from a verdict line's name,
// gen-<seed>-wide.
func wideIndex(seed int64, name string) (int, error) {
	s, ok := strings.CutPrefix(name, "gen-")
	if ok {
		s, ok = strings.CutSuffix(s, "-wide")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if !ok || err != nil {
		return 0, fmt.Errorf("unexpected instance name %q", name)
	}
	return int(v - wideSeed(seed, 0)), nil
}

// jobLatencies groups the job latencies and instance_done durations of
// the window's jobs by the slice they completed in. Jobs after the last
// whole slice are left out, as they are from the slice rates.
func (w *wideWindow) jobLatencies() (latMS, instMS [][]float64) {
	lo := 0
	for _, hi := range w.sliceJobEnd {
		var lat, inst []float64
		for _, j := range w.jobs[lo:hi] {
			lat = append(lat, float64(j.latency())/1e6)
			for _, ns := range j.journal.instanceNS {
				inst = append(inst, float64(ns)/1e6)
			}
		}
		latMS, instMS = append(latMS, lat), append(instMS, inst)
		lo = hi
	}
	return latMS, instMS
}

// setupServer starts a server and warms it up; it returns the server, the
// set-up time and the warm-up jobs.
func setupServer(cfg runConfig) (*server, float64, []wideJob, error) {
	t0 := time.Now()
	s, err := startServer(cfg.verifyd, cfg.workdir)
	if err != nil {
		return nil, 0, nil, err
	}
	warm, err := s.warmUp(cfg.seed)
	if err != nil {
		s.kill()
		return nil, 0, nil, err
	}
	return s, time.Since(t0).Seconds(), warm, nil
}

func (verifydWorkload) run(cfg runConfig) (*outcome, error) {
	if !cfg.trace {
		var s *server
		var setup []float64
		var warm []wideJob
		for r := 0; r < setupRepeats; r++ {
			if s != nil {
				if err := s.stop(); err != nil {
					return nil, err
				}
			}
			srv, secs, jobs, err := setupServer(cfg)
			if err != nil {
				return nil, err
			}
			s, setup, warm = srv, append(setup, secs), append(warm, jobs...)
		}
		host := newHostBlock(fsName(s.dir))
		runtime.GC()
		steal0 := stealJiffies()
		w, err := s.window(cfg.seed, cfg.window, nil)
		if err != nil {
			s.kill()
			return nil, err
		}
		host.StealJiffies = stealSince(steal0)
		if err := s.stop(); err != nil {
			return nil, err
		}
		c, err := w.check(cfg.seed, false, warm)
		if err != nil {
			return nil, err
		}
		out := &outcome{host: host}
		out.absorbWide(w, c)
		latMS, instMS := w.jobLatencies()
		out.metrics = []metric{
			medianMetric("setup_s", "s", setup, "set-ups (start to /readyz, /events, warm-up jobs)"),
			medianMetric("verdicts_per_s", "1/s", w.sliceRate, "≥1 s slices of jobs"),
			perVerdictMedian("cpu_ms_per_verdict", "ms", w.sliceCPU, c.verdicts, "≥1 s slices of jobs, verifyd CPU"),
			groupQuantileMetric("verdict_p50_ms", "ms", instMS, 50, "≥1 s slices of jobs", "instance_done durations"),
			groupQuantileMetric("verdict_p90_ms", "ms", instMS, 90, "≥1 s slices of jobs", "instance_done durations"),
			groupQuantileMetric("job_p50_ms", "ms", latMS, 50, "≥1 s slices of jobs", "job latencies, submit to verdicts fetched"),
			groupQuantileMetric("job_p90_ms", "ms", latMS, 90, "≥1 s slices of jobs", "job latencies, submit to verdicts fetched"),
			{Name: "peak_rss_mb", Unit: "MiB", Value: float64(w.rssBytes) / (1 << 20),
				Base: fmt.Sprintf("VmHWM of verifyd after %d window jobs", min(rssJobs, len(w.jobs)))},
			perVerdict("component_steps_per_verdict", "1", float64(c.steps), c.verdicts, "Step calls, counted by an in-process re-run"),
		}
		return out, nil
	}

	// Traced run: an untraced half against one server, then the same job
	// sequence traced against a fresh server, so both halves see the same
	// memo and store states job by job.
	half := cfg.window / 2
	s1, _, warm1, err := setupServer(cfg)
	if err != nil {
		return nil, err
	}
	host := newHostBlock(fsName(s1.dir))
	runtime.GC()
	steal0 := stealJiffies()
	plain, err := s1.window(cfg.seed, half, nil)
	if err != nil {
		s1.kill()
		return nil, err
	}
	if err := s1.stop(); err != nil {
		return nil, err
	}
	s2, _, warm2, err := setupServer(cfg)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	runtime.GC()
	tw, err := s2.window(cfg.seed, half, rec)
	if err != nil {
		s2.kill()
		return nil, err
	}
	host.StealJiffies = stealSince(steal0)
	if err := s2.stop(); err != nil {
		return nil, err
	}
	cp, err := plain.check(cfg.seed, false, warm1)
	if err != nil {
		return nil, err
	}
	c, err := tw.check(cfg.seed, true, warm2)
	if err != nil {
		return nil, err
	}
	out := &outcome{host: host}
	out.absorbWide(plain, cp)
	out.absorbWide(tw, c)
	out.rec = rec
	if err := sameJobs(plain, tw); err != nil {
		out.mismatches = append(out.mismatches, err.Error())
	}
	out.metrics = tw.layerMetrics(c, cp, plain)
	return out, nil
}

func (o *outcome) absorbWide(w *wideWindow, c *checked) {
	o.attempted += c.verdicts + c.failed + w.refused*jobSize
	o.failed += c.failed + w.refused*jobSize
	o.mismatches = append(o.mismatches, c.mismatches...)
}

// sameJobs checks that two windows agree, job by job, on every verdict
// line and on the memo and store traffic of the jobs both ran.
func sameJobs(a, b *wideWindow) error {
	n := min(len(a.jobs), len(b.jobs))
	if n == 0 {
		return fmt.Errorf("traced and untraced halves share no job")
	}
	for k := 0; k < n; k++ {
		x, y := a.jobs[k], b.jobs[k]
		if len(x.lines) != len(y.lines) {
			return fmt.Errorf("job %d: %d verdicts untraced, %d traced", k, len(x.lines), len(y.lines))
		}
		for i := range x.lines {
			if a, b := x.lines[i].key(), y.lines[i].key(); a != b {
				return fmt.Errorf("job %d: untraced %s, traced %s", k, a, b)
			}
		}
		if x.status.MemoHits != y.status.MemoHits || x.status.MemoMisses != y.status.MemoMisses ||
			x.status.StoreHits != y.status.StoreHits || x.status.StoreMisses != y.status.StoreMisses {
			return fmt.Errorf("job %d: memo/store traffic differs: untraced %+v, traced %+v", k, x.status, y.status)
		}
	}
	return nil
}

func (w *wideWindow) layerMetrics(c, cPlain *checked, plain *wideWindow) []metric {
	v := c.verdicts
	delta := func(name string) float64 { return w.after[name] - w.before[name] }
	var instNS, alloc, iters, ctlWords, hits, misses, peak, journalLines int64
	var submit, queue, fetch, notify []float64
	for _, j := range w.jobs {
		for _, ns := range j.journal.instanceNS {
			instNS += ns
		}
		alloc += j.status.Cost.AllocBytes
		hits += j.status.MemoHits
		misses += j.status.MemoMisses
		journalLines += int64(j.journal.lines)
		for _, l := range j.lines {
			iters += int64(l.Iterations)
			if l.Cost != nil {
				ctlWords += l.Cost.CTLWords
				peak = max(peak, l.Cost.PeakStates)
			}
		}
		ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
		sub, fet := j.submit1.Sub(j.submit0), j.fetch1.Sub(j.fetch0)
		server := time.Duration(j.status.DurationNS)
		submit = append(submit, ms(sub))
		fetch = append(fetch, ms(fet))
		queue = append(queue, ms(server-time.Duration(j.journal.batchNS)))
		notify = append(notify, ms(j.latency()-sub-server-fet))
	}
	phasesMS := 1e3 * (delta("muml_core_compose_seconds_total") + delta("muml_core_check_seconds_total") +
		delta("muml_core_replay_seconds_total") + delta("muml_core_probe_seconds_total"))
	wallMS := float64(w.end.Sub(w.start)) / 1e6
	jobs := fmt.Sprintf("%d jobs", len(w.jobs))
	return []metric{
		perVerdict("runtime.alloc_kb_per_verdict", "KiB", float64(alloc)/1024, v, "verifyd job cost ledgers"),
		notReached("runtime.gc_cpu_frac", "1", "verifyd exports no GC CPU estimate"),
		perVerdict("batch.gap_ms_per_verdict", "ms", wallMS-float64(instNS)/1e6, v, "window wall minus summed instance_done durations"),
		perVerdict("core.iterations_per_verdict", "1", float64(iters), v, "verdict NDJSON"),
		perVerdict("core.compose_ms_per_verdict", "ms", 1e3*delta("muml_core_compose_seconds_total"), v, "muml_core_compose_seconds_total"),
		perVerdict("core.check_ms_per_verdict", "ms", 1e3*delta("muml_core_check_seconds_total"), v, "muml_core_check_seconds_total"),
		perVerdict("core.replay_ms_per_verdict", "ms", 1e3*delta("muml_core_replay_seconds_total"), v, "muml_core_replay_seconds_total"),
		perVerdict("core.probe_ms_per_verdict", "ms", 1e3*delta("muml_core_probe_seconds_total"), v, "muml_core_probe_seconds_total"),
		perVerdict("core.residual_ms_per_verdict", "ms", float64(instNS)/1e6-phasesMS, v, "summed instance_done durations minus the four phase timers"),
		fraction("automata.patch_ratio", float64(c.layers.patches), float64(c.layers.patches+c.layers.rebuilds), "product builds served by patching, in-process re-run"),
		{Name: "automata.peak_states", Unit: "count", Value: float64(peak), Base: fmt.Sprintf("max peak_states over %d verdicts", v)},
		perVerdict("memo.lookups_per_verdict", "1", float64(hits+misses), v, "memo hits plus misses of "+jobs),
		fraction("memo.hit_ratio", float64(hits), float64(hits+misses), "memo lookups that hit, "+jobs),
		perVerdict("ctl.words_per_verdict", "1", float64(ctlWords), v, "verdict NDJSON cost"),
		{Name: "ctl.check_us", Unit: "us", Value: meanUS(int64(delta("muml_ctl_check_ns_sum")), int64(delta("muml_ctl_check_ns_count"))),
			Base: fmt.Sprintf("mean of %.0f ctl.check histogram observations", delta("muml_ctl_check_ns_count"))},
		perVerdict("legacy.resets_per_verdict", "1", float64(c.resets), v, "Reset calls, in-process re-run"),
		perVerdict("legacy.step_ms_per_verdict", "ms", float64(c.stepNS)/1e6, v, "time inside Step calls, in-process re-run"),
		perVerdict("memostore.writes_per_verdict", "1", delta("muml_store_writes_total"), v, "muml_store_writes_total"),
		perVerdict("memostore.kb_written_per_verdict", "KiB", delta("muml_store_bytes_written_total")/1024, v, "muml_store_bytes_written_total"),
		medianMetric("verifyd.submit_ms", "ms", submit, "jobs, POST /jobs round trip"),
		medianMetric("verifyd.queue_ms", "ms", queue, "jobs, server duration minus the batch run"),
		medianMetric("verifyd.fetch_ms", "ms", fetch, "jobs, verdicts GET round trip"),
		medianMetric("verifyd.notify_ms", "ms", notify, "jobs, latency minus submit, server duration and fetch"),
		perVerdict("obs.events_per_verdict", "1", float64(w.events+journalLines), v, "/events events plus spool journal lines"),
		{Name: "trace.overhead_cpu_ms_per_verdict", Unit: "ms", Value: median(w.sliceCPU) - median(plain.sliceCPU),
			Base: fmt.Sprintf("per verdict over %d traced and %d untraced verdicts; median of %d traced minus median of %d untraced slices",
				v, cPlain.verdicts, len(w.sliceCPU), len(plain.sliceCPU))},
	}
}
