package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"muml/internal/automata"
	"muml/internal/batch"
	"muml/internal/core"
	"muml/internal/gen"
	"muml/internal/memostore"
	"muml/internal/obs"
)

// jobState is the lifecycle of one submitted job.
type jobState string

const (
	stateQueued   jobState = "queued"
	stateRunning  jobState = "running"
	stateDone     jobState = "done"
	stateFailed   jobState = "failed"
	stateCanceled jobState = "canceled"
)

// jobRequest is the JSON envelope of POST /jobs. Exactly one instance
// source — Manifest, Gen, or Scenarios — must be set. Alternatively the
// manifest JSONL may be posted directly as the request body (any
// non-application/json content type), with the remaining fields as query
// parameters.
type jobRequest struct {
	// Manifest is the JSONL manifest text (batch.ManifestItems syntax).
	Manifest string `json:"manifest,omitempty"`
	// Gen describes a seeded generator range.
	Gen *genSpec `json:"gen,omitempty"`
	// Scenarios selects the railroad-crossing example scenarios.
	Scenarios bool `json:"scenarios,omitempty"`
	// Workers overrides the server's worker-pool size for this job.
	Workers int `json:"workers,omitempty"`
	// DeadlineMS bounds each instance (0 = server default).
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// ShardIndex/ShardCount select a name-hash shard of the job, so N
	// processes sharing a store directory can split it (batch.ShardItems).
	ShardIndex int `json:"shard_index,omitempty"`
	ShardCount int `json:"shard_count,omitempty"`
}

type genSpec struct {
	Seed      int64  `json:"seed"`
	N         int    `json:"n"`
	Config    string `json:"config,omitempty"` // "default" or "wide"
	MaxStates int    `json:"max_states,omitempty"`
}

// verdictLine is one instance's outcome as served by /jobs/{id}/verdicts:
// only the deterministic fields (no durations, workers, or indices), so
// the rendered document is byte-identical across runs, worker counts, and
// — once shards are merged and sorted — shard counts.
type verdictLine struct {
	Name       string       `json:"name"`
	Verdict    string       `json:"verdict,omitempty"`
	Kind       string       `json:"kind,omitempty"`
	Iterations int          `json:"iterations,omitempty"`
	Error      string       `json:"error,omitempty"`
	Cost       *verdictCost `json:"cost,omitempty"`
}

// verdictCost is the deterministic subset of an instance's cost ledger —
// the effort figures that are identical across worker counts and
// warm-starts (DESIGN.md §15), so they can live inside the byte-identity
// contract of the verdict document. The measured figures (CPU, bytes)
// are served only by /jobs/{id} and the cost_report journal event.
type verdictCost struct {
	PeakStates int64 `json:"peak_states"`
	CTLWords   int64 `json:"ctl_words"`
}

// job is one submitted verification job.
type job struct {
	mu        sync.Mutex
	id        string
	source    string
	shard     string // "index/count" when sharded
	items     []batch.Item
	workers   int
	deadline  time.Duration
	state     jobState
	errText   string
	submitted time.Time
	finished  time.Time
	progress  *batch.Progress
	summary   *batch.Summary
	verdicts  []verdictLine

	memoHits, memoMisses   int64
	storeHits, storeMisses int64

	journalPath string
}

// jobStatus is the GET /jobs/{id} document.
type jobStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Source    string `json:"source"`
	Shard     string `json:"shard,omitempty"`
	Instances int    `json:"instances"`
	Error     string `json:"error,omitempty"`

	SubmittedUnixNS int64 `json:"submitted_unix_ns"`
	DurationNS      int64 `json:"duration_ns,omitempty"`

	Progress *batch.ProgressSnapshot `json:"progress,omitempty"`

	Proven     int `json:"proven"`
	Violations int `json:"violations"`
	Errored    int `json:"errored"`
	TimedOut   int `json:"timed_out"`

	MemoHits    int64   `json:"memo_hits"`
	MemoMisses  int64   `json:"memo_misses"`
	MemoHitRate float64 `json:"memo_hit_rate"`
	StoreHits   int64   `json:"store_hits"`
	StoreMisses int64   `json:"store_misses"`

	// Cost is the job's full resource ledger — the exact sum of its
	// instance ledgers (batch.Summary.Cost).
	Cost *batch.Cost `json:"cost,omitempty"`
}

func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID:              j.id,
		State:           string(j.state),
		Source:          j.source,
		Shard:           j.shard,
		Instances:       len(j.items),
		Error:           j.errText,
		SubmittedUnixNS: j.submitted.UnixNano(),
		MemoHits:        j.memoHits,
		MemoMisses:      j.memoMisses,
		StoreHits:       j.storeHits,
		StoreMisses:     j.storeMisses,
	}
	if !j.finished.IsZero() {
		st.DurationNS = j.finished.Sub(j.submitted).Nanoseconds()
	}
	if j.state == stateRunning || j.state == stateDone {
		snap := j.progress.Snapshot()
		st.Progress = &snap
	}
	if j.summary != nil {
		st.Proven = j.summary.Proven
		st.Violations = j.summary.Violations
		st.Errored = j.summary.Errored
		st.TimedOut = j.summary.TimedOut
		cost := j.summary.Cost
		st.Cost = &cost
	}
	if total := j.memoHits + j.memoMisses; total > 0 {
		st.MemoHitRate = float64(j.memoHits) / float64(total)
	}
	return st
}

// server is the verifyd job service: a bounded queue of jobs drained by a
// single runner goroutine into batch.Verify over a shared memo cache
// backed by the persistent store. One job runs at a time — parallelism
// lives inside the batch pool — so per-job memo deltas are exact.
type server struct {
	workers  int
	deadline time.Duration
	spool    string

	memo     *automata.MemoCache
	store    *memostore.Store
	journal  *obs.Journal
	registry *obs.Registry
	overload *obs.Overload

	queue    chan *job
	draining atomic.Bool
	drainC   chan struct{}
	doneC    chan struct{}
	drain1   sync.Once

	runMu     sync.Mutex
	runCancel context.CancelFunc

	mu     sync.Mutex
	jobs   map[string]*job
	order  []string
	nextID int

	mSubmitted, mDone, mRejected *obs.Counter
}

// serverConfig wires a server; every field except memo is optional.
type serverConfig struct {
	Workers  int
	Deadline time.Duration
	Spool    string
	QueueCap int
	Memo     *automata.MemoCache
	Store    *memostore.Store
	Journal  *obs.Journal
	Registry *obs.Registry
	// Overload, when non-nil, gates job intake: while active, POST /jobs
	// answers 503 + Retry-After and /readyz fails (obs.Overload).
	Overload *obs.Overload
}

func newServer(cfg serverConfig) *server {
	cap := cfg.QueueCap
	if cap <= 0 {
		cap = 16
	}
	s := &server{
		workers:    cfg.Workers,
		deadline:   cfg.Deadline,
		spool:      cfg.Spool,
		memo:       cfg.Memo,
		store:      cfg.Store,
		journal:    cfg.Journal,
		registry:   cfg.Registry,
		overload:   cfg.Overload,
		queue:      make(chan *job, cap),
		drainC:     make(chan struct{}),
		doneC:      make(chan struct{}),
		jobs:       make(map[string]*job),
		mSubmitted: cfg.Registry.Counter("verifyd.jobs_submitted"),
		mDone:      cfg.Registry.Counter("verifyd.jobs_done"),
		mRejected:  cfg.Registry.Counter("verifyd.jobs_rejected"),
	}
	go s.runLoop()
	return s
}

// beginDrain stops job intake: new submissions are rejected, queued jobs
// are canceled, and the runner exits once the in-flight job (if any)
// finishes. Idempotent.
func (s *server) beginDrain() {
	s.drain1.Do(func() {
		s.draining.Store(true)
		close(s.drainC)
	})
}

// hardCancel additionally aborts the in-flight job's batch context;
// running instances unwind through the cancellation path and report as
// timed out/canceled.
func (s *server) hardCancel() {
	s.beginDrain()
	s.runMu.Lock()
	if s.runCancel != nil {
		s.runCancel()
	}
	s.runMu.Unlock()
}

// wait blocks until the runner has drained (every accepted job reached a
// terminal state).
func (s *server) wait() { <-s.doneC }

// queueDepth reports the number of queued (not yet running) jobs — the
// signal the overload controller watches between samples.
func (s *server) queueDepth() int { return len(s.queue) }

// ready backs the /readyz probe: the server wants traffic unless it is
// draining or the admission controller has latched overload.
func (s *server) ready() (bool, string) {
	if s.draining.Load() {
		return false, "draining"
	}
	if active, reason := s.overload.Active(); active {
		return false, "overloaded: " + reason
	}
	return true, ""
}

func (s *server) runLoop() {
	defer close(s.doneC)
	for {
		select {
		case j := <-s.queue:
			s.overload.ObserveQueue(len(s.queue))
			if s.draining.Load() {
				s.finishCanceled(j, "server draining")
				continue
			}
			s.runJob(j)
			s.overload.ObserveQueue(len(s.queue))
		case <-s.drainC:
			for {
				select {
				case j := <-s.queue:
					s.finishCanceled(j, "server draining")
				default:
					return
				}
			}
		}
	}
}

func (s *server) finishCanceled(j *job, reason string) {
	j.mu.Lock()
	j.state = stateCanceled
	j.errText = reason
	j.finished = time.Now()
	j.mu.Unlock()
	s.emitJobDone(j)
}

func (s *server) runJob(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	s.runMu.Lock()
	s.runCancel = cancel
	s.runMu.Unlock()
	defer func() {
		s.runMu.Lock()
		s.runCancel = nil
		s.runMu.Unlock()
		cancel()
	}()

	memoHits0, memoMisses0, _ := s.memo.Stats()
	storeHits0, storeMisses0, _, _, _ := s.store.Stats()

	j.mu.Lock()
	j.state = stateRunning
	workers, deadline, items := j.workers, j.deadline, j.items
	j.mu.Unlock()

	// Each job journals its batch events into its own spool file, served
	// back by GET /jobs/{id}/journal; cache and store events go to the
	// server journal the memo surfaces were built over.
	var jobJournal *obs.Journal
	var journalPath string
	if s.spool != "" {
		path := filepath.Join(s.spool, j.id+".jsonl")
		if run, err := obs.OpenRun(obs.RunOptions{JournalPath: path}); err == nil {
			jobJournal = run.Journal
			journalPath = path
			defer run.Close()
		}
	}

	sum, err := batch.Verify(items, batch.Options{
		Workers:  workers,
		Deadline: deadline,
		Context:  ctx,
		Memo:     s.memo,
		Journal:  jobJournal,
		Metrics:  s.registry,
		Progress: j.progress,
	})

	memoHits1, memoMisses1, _ := s.memo.Stats()
	storeHits1, storeMisses1, _, _, _ := s.store.Stats()

	j.mu.Lock()
	j.finished = time.Now()
	j.journalPath = journalPath
	j.memoHits = memoHits1 - memoHits0
	j.memoMisses = memoMisses1 - memoMisses0
	j.storeHits = storeHits1 - storeHits0
	j.storeMisses = storeMisses1 - storeMisses0
	switch {
	case err != nil:
		j.state = stateFailed
		j.errText = err.Error()
	case ctx.Err() != nil:
		j.state = stateCanceled
		j.errText = "canceled by shutdown"
		j.summary = sum
		j.verdicts = renderVerdicts(sum)
	default:
		j.state = stateDone
		j.summary = sum
		j.verdicts = renderVerdicts(sum)
	}
	j.mu.Unlock()
	s.emitJobDone(j)
}

// renderVerdicts projects a summary onto the deterministic verdict lines,
// sorted by instance name.
func renderVerdicts(sum *batch.Summary) []verdictLine {
	lines := make([]verdictLine, 0, len(sum.Results))
	for _, res := range sum.Results {
		line := verdictLine{Name: res.Name}
		if res.Err != nil {
			line.Error = res.Err.Error()
		} else {
			line.Verdict = res.Verdict.String()
			line.Iterations = res.Iterations
			if res.Verdict == core.VerdictViolation {
				line.Kind = res.Kind.String()
			}
			line.Cost = &verdictCost{
				PeakStates: res.Cost.PeakStates,
				CTLWords:   res.Cost.CTLWords,
			}
		}
		lines = append(lines, line)
	}
	sort.SliceStable(lines, func(i, k int) bool { return lines[i].Name < lines[k].Name })
	return lines
}

func (s *server) emitJobDone(j *job) {
	s.mDone.Add(1)
	if !s.journal.Enabled() {
		return
	}
	j.mu.Lock()
	e := obs.Event{Kind: obs.KindJobDone, Iter: -1,
		DurNS: j.finished.Sub(j.submitted).Nanoseconds(),
		S:     map[string]string{"job": j.id, "state": string(j.state)},
		N: map[string]int64{
			"instances":   int64(len(j.items)),
			"memo_hits":   j.memoHits,
			"memo_misses": j.memoMisses,
		},
	}
	if j.errText != "" {
		e.S["error"] = j.errText
	}
	var cost *obs.Event
	if j.summary != nil {
		e.N["proven"] = int64(j.summary.Proven)
		e.N["violations"] = int64(j.summary.Violations)
		e.N["errored"] = int64(j.summary.Errored)
		// The job's cost_report on the server journal mirrors the one
		// batch.Verify wrote into the job's spool journal, tagged with the
		// job id so journalstat -cost can attribute it.
		c := j.summary.Cost
		cost = &obs.Event{Kind: obs.KindCostReport, Iter: -1,
			DurNS: j.finished.Sub(j.submitted).Nanoseconds(),
			S:     map[string]string{"job": j.id},
			N: map[string]int64{
				"instances":   int64(len(j.summary.Results)),
				"cpu_ns":      c.CPUNS,
				"alloc_bytes": c.AllocBytes,
				"peak_states": c.PeakStates,
				"ctl_words":   c.CTLWords,
				"memo_hits":   c.MemoHits,
				"memo_misses": c.MemoMisses,
			}}
	}
	j.mu.Unlock()
	s.journal.Emit(e)
	if cost != nil {
		s.journal.Emit(*cost)
	}
}

// submit validates a request, builds its items, and enqueues the job.
func (s *server) submit(req jobRequest) (*job, int, error) {
	if s.draining.Load() {
		s.mRejected.Add(1)
		return nil, http.StatusServiceUnavailable, fmt.Errorf("verifyd: draining, not accepting jobs")
	}
	if active, reason := s.overload.Active(); active {
		s.mRejected.Add(1)
		return nil, http.StatusServiceUnavailable, fmt.Errorf("verifyd: overloaded (%s), retry later", reason)
	}
	if err := req.validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}

	var items []batch.Item
	var source string
	switch {
	case req.Manifest != "":
		var err error
		items, err = batch.ManifestItems(strings.NewReader(req.Manifest))
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		if len(items) == 0 {
			return nil, http.StatusBadRequest, fmt.Errorf("verifyd: manifest has no instances")
		}
		source = fmt.Sprintf("manifest(%d)", len(items))
	case req.Gen != nil:
		g := *req.Gen
		var cfg gen.Config
		switch g.Config {
		case "", "default":
			cfg = gen.DefaultConfig()
		case "wide":
			cfg = gen.WideConfig()
		default:
			return nil, http.StatusBadRequest, fmt.Errorf("verifyd: unknown gen config %q", g.Config)
		}
		if g.MaxStates > 0 {
			cfg.MaxLegacyStates = g.MaxStates
			cfg.MaxContextStates = g.MaxStates
		}
		items = batch.GenItems(g.Seed, g.N, cfg)
		source = fmt.Sprintf("gen(seed=%d,n=%d)", g.Seed, g.N)
	default:
		items = batch.ScenarioItems()
		source = "scenarios"
	}

	shard := ""
	if req.ShardCount > 0 {
		var err error
		items, err = batch.ShardItems(items, req.ShardIndex, req.ShardCount)
		if err != nil {
			return nil, http.StatusBadRequest, err
		}
		shard = fmt.Sprintf("%d/%d", req.ShardIndex, req.ShardCount)
	}

	workers := req.Workers
	if workers <= 0 {
		workers = s.workers
	}
	deadline := time.Duration(req.DeadlineMS) * time.Millisecond
	if deadline == 0 {
		deadline = s.deadline
	}

	s.mu.Lock()
	s.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%d", s.nextID),
		source:    source,
		shard:     shard,
		items:     items,
		workers:   workers,
		deadline:  deadline,
		state:     stateQueued,
		submitted: time.Now(),
		progress:  batch.NewProgress(),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	select {
	case s.queue <- j:
		s.overload.ObserveQueue(len(s.queue))
	default:
		s.mu.Lock()
		delete(s.jobs, j.id)
		s.order = s.order[:len(s.order)-1]
		s.mu.Unlock()
		s.mRejected.Add(1)
		return nil, http.StatusServiceUnavailable, fmt.Errorf("verifyd: job queue full (%d pending)", cap(s.queue))
	}

	s.mSubmitted.Add(1)
	if s.journal.Enabled() {
		e := obs.Event{Kind: obs.KindJobSubmitted, Iter: -1,
			S: map[string]string{"job": j.id, "source": source},
			N: map[string]int64{"instances": int64(len(items)), "queue_depth": int64(len(s.queue))},
		}
		if shard != "" {
			e.S["shard"] = shard
		}
		s.journal.Emit(e)
	}
	return j, http.StatusAccepted, nil
}

func (s *server) get(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// progressSnapshot is the /progress payload: job tallies, the in-flight
// job's batch progress, and the persistent-store counters.
type progressSnapshot struct {
	Queued   int  `json:"jobs_queued"`
	Running  int  `json:"jobs_running"`
	Done     int  `json:"jobs_done"`
	Failed   int  `json:"jobs_failed"`
	Canceled int  `json:"jobs_canceled"`
	Draining bool `json:"draining"`

	Overloaded     bool   `json:"overloaded"`
	OverloadReason string `json:"overload_reason,omitempty"`

	CurrentJob string                  `json:"current_job,omitempty"`
	Batch      *batch.ProgressSnapshot `json:"batch,omitempty"`

	MemoHits   int64 `json:"memo_hits"`
	MemoMisses int64 `json:"memo_misses"`

	StoreHits      int64 `json:"store_hits"`
	StoreMisses    int64 `json:"store_misses"`
	StoreEvictions int64 `json:"store_evictions"`
	StoreEntries   int   `json:"store_entries"`
	StoreBytes     int64 `json:"store_bytes"`
}

func (s *server) progressSnapshot() any {
	snap := progressSnapshot{Draining: s.draining.Load()}
	snap.Overloaded, snap.OverloadReason = s.overload.Active()
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	for _, id := range ids {
		j := s.get(id)
		j.mu.Lock()
		state := j.state
		j.mu.Unlock()
		switch state {
		case stateQueued:
			snap.Queued++
		case stateRunning:
			snap.Running++
			snap.CurrentJob = j.id
			b := j.progress.Snapshot()
			snap.Batch = &b
		case stateDone:
			snap.Done++
		case stateFailed:
			snap.Failed++
		case stateCanceled:
			snap.Canceled++
		}
	}
	snap.MemoHits, snap.MemoMisses, _ = s.memo.Stats()
	snap.StoreHits, snap.StoreMisses, snap.StoreEvictions, snap.StoreEntries, snap.StoreBytes = s.store.Stats()
	return snap
}

// mux returns the job API routes, mounted behind the shared httpd plane.
func (s *server) mux() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/verdicts", s.handleVerdicts)
	mux.HandleFunc("GET /jobs/{id}/journal", s.handleJournal)
	return mux
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req jobRequest
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		var err error
		if req, err = decodeJobRequest(r.Body); err != nil {
			http.Error(w, fmt.Sprintf("verifyd: bad request body: %v", bodyError(err)), http.StatusBadRequest)
			return
		}
	} else {
		// Raw manifest post: the body is the JSONL manifest, the knobs are
		// query parameters — the curl-friendly form.
		body, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, fmt.Sprintf("verifyd: reading body: %v", bodyError(err)), http.StatusBadRequest)
			return
		}
		req.Manifest = string(body)
		q := r.URL.Query()
		if req.Workers, err = intParam(q.Get("workers"), 0); err != nil {
			http.Error(w, "verifyd: bad workers parameter", http.StatusBadRequest)
			return
		}
		if req.ShardIndex, err = intParam(q.Get("shard_index"), 0); err != nil {
			http.Error(w, "verifyd: bad shard_index parameter", http.StatusBadRequest)
			return
		}
		if req.ShardCount, err = intParam(q.Get("shard_count"), 0); err != nil {
			http.Error(w, "verifyd: bad shard_count parameter", http.StatusBadRequest)
			return
		}
		ms, err := intParam(q.Get("deadline_ms"), 0)
		if err != nil {
			http.Error(w, "verifyd: bad deadline_ms parameter", http.StatusBadRequest)
			return
		}
		req.DeadlineMS = int64(ms)
	}

	j, code, err := s.submit(req)
	if err != nil {
		if code == http.StatusServiceUnavailable {
			// Shed load politely: draining never recovers, but a full queue
			// or overload usually clears within a job's runtime.
			w.Header().Set("Retry-After", "1")
		}
		http.Error(w, err.Error(), code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(j.status())
}

func (s *server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := struct {
		Jobs     []jobStatus `json:"jobs"`
		Draining bool        `json:"draining"`
	}{Jobs: make([]jobStatus, 0, len(ids)), Draining: s.draining.Load()}
	for _, id := range ids {
		out.Jobs = append(out.Jobs, s.get(id).status())
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(j.status())
}

func (s *server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		http.NotFound(w, r)
		return
	}
	j.mu.Lock()
	state := j.state
	lines := j.verdicts
	j.mu.Unlock()
	if state != stateDone && state != stateCanceled {
		http.Error(w, fmt.Sprintf("verifyd: job %s is %s, verdicts not available", j.id, state), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	for _, line := range lines {
		enc.Encode(line)
	}
}

func (s *server) handleJournal(w http.ResponseWriter, r *http.Request) {
	j := s.get(r.PathValue("id"))
	if j == nil {
		http.NotFound(w, r)
		return
	}
	j.mu.Lock()
	path := j.journalPath
	j.mu.Unlock()
	if path == "" {
		http.Error(w, fmt.Sprintf("verifyd: job %s has no journal (yet)", j.id), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	http.ServeFile(w, r, path)
}

// decodeJobRequest decodes the JSON envelope of POST /jobs: one object of
// known fields, followed by nothing but white space (the rule
// batch.ManifestItems applies to each manifest line).
func decodeJobRequest(body io.Reader) (jobRequest, error) {
	var req jobRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return jobRequest{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("trailing data after the job request")
		}
		return jobRequest{}, err
	}
	return req, nil
}

// validate checks the envelope before anything is built from it: exactly
// one instance source, a non-negative deadline, and 1 to maxGenInstances
// generated instances.
func (req jobRequest) validate() error {
	sources := 0
	for _, set := range []bool{req.Manifest != "", req.Gen != nil, req.Scenarios} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		return fmt.Errorf("verifyd: exactly one of manifest, gen, scenarios required")
	}
	if req.DeadlineMS < 0 {
		return fmt.Errorf("verifyd: deadline_ms must be non-negative")
	}
	if g := req.Gen; g != nil && (g.N <= 0 || g.N > maxGenInstances) {
		return fmt.Errorf("verifyd: gen.n must be between 1 and %d", maxGenInstances)
	}
	return nil
}

// maxBodyBytes bounds a submitted body, raw manifest or JSON envelope
// (64 MiB is ~1M instances).
const maxBodyBytes = 64 << 20

// maxGenInstances bounds gen.n at the ~1M instances a maxBodyBytes manifest
// holds: batch.GenItems allocates every item up front.
const maxGenInstances = 1 << 20

// bodyError names a body over maxBodyBytes as such.
func bodyError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Errorf("body exceeds %d bytes", maxBodyBytes)
	}
	return err
}

func intParam(raw string, def int) (int, error) {
	if raw == "" {
		return def, nil
	}
	return strconv.Atoi(raw)
}
