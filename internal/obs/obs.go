// Package obs is the observability subsystem of the synthesis stack: a
// structured event journal, a lightweight metrics registry (counters,
// max-gauges, timers), and profiling hooks. It has no dependencies outside
// the standard library and — crucially — is built so that a *disabled*
// journal or registry costs next to nothing: every entry point is nil-safe
// (methods on nil receivers return immediately, without allocating), so
// instrumented code guards hot paths with a single predictable branch.
//
// The journal records the verify–test–learn loop as typed events
// (iteration_start, check_result, cex_classified, replay_step,
// probe_result, learn_delta, closure_patched, product_rebuilt, verdict)
// with monotonic sequence numbers and wall-clock durations, the way
// model-checking-driven black-box testing work reports per-query cost.
// Two sinks ship with the package: a JSONL backend for machine analysis
// (one event per line, schema-validated by ValidateJSONL) and a
// human-readable text backend that keeps `legint -verbose` output
// recognizable, including the paper-style trace listings carried as event
// payloads.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// EventKind names the type of a journal event.
type EventKind string

// The event taxonomy of the synthesis loop (DESIGN.md §7). An event's kind
// determines which payload fields are meaningful; unknown kinds are
// rejected by ValidateJSONL.
const (
	// KindIterationStart opens one loop iteration: model sizes before
	// learning (n: model_states, model_transitions, model_blocked).
	KindIterationStart EventKind = "iteration_start"
	// KindClosurePatched reports that this iteration's verification system
	// was produced by delta-patching the previous one (n: closure_states,
	// system_states).
	KindClosurePatched EventKind = "closure_patched"
	// KindProductRebuilt reports a from-scratch system construction
	// (s: reason — why patching was not possible).
	KindProductRebuilt EventKind = "product_rebuilt"
	// KindCheckResult is the model-checking outcome of one iteration
	// (n: property_holds, deadlock_free, system_states; dur_ns).
	KindCheckResult EventKind = "check_result"
	// KindCexClassified classifies a counterexample before testing
	// (s: kind, trace; n: in_learned_part, run_witnessed, length).
	KindCexClassified EventKind = "cex_classified"
	// KindReplayStep documents one record/replay execution against the
	// black box, or its prediction by the learned model (s: trace — the
	// paper-style listing; n: periods, blocked_at, diverged, predicted).
	KindReplayStep EventKind = "replay_step"
	// KindProbeResult is one deadlock-confirmation probe (s: state, input,
	// output; n: accepted).
	KindProbeResult EventKind = "probe_result"
	// KindLearnDelta is what one iteration's learning added
	// (n: states, transitions, blocked).
	KindLearnDelta EventKind = "learn_delta"
	// KindIocoMerge is one divergent-but-allowed observation folded into
	// the learned fragment by the nondeterministic path (s: state, input,
	// observed, recorded; n: period, allowed).
	KindIocoMerge EventKind = "ioco_merge"
	// KindVerdict closes a run (s: verdict, kind, trace; n: iterations).
	KindVerdict EventKind = "verdict"
	// KindComposeLevel is one BFS level of an n-ary composition frontier
	// (n: level, frontier, parallel).
	KindComposeLevel EventKind = "compose_level"
	// KindBatchStart opens a batch-verification run (n: instances, workers,
	// deadline_ns).
	KindBatchStart EventKind = "batch_start"
	// KindInstanceDone closes one batch instance (s: name, verdict, error;
	// n: index, worker, timed_out, panicked, iterations; dur_ns).
	KindInstanceDone EventKind = "instance_done"
	// KindCacheHit is one memoization-cache hit: an interned-automaton
	// fingerprint key resolved to a previously solved sub-problem
	// (s: op; n: key_a, key_b, hits).
	KindCacheHit EventKind = "cache_hit"
	// KindJobSubmitted records one job accepted by a verification service
	// (s: job, source, shard; n: instances, queue_depth).
	KindJobSubmitted EventKind = "job_submitted"
	// KindJobDone closes one service job (s: job, state, error; n:
	// instances, proven, violations, errored, memo_hits, memo_misses;
	// dur_ns).
	KindJobDone EventKind = "job_done"
	// KindStoreHit is one persistent-memo-store read that returned a valid
	// record (s: op, key; n: key_a, key_b, bytes).
	KindStoreHit EventKind = "store_hit"
	// KindStoreMiss is one persistent-memo-store read that found no record
	// (s: op, key; n: key_a, key_b).
	KindStoreMiss EventKind = "store_miss"
	// KindStoreEvict is one record removed from the persistent memo store
	// (s: key, reason — "corrupt" for a failed integrity check, "size" for
	// the LRU capacity sweep; n: bytes).
	KindStoreEvict EventKind = "store_evict"
	// KindResourceSample is one periodic reading of the Go runtime taken
	// by the RuntimeSampler (n: heap_live_bytes, heap_goal_bytes,
	// goroutines, gc_cycles, alloc_bytes, alloc_rate_bps, gc_pause_ns —
	// cumulative where named so, deltas where rates).
	KindResourceSample EventKind = "resource_sample"
	// KindCostReport aggregates the per-instance cost ledgers of one batch
	// or job (s: job — when emitted by a service; n: instances, cpu_ns,
	// alloc_bytes, peak_states, ctl_words, memo_hits, memo_misses).
	KindCostReport EventKind = "cost_report"
	// KindOverloadEnter marks the admission controller tripping: the
	// process sheds load until the exit event (s: reason; n:
	// heap_live_bytes, queue_depth).
	KindOverloadEnter EventKind = "overload_enter"
	// KindOverloadExit marks recovery from overload (n: heap_live_bytes,
	// queue_depth; dur_ns — time spent overloaded).
	KindOverloadExit EventKind = "overload_exit"
	// KindHistogramSnapshot is the final state of one latency histogram,
	// emitted when a run's observability surfaces close (s: name; n:
	// count, sum_ns, and per-bucket counts b00..b27 over HistogramBounds —
	// zero buckets are omitted, and count equals the sum of the bucket
	// fields).
	KindHistogramSnapshot EventKind = "histogram_snapshot"
	// KindNote is a freeform progress note (s: text).
	KindNote EventKind = "note"
)

// KnownKinds is the closed set of event kinds accepted by the JSONL schema.
var KnownKinds = map[EventKind]bool{
	KindIterationStart:    true,
	KindClosurePatched:    true,
	KindProductRebuilt:    true,
	KindCheckResult:       true,
	KindCexClassified:     true,
	KindReplayStep:        true,
	KindProbeResult:       true,
	KindLearnDelta:        true,
	KindIocoMerge:         true,
	KindVerdict:           true,
	KindComposeLevel:      true,
	KindBatchStart:        true,
	KindInstanceDone:      true,
	KindCacheHit:          true,
	KindJobSubmitted:      true,
	KindJobDone:           true,
	KindStoreHit:          true,
	KindStoreMiss:         true,
	KindStoreEvict:        true,
	KindResourceSample:    true,
	KindCostReport:        true,
	KindOverloadEnter:     true,
	KindOverloadExit:      true,
	KindHistogramSnapshot: true,
	KindNote:              true,
}

// Event is one journal record. The payload is split into integer fields
// (N) and string fields (S) so that a JSONL round trip reproduces the
// value exactly (no float64 widening). Iter is -1 for events not scoped to
// a loop iteration.
//
// Events carry causal identity (DESIGN.md §10): Trace groups all events
// of one synthesis instance, Span marks events that open a span (an
// iteration, a counterexample's test section), and Parent points at the
// enclosing span, so a journal reconstructs as a span tree and exports as
// a Chrome trace (WriteChromeTrace). All three are optional — events from
// untraced emitters (compose_level, cache_hit) simply leave them zero.
type Event struct {
	// Seq is the monotonic sequence number, assigned by the Journal at
	// emission; the first emitted event has Seq 1.
	Seq  uint64    `json:"seq"`
	Kind EventKind `json:"kind"`
	// Iter is the loop iteration the event belongs to, or -1.
	Iter int `json:"iter"`
	// TNS is the emission timestamp in nanoseconds since the journal was
	// opened (monotonic clock), stamped by Journal.Emit; 0 on events that
	// never passed through a journal.
	TNS int64 `json:"t_ns,omitempty"`
	// DurNS is the wall-clock duration covered by the event, if any.
	DurNS int64 `json:"dur_ns,omitempty"`
	// Trace identifies the synthesis instance the event belongs to; it is
	// constant across all events of one instance.
	Trace string `json:"trace,omitempty"`
	// Span, when non-zero, is the journal-unique ID of the span this
	// event opens (allocated by Journal.NewSpan); later events reference
	// it via Parent.
	Span uint64 `json:"span,omitempty"`
	// Parent, when non-zero, is the enclosing span's ID. The opening
	// event always precedes its children in the journal.
	Parent uint64 `json:"parent,omitempty"`
	// N holds integer payload fields (sizes, counts, booleans as 0/1).
	N map[string]int64 `json:"n,omitempty"`
	// S holds string payload fields (reasons, verdicts, rendered traces).
	S map[string]string `json:"s,omitempty"`
}

// Sink receives emitted events. Implementations need not be goroutine-safe:
// the Journal serializes emissions.
type Sink interface {
	Emit(e Event)
}

// Journal assigns monotonic sequence numbers and forwards events to a
// sink. A nil *Journal is a valid, disabled journal: Emit on it is a
// single branch, and Enabled reports false so callers can skip payload
// construction entirely.
//
// Journal is safe for concurrent use — the batch pool's workers emit
// through the same mutex, so sinks observe a strictly increasing
// sequence.
type Journal struct {
	mu    sync.Mutex
	seq   uint64
	spans atomic.Uint64
	epoch time.Time
	sink  Sink
}

// NewJournal wraps a sink. A nil sink yields a disabled journal.
func NewJournal(sink Sink) *Journal {
	if sink == nil {
		return nil
	}
	return &Journal{sink: sink, epoch: time.Now()}
}

// Enabled reports whether emitted events reach a sink. Guard expensive
// payload construction (rendered traces, size counts) behind this.
func (j *Journal) Enabled() bool { return j != nil }

// Emit assigns the next sequence number, stamps the emission timestamp
// (nanoseconds since the journal was opened, monotonic — so timestamps
// are non-decreasing across the file), and forwards the event. Safe on a
// nil journal and from concurrent goroutines.
func (j *Journal) Emit(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.seq++
	e.Seq = j.seq
	e.TNS = time.Since(j.epoch).Nanoseconds()
	j.sink.Emit(e)
	j.mu.Unlock()
}

// NewSpan allocates a journal-unique span ID (0 on a disabled journal,
// where it is never emitted anyway). Span IDs are independent of sequence
// numbers: an emitter may allocate one before knowing how many events the
// span will cover.
func (j *Journal) NewSpan() uint64 {
	if j == nil {
		return 0
	}
	return j.spans.Add(1)
}

// Seq returns the sequence number of the most recently emitted event
// (0 when nothing was emitted or the journal is disabled).
func (j *Journal) Seq() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seq
}

// Close flushes and closes the underlying sink if it supports it.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if c, ok := j.sink.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}
