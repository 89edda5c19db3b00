package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// This file defines the JSONL journal schema and its validator, used by
// journalstat -validate and the Makefile's obs-smoke gate: every line must
// decode into an Event with no unknown fields, carry a known kind, an
// iteration of -1 or greater, a non-negative duration, and sequence
// numbers must be strictly increasing across the file. On top of the
// per-event checks the validator enforces the causal-trace invariants of
// DESIGN.md §10: span IDs are unique, a parent span must have been opened
// by an earlier event, the trace ID is constant within a span tree, and
// emission timestamps never go backwards. Violations report the offending
// event's sequence number so journalstat -validate pinpoints the first
// bad record.

// jsonlValidator carries the cross-event state of one validation pass.
type jsonlValidator struct {
	prevSeq uint64
	prevTNS int64
	// spanTrace maps every opened span to the trace of its opening event.
	spanTrace map[uint64]string
}

// DecodeJSONL parses a JSONL journal into its events, enforcing the
// schema. It fails on the first invalid line, reporting its 1-based line
// number.
func DecodeJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	v := &jsonlValidator{spanTrace: make(map[uint64]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			return nil, fmt.Errorf("journal line %d: empty line", line)
		}
		var e Event
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", line, err)
		}
		if dec.More() {
			return nil, fmt.Errorf("journal line %d: trailing data after event", line)
		}
		if err := v.validate(e); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// ValidateJSONL checks a JSONL journal against the schema and returns the
// number of valid events.
func ValidateJSONL(r io.Reader) (int, error) {
	events, err := DecodeJSONL(r)
	return len(events), err
}

func (v *jsonlValidator) validate(e Event) error {
	if e.Seq <= v.prevSeq {
		return fmt.Errorf("seq %d: not greater than predecessor %d", e.Seq, v.prevSeq)
	}
	if !KnownKinds[e.Kind] {
		return fmt.Errorf("seq %d: unknown event kind %q", e.Seq, e.Kind)
	}
	if e.Iter < -1 {
		return fmt.Errorf("seq %d: invalid iteration %d", e.Seq, e.Iter)
	}
	if e.DurNS < 0 {
		return fmt.Errorf("seq %d: negative duration %d", e.Seq, e.DurNS)
	}
	if e.TNS < 0 {
		return fmt.Errorf("seq %d: negative timestamp %d", e.Seq, e.TNS)
	}
	if e.TNS != 0 && e.TNS < v.prevTNS {
		return fmt.Errorf("seq %d: timestamp %d precedes predecessor's %d", e.Seq, e.TNS, v.prevTNS)
	}
	if e.Span != 0 {
		if e.Span == e.Parent {
			return fmt.Errorf("seq %d: span %d is its own parent", e.Seq, e.Span)
		}
		if _, dup := v.spanTrace[e.Span]; dup {
			return fmt.Errorf("seq %d: span %d already opened by an earlier event", e.Seq, e.Span)
		}
	}
	if e.Parent != 0 {
		owner, ok := v.spanTrace[e.Parent]
		if !ok {
			return fmt.Errorf("seq %d: parent span %d not opened by an earlier event", e.Seq, e.Parent)
		}
		if owner != e.Trace {
			return fmt.Errorf("seq %d: trace %q differs from parent span %d's trace %q",
				e.Seq, e.Trace, e.Parent, owner)
		}
	}
	switch e.Kind {
	case KindResourceSample:
		// A live process always has at least the sampler goroutine itself.
		if e.N["goroutines"] < 1 {
			return fmt.Errorf("seq %d: resource_sample with %d goroutines", e.Seq, e.N["goroutines"])
		}
		if e.N["heap_live_bytes"] < 0 || e.N["alloc_bytes"] < 0 {
			return fmt.Errorf("seq %d: resource_sample with negative byte counts", e.Seq)
		}
	case KindCostReport:
		for _, k := range []string{"instances", "cpu_ns", "alloc_bytes", "peak_states", "ctl_words"} {
			if e.N[k] < 0 {
				return fmt.Errorf("seq %d: cost_report field %s negative (%d)", e.Seq, k, e.N[k])
			}
		}
	case KindOverloadEnter:
		if e.S["reason"] == "" {
			return fmt.Errorf("seq %d: overload_enter without a reason", e.Seq)
		}
	}
	if e.Kind == KindHistogramSnapshot {
		if e.S["name"] == "" {
			return fmt.Errorf("seq %d: histogram_snapshot without an instrument name", e.Seq)
		}
		var sum int64
		for k, n := range e.N {
			if len(k) == 3 && k[0] == 'b' && k[1] >= '0' && k[1] <= '9' && k[2] >= '0' && k[2] <= '9' {
				if n < 0 {
					return fmt.Errorf("seq %d: histogram_snapshot bucket %s negative (%d)", e.Seq, k, n)
				}
				if n > math.MaxInt64-sum {
					return fmt.Errorf("seq %d: histogram_snapshot bucket sum overflows int64", e.Seq)
				}
				sum += n
			}
		}
		if sum != e.N["count"] {
			return fmt.Errorf("seq %d: histogram_snapshot bucket sum %d != count %d", e.Seq, sum, e.N["count"])
		}
	}
	if e.Span != 0 {
		v.spanTrace[e.Span] = e.Trace
	}
	v.prevSeq = e.Seq
	if e.TNS != 0 {
		v.prevTNS = e.TNS
	}
	return nil
}
