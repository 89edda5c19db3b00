package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"muml/internal/automata"
	"muml/internal/legacy"
	"muml/internal/replay"
)

// callStats accumulates the calls one synthesis run makes on its legacy
// component: the paper's test effort. Durations are filled only by a
// timed wrapper.
type callStats struct {
	Steps, Resets   int64
	StepNS, ResetNS int64
}

func (c *callStats) add(o callStats) {
	c.Steps += o.Steps
	c.Resets += o.Resets
	c.StepNS += o.StepNS
	c.ResetNS += o.ResetNS
}

// countedComponent counts (and, when timed, times) Step and Reset calls.
// It must not change what the synthesis loop sees, so wrapComponent adds
// the optional interfaces of the wrapped component back on top of it.
type countedComponent struct {
	inner legacy.Component
	stats *callStats
	timed bool
}

func (c *countedComponent) Reset() {
	c.stats.Resets++
	if !c.timed {
		c.inner.Reset()
		return
	}
	t := time.Now()
	c.inner.Reset()
	c.stats.ResetNS += int64(time.Since(t))
}

func (c *countedComponent) Step(in automata.SignalSet) (automata.SignalSet, bool) {
	c.stats.Steps++
	if !c.timed {
		return c.inner.Step(in)
	}
	t := time.Now()
	out, ok := c.inner.Step(in)
	c.stats.StepNS += int64(time.Since(t))
	return out, ok
}

// The variants forward the optional interfaces that legacy.InitialStateName
// and package replay type-assert. A wrapper that dropped Introspector would
// rename every learned state to "s0", and one that dropped ProbeAware would
// change replay: either would change learning, not only measure it.
type (
	countedIntrospector struct {
		*countedComponent
		legacy.Introspector
	}
	countedProbeAware struct {
		*countedComponent
		replay.ProbeAware
	}
	countedBoth struct {
		*countedComponent
		legacy.Introspector
		replay.ProbeAware
	}
)

// wrapComponent returns c behind a counting wrapper that implements
// exactly the optional interfaces c implements.
func wrapComponent(c legacy.Component, stats *callStats, timed bool) legacy.Component {
	base := &countedComponent{inner: c, stats: stats, timed: timed}
	in, isIn := c.(legacy.Introspector)
	pa, isPA := c.(replay.ProbeAware)
	switch {
	case isIn && isPA:
		return countedBoth{base, in, pa}
	case isIn:
		return countedIntrospector{base, in}
	case isPA:
		return countedProbeAware{base, pa}
	}
	return base
}

// span is one timed section recorded by the benchmark around its own call
// into a layer. Spans of one job share Trace; Parent links a span to the
// one that caused it. Times are nanoseconds since the recorder started.
type span struct {
	ID      int64            `json:"id"`
	Parent  int64            `json:"parent,omitempty"`
	Trace   string           `json:"trace"`
	Name    string           `json:"name"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	N       map[string]int64 `json:"n,omitempty"`
}

// recorder keeps spans in memory; write saves them when the run ends. A
// nil recorder records nothing, so untraced runs pass nil.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// add records a finished span and returns its ID.
func (r *recorder) add(parent int64, trace, name string, start, end time.Time, n map[string]int64) int64 {
	if r == nil {
		return 0
	}
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		StartNS: int64(start.Sub(r.t0)), EndNS: int64(end.Sub(r.t0)), N: n})
	return id
}

// write saves the spans as JSONL under dir and returns the file's path.
func (r *recorder) write(dir, name string) (string, error) {
	if r == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace dir: %w", err)
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return "", fmt.Errorf("trace file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace file: %w", err)
	}
	return path, f.Close()
}
