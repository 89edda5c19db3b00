package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// This file implements the span/counter half of the subsystem: a Registry
// of named instruments, each nil-safe so that uninstrumented code paths
// pay only a nil check. Instruments are hierarchical by naming convention:
// dotted prefixes group related measures ("ctl.fixpoint_iters",
// "core.check") and the rendered table sorts by full name, so a snapshot
// reads as a tree.

// Counter is a monotonically increasing count. The zero value is ready to
// use; a nil *Counter discards all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter. Safe on a nil counter and from concurrent
// goroutines.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value (heap bytes, goroutine count,
// an overload flag) — unlike MaxGauge it moves in both directions. The
// zero value is ready to use; a nil *Gauge discards all updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value. Safe on a nil gauge and from concurrent
// goroutines.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// MaxGauge tracks the maximum value observed. A nil *MaxGauge discards
// updates.
type MaxGauge struct {
	v atomic.Int64
}

// Observe raises the gauge to n if n exceeds the current maximum.
func (g *MaxGauge) Observe(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the maximum observed so far (0 for a nil gauge).
func (g *MaxGauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Timer accumulates wall-clock durations of a repeated span: total time
// and observation count. A nil *Timer discards updates.
type Timer struct {
	count   atomic.Int64
	totalNS atomic.Int64
}

// Observe adds one measured duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.count.Add(1)
	t.totalNS.Add(d.Nanoseconds())
}

// Count returns the number of observations.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.totalNS.Load())
}

// Registry is an expvar-style namespace of counters, max-gauges, and
// timers. Instruments are created on first lookup and live for the
// registry's lifetime; hot paths fetch their instrument once and then
// update it lock-free. A nil *Registry hands out nil instruments, so an
// uninstrumented stack composes without branches at the call sites.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*MaxGauge
	levels     map[string]*Gauge
	timers     map[string]*Timer
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*MaxGauge),
		levels:     make(map[string]*Gauge),
		timers:     make(map[string]*Timer),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it if needed (nil on a nil
// registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// MaxGauge returns the named max-gauge, creating it if needed.
func (r *Registry) MaxGauge(name string) *MaxGauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &MaxGauge{}
		r.gauges[name] = g
	}
	return g
}

// Gauge returns the named settable gauge, creating it if needed (nil on a
// nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.levels[name]
	if !ok {
		g = &Gauge{}
		r.levels[name] = g
	}
	return g
}

// Timer returns the named timer, creating it if needed.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	t, ok := r.timers[name]
	if !ok {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it if needed (nil on a
// nil registry).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Metric is one instrument's snapshot value.
type Metric struct {
	Name string `json:"name"`
	// Kind is "counter", "gauge", "max", "timer", or "histogram".
	Kind  string `json:"kind"`
	Value int64  `json:"value"` // count for counters/timers/histograms, level for gauges
	// TotalNS is the accumulated duration (timers and histograms only).
	TotalNS int64 `json:"total_ns,omitempty"`
	// Buckets holds per-bucket observation counts (histograms only), the
	// last entry being the overflow bucket; boundaries are the package-wide
	// HistogramBounds.
	Buckets []int64 `json:"buckets,omitempty"`
}

// Snapshot returns every instrument's current value, sorted by name then
// kind — a total, deterministic order, which the Prometheus renderer's
// first-wins collision handling relies on. Safe on a nil registry
// (returns nil).
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.levels)+len(r.timers)+len(r.histograms))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, Metric{Name: name, Kind: "max", Value: g.Value()})
	}
	for name, g := range r.levels {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: g.Value()})
	}
	for name, t := range r.timers {
		out = append(out, Metric{Name: name, Kind: "timer", Value: t.Count(), TotalNS: t.Total().Nanoseconds()})
	}
	for name, h := range r.histograms {
		buckets := h.Buckets()
		var count int64
		for _, c := range buckets {
			count += c
		}
		out = append(out, Metric{Name: name, Kind: "histogram", Value: count, TotalNS: h.SumNS(), Buckets: buckets})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// RenderTable formats the snapshot as an aligned summary table (the
// -metrics flag output).
func (r *Registry) RenderTable() string {
	snap := r.Snapshot()
	if len(snap) == 0 {
		return "(no metrics recorded)\n"
	}
	width := 0
	for _, m := range snap {
		if len(m.Name) > width {
			width = len(m.Name)
		}
	}
	var b strings.Builder
	for _, m := range snap {
		switch m.Kind {
		case "histogram":
			total := time.Duration(m.TotalNS).Round(time.Microsecond)
			p50 := time.Duration(HistogramQuantile(m.Buckets, 50)).Round(time.Microsecond)
			p99 := time.Duration(HistogramQuantile(m.Buckets, 99)).Round(time.Microsecond)
			fmt.Fprintf(&b, "%-*s  %10d obs    total %-12s p50≤%s p99≤%s\n", width, m.Name, m.Value, total, p50, p99)
		case "timer":
			total := time.Duration(m.TotalNS).Round(time.Microsecond)
			avg := time.Duration(0)
			if m.Value > 0 {
				avg = time.Duration(m.TotalNS / m.Value).Round(time.Microsecond)
			}
			fmt.Fprintf(&b, "%-*s  %10d spans  total %-12s avg %s\n", width, m.Name, m.Value, total, avg)
		case "max":
			fmt.Fprintf(&b, "%-*s  %10d (max)\n", width, m.Name, m.Value)
		case "gauge":
			fmt.Fprintf(&b, "%-*s  %10d (gauge)\n", width, m.Name, m.Value)
		default:
			fmt.Fprintf(&b, "%-*s  %10d\n", width, m.Name, m.Value)
		}
	}
	return b.String()
}
