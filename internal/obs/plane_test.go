package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

// Tests for the observability plane: trace/span validation, the
// Prometheus exposition, the Chrome trace export, and journal analytics.

func TestValidateJSONLSpanInvariants(t *testing.T) {
	bad := map[string]string{
		"span is its own parent": `{"seq":1,"kind":"iteration_start","iter":0,"trace":"r","span":3,"parent":3}`,
		"duplicate span": `{"seq":1,"kind":"iteration_start","iter":0,"trace":"r","span":3}` + "\n" +
			`{"seq":2,"kind":"iteration_start","iter":1,"trace":"r","span":3}`,
		"parent never opened": `{"seq":1,"kind":"check_result","iter":0,"trace":"r","parent":9}`,
		"trace differs from parent": `{"seq":1,"kind":"iteration_start","iter":0,"trace":"r","span":3}` + "\n" +
			`{"seq":2,"kind":"check_result","iter":0,"trace":"other","parent":3}`,
		"timestamp runs backwards": `{"seq":1,"kind":"note","iter":-1,"t_ns":100}` + "\n" +
			`{"seq":2,"kind":"note","iter":-1,"t_ns":99}`,
		"negative timestamp": `{"seq":1,"kind":"note","iter":-1,"t_ns":-1}`,
	}
	for name, journal := range bad {
		if _, err := ValidateJSONL(strings.NewReader(journal)); err == nil {
			t.Errorf("%s: validation passed, want error", name)
		}
	}

	// Violations must name the first offending sequence number so
	// journalstat -validate can pinpoint the record.
	_, err := ValidateJSONL(strings.NewReader(
		`{"seq":1,"kind":"iteration_start","iter":0,"trace":"r","span":3}` + "\n" +
			`{"seq":5,"kind":"check_result","iter":0,"trace":"r","parent":8}`))
	if err == nil || !strings.Contains(err.Error(), "seq 5") {
		t.Errorf("violation does not name the offending seq: %v", err)
	}

	good := `{"seq":1,"kind":"batch_start","iter":-1,"trace":"batch","span":1,"t_ns":10}` + "\n" +
		`{"seq":2,"kind":"iteration_start","iter":0,"trace":"run","span":2,"t_ns":20}` + "\n" +
		`{"seq":3,"kind":"check_result","iter":0,"trace":"run","parent":2,"dur_ns":5,"t_ns":30}` + "\n" +
		`{"seq":4,"kind":"cex_classified","iter":0,"trace":"run","span":3,"parent":2,"t_ns":40}` + "\n" +
		`{"seq":5,"kind":"replay_step","iter":0,"trace":"run","parent":3,"t_ns":50}` + "\n" +
		`{"seq":6,"kind":"instance_done","iter":-1,"trace":"batch","parent":1,"dur_ns":7,"t_ns":60}` + "\n"
	if n, err := ValidateJSONL(strings.NewReader(good)); err != nil || n != 6 {
		t.Errorf("valid span tree: n=%d err=%v", n, err)
	}
}

func TestJournalStampsSpansAndTimestamps(t *testing.T) {
	var sink MemorySink
	j := NewJournal(&sink)
	if s1, s2 := j.NewSpan(), j.NewSpan(); s1 == 0 || s2 == 0 || s1 == s2 {
		t.Fatalf("NewSpan gave %d then %d, want distinct non-zero IDs", s1, s2)
	}
	j.Emit(Event{Kind: KindNote, Iter: -1})
	time.Sleep(time.Millisecond)
	j.Emit(Event{Kind: KindNote, Iter: -1})
	events := sink.Events()
	if events[0].TNS <= 0 || events[1].TNS <= events[0].TNS {
		t.Fatalf("emission timestamps not strictly advancing: %d then %d", events[0].TNS, events[1].TNS)
	}
}

func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("batch.instances").Add(64)
	r.MaxGauge("ctl.peak_states").Observe(1024)
	r.Timer("core.check").Observe(1500 * time.Millisecond)
	r.Timer("core.check").Observe(500 * time.Millisecond)
	r.Histogram("core.check").Observe(1500 * time.Millisecond)
	r.Histogram("core.check").Observe(500 * time.Millisecond)
	// Sanitize collision: both flatten to muml_a_b_total; "a.b" sorts
	// before "a_b" ('.' < '_'), so the first claims the family and the
	// second is skipped entirely.
	r.Counter("a.b").Add(1)
	r.Counter("a_b").Add(2)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	want.WriteString(`# TYPE muml_a_b_total counter
muml_a_b_total 1
# TYPE muml_batch_instances_total counter
muml_batch_instances_total 64
# TYPE muml_core_check_ns histogram
`)
	// 500ms and 1500ms land in the buckets bounded by 2^29 and 2^31 ns.
	var cum int64
	for _, bound := range HistogramBounds {
		if bound >= 500*1000*1000 && cum == 0 {
			cum = 1
		}
		if bound >= 1500*1000*1000 && cum == 1 {
			cum = 2
		}
		fmt.Fprintf(&want, "muml_core_check_ns_bucket{le=\"%d\"} %d\n", bound, cum)
	}
	want.WriteString(`muml_core_check_ns_bucket{le="+Inf"} 2
muml_core_check_ns_sum 2000000000
muml_core_check_ns_count 2
# TYPE muml_core_check_spans_total counter
muml_core_check_spans_total 2
# TYPE muml_core_check_seconds_total counter
muml_core_check_seconds_total 2
# TYPE muml_ctl_peak_states_max gauge
muml_ctl_peak_states_max 1024
`)
	if got := buf.String(); got != want.String() {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want.String())
	}

	// Empty and nil snapshots are valid (empty) expositions.
	buf.Reset()
	if err := WritePrometheus(&buf, nil); err != nil || buf.Len() != 0 {
		t.Errorf("nil snapshot: err=%v out=%q", err, buf.String())
	}
}

func TestWriteChromeTraceSchema(t *testing.T) {
	events := []Event{
		{Seq: 1, Kind: KindIterationStart, Iter: 0, Trace: "run", Span: 2, TNS: 1000},
		{Seq: 2, Kind: KindCheckResult, Iter: 0, Trace: "run", Parent: 2, DurNS: 4000, TNS: 6000,
			N: map[string]int64{"property_holds": 1}},
		{Seq: 3, Kind: KindInstanceDone, Iter: -1, Trace: "batch", Parent: 1, DurNS: 2000, TNS: 9000,
			N: map[string]int64{"worker": 3}, S: map[string]string{"name": "gen-1", "listing": "a\nb"}},
		{Seq: 4, Kind: KindNote, Iter: -1}, // unstamped legacy event
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events); err != nil {
		t.Fatal(err)
	}

	// The export must round-trip as the documented JSON object format.
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if file.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.Unit)
	}

	phases := map[string]int{}
	for _, ev := range file.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases[ph]++
		switch ph {
		case "M":
			continue
		case "X":
			if ev["dur"].(float64) <= 0 {
				t.Errorf("complete event without duration: %v", ev)
			}
		case "i":
			if ev["s"] != "t" {
				t.Errorf("instant event without thread scope: %v", ev)
			}
		default:
			t.Errorf("unexpected phase %q", ph)
		}
		if ts := ev["ts"].(float64); ts < 0 {
			t.Errorf("negative timestamp %v in %v", ts, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Errorf("event without pid: %v", ev)
		}
	}
	// Two distinct traces plus the untraced note → three process_name
	// metadata records; one X slice per duration event, instants for the
	// rest.
	if phases["M"] != 3 || phases["X"] != 2 || phases["i"] != 2 {
		t.Errorf("phase counts %v, want M:3 X:2 i:2", phases)
	}

	// The check_result slice must start at t_ns-dur_ns and the worker
	// thread must carry instance_done.
	var sawCheck, sawInstance bool
	for _, ev := range file.TraceEvents {
		switch ev["name"] {
		case "check_result":
			sawCheck = true
			if ev["ts"].(float64) != 2.0 { // (6000-4000)ns = 2µs
				t.Errorf("check_result ts = %v, want 2", ev["ts"])
			}
		case "instance_done":
			sawInstance = true
			if ev["tid"].(float64) != 4 { // worker 3 → tid 4
				t.Errorf("instance_done tid = %v, want 4", ev["tid"])
			}
			args := ev["args"].(map[string]any)
			if args["name"] != "gen-1" {
				t.Errorf("instance_done args missing name: %v", args)
			}
			if _, ok := args["listing"]; ok {
				t.Errorf("multi-line string leaked into trace args: %v", args)
			}
		}
	}
	if !sawCheck || !sawInstance {
		t.Fatalf("missing slices: check=%v instance=%v", sawCheck, sawInstance)
	}
}

func TestAnalyzePhases(t *testing.T) {
	events := []Event{
		{Seq: 1, Kind: KindIterationStart, Iter: 0, Trace: "run"},
		{Seq: 2, Kind: KindProductRebuilt, Iter: 0, Trace: "run", DurNS: 100},
		{Seq: 3, Kind: KindClosurePatched, Iter: 0, Trace: "run", DurNS: 300},
		{Seq: 4, Kind: KindCheckResult, Iter: 0, Trace: "run", DurNS: 1000},
		{Seq: 5, Kind: KindIterationStart, Iter: 1, Trace: "run"},
		{Seq: 6, Kind: KindCheckResult, Iter: 1, Trace: "run", DurNS: 3000},
		{Seq: 7, Kind: KindVerdict, Iter: 1, Trace: "run", S: map[string]string{"verdict": "proven"}},
		{Seq: 8, Kind: KindInstanceDone, Iter: -1, Trace: "batch", DurNS: 9000,
			S: map[string]string{"name": "alpha", "verdict": "proven"}},
		{Seq: 9, Kind: KindInstanceDone, Iter: -1, Trace: "batch", DurNS: 5000,
			S: map[string]string{"name": "beta", "verdict": "violation"}},
		{Seq: 10, Kind: KindInstanceDone, Iter: -1, Trace: "batch", DurNS: 1000,
			S: map[string]string{"name": "gamma"}},
	}
	s := Analyze(events, 2)
	if s.Events != 10 || s.Iterations != 2 || s.Traces != 2 {
		t.Fatalf("events=%d iterations=%d traces=%d", s.Events, s.Iterations, s.Traces)
	}
	compose := s.Phases["compose"]
	if compose.Count != 2 || compose.TotalNS != 400 || compose.MinNS != 100 || compose.MaxNS != 300 {
		t.Errorf("compose stats %+v", compose)
	}
	check := s.Phases["check"]
	if check.P50NS != 1000 || check.P99NS != 3000 {
		t.Errorf("check percentiles %+v", check)
	}
	if s.Verdicts["proven"] != 2 || s.Verdicts["violation"] != 1 || s.Verdicts["error"] != 1 {
		t.Errorf("verdicts %v", s.Verdicts)
	}
	if len(s.Slowest) != 2 || s.Slowest[0].Name != "alpha" || s.Slowest[1].Name != "beta" {
		t.Errorf("slowest %v", s.Slowest)
	}

	var buf bytes.Buffer
	s.RenderText(&buf)
	for _, want := range []string{"compose", "check", "proven 2", "alpha", "instance_done"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report misses %q:\n%s", want, buf.String())
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		p    int
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {1, 10}}
	for _, c := range cases {
		if got := percentile(sorted, c.p); got != c.want {
			t.Errorf("p%d = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile([]int64{42}, 99); got != 42 {
		t.Errorf("singleton p99 = %d", got)
	}
}

func TestDiffText(t *testing.T) {
	a := Analyze([]Event{
		{Seq: 1, Kind: KindCheckResult, Iter: 0, DurNS: 1000},
		{Seq: 2, Kind: KindVerdict, Iter: 0, S: map[string]string{"verdict": "proven"}},
	}, 5)
	b := Analyze([]Event{
		{Seq: 1, Kind: KindCheckResult, Iter: 0, DurNS: 2000},
		{Seq: 2, Kind: KindVerdict, Iter: 0, S: map[string]string{"verdict": "violation"}},
	}, 5)
	var buf bytes.Buffer
	DiffText(&buf, a, b)
	out := buf.String()
	for _, want := range []string{"check", "2.00x", "CHANGED", "proven 1→0", "violation 0→1"} {
		if !strings.Contains(out, want) {
			t.Errorf("diff misses %q:\n%s", want, out)
		}
	}
}
