package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"muml/internal/legacy"
	"muml/internal/obs"
	"muml/internal/railcab"
)

// TestJournalGoldenRailCabCorrect pins the event-kind sequence of the
// full RailCab correct-shuttle proof: the journal is part of the tool's
// observable surface, and the order of kinds (not the timings) is
// deterministic for a deterministic component. Regenerate with
// OBS_UPDATE_GOLDEN=1 go test ./internal/core -run Golden.
func TestJournalGoldenRailCabCorrect(t *testing.T) {
	var sink obs.MemorySink
	synth, err := New(railcab.FrontRole(), &railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		Options{Property: railcab.Constraint(), Journal: obs.NewJournal(&sink)})
	if err != nil {
		t.Fatal(err)
	}
	report, err := synth.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != VerdictProven {
		t.Fatalf("verdict = %v, want proven", report.Verdict)
	}

	var buf bytes.Buffer
	for i, e := range sink.Events() {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		fmt.Fprintf(&buf, "%d %s\n", e.Iter, e.Kind)
	}

	golden := filepath.Join("testdata", "railcab_correct_events.golden")
	if os.Getenv("OBS_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("event sequence diverged from %s\ngot:\n%swant:\n%s", golden, buf.Bytes(), want)
	}
}

// TestJournalEventsValidate runs every built-in shuttle scenario and the
// two-service coordinator (healthy and with a mute second service) with a
// JSONL journal and passes the output through the schema validator — the
// same check `make obs-smoke` performs on the CLI.
func TestJournalEventsValidate(t *testing.T) {
	shuttle := func(comp legacy.Component) func(*obs.Journal) (*Synthesizer, error) {
		return func(j *obs.Journal) (*Synthesizer, error) {
			return New(railcab.FrontRole(), comp, railcab.RearInterface(railcab.RearRoleName),
				Options{Property: railcab.Constraint(), Journal: j})
		}
	}
	services := func(mute bool) func(*obs.Journal) (*Synthesizer, error) {
		return func(j *obs.Journal) (*Synthesizer, error) {
			return NewMulti(multiContext(),
				[]legacy.Component{&ponger{idx: "1"}, &ponger{idx: "2", mute: mute}},
				[]legacy.Interface{pongIface("1"), pongIface("2")}, Options{Journal: j})
		}
	}
	for name, newSynth := range map[string]func(*obs.Journal) (*Synthesizer, error){
		"correct":       shuttle(&railcab.CorrectShuttle{}),
		"eager":         shuttle(&railcab.EagerShuttle{}),
		"blocking":      shuttle(&railcab.BlockingShuttle{}),
		"two-services":  services(false),
		"mute-services": services(true),
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			j := obs.NewJournal(obs.NewJSONLSink(&buf))
			synth, err := newSynth(j)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := synth.Run(); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			n, err := obs.ValidateJSONL(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("journal is empty")
			}
		})
	}
}

// TestTestTimeSplit checks that the replay/probe split is populated and
// bounded by the aggregate test time.
func TestTestTimeSplit(t *testing.T) {
	synth, err := New(railcab.FrontRole(), &railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		Options{Property: railcab.Constraint()})
	if err != nil {
		t.Fatal(err)
	}
	report, err := synth.Run()
	if err != nil {
		t.Fatal(err)
	}
	st := report.Stats
	if st.ReplayTime <= 0 || st.ProbeTime <= 0 {
		t.Fatalf("split times not populated: replay=%v probe=%v", st.ReplayTime, st.ProbeTime)
	}
	if st.ReplayTime+st.ProbeTime > st.TestTime {
		t.Fatalf("replay+probe (%v) exceeds test time (%v)",
			st.ReplayTime+st.ProbeTime, st.TestTime)
	}
	var itReplay, itProbe int64
	for _, it := range report.Iterations {
		itReplay += it.ReplayDuration.Nanoseconds()
		itProbe += it.ProbeDuration.Nanoseconds()
	}
	if itReplay != st.ReplayTime.Nanoseconds() || itProbe != st.ProbeTime.Nanoseconds() {
		t.Fatal("per-iteration durations do not sum to the aggregate stats")
	}
}

// TestJournalSpanTree checks the causal-trace model of DESIGN.md §10 on
// a run that exercises counterexamples: every event carries the run's
// trace ID, each iteration opens a span that parents its compose/check/
// learn/verdict events, and each counterexample opens a nested span that
// parents its replay and probe events.
func TestJournalSpanTree(t *testing.T) {
	var sink obs.MemorySink
	synth, err := New(railcab.FrontRole(), &railcab.EagerShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		Options{Property: railcab.Constraint(), Journal: obs.NewJournal(&sink),
			TraceID: "span-tree-test"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synth.Run(); err != nil {
		t.Fatal(err)
	}

	spanKind := map[uint64]obs.EventKind{} // opener of each span
	var iterSpans, cexSpans int
	for _, e := range sink.Events() {
		if e.Trace != "span-tree-test" {
			t.Fatalf("seq %d (%s): trace %q, want run trace", e.Seq, e.Kind, e.Trace)
		}
		if e.Span != 0 {
			if _, dup := spanKind[e.Span]; dup {
				t.Fatalf("seq %d: span %d reopened", e.Seq, e.Span)
			}
			spanKind[e.Span] = e.Kind
		}
		switch e.Kind {
		case obs.KindIterationStart:
			iterSpans++
			if e.Span == 0 || e.Parent != 0 {
				t.Fatalf("iteration_start seq %d: span=%d parent=%d, want root span", e.Seq, e.Span, e.Parent)
			}
		case obs.KindCexClassified:
			cexSpans++
			if e.Span == 0 || spanKind[e.Parent] != obs.KindIterationStart {
				t.Fatalf("cex_classified seq %d: span=%d, parent %d opened by %q, want iteration_start",
					e.Seq, e.Span, e.Parent, spanKind[e.Parent])
			}
		case obs.KindClosurePatched, obs.KindProductRebuilt, obs.KindCheckResult,
			obs.KindLearnDelta, obs.KindVerdict:
			if spanKind[e.Parent] != obs.KindIterationStart {
				t.Fatalf("%s seq %d: parent %d opened by %q, want iteration_start",
					e.Kind, e.Seq, e.Parent, spanKind[e.Parent])
			}
		case obs.KindReplayStep, obs.KindProbeResult:
			if spanKind[e.Parent] != obs.KindCexClassified {
				t.Fatalf("%s seq %d: parent %d opened by %q, want cex_classified",
					e.Kind, e.Seq, e.Parent, spanKind[e.Parent])
			}
		}
	}
	if iterSpans == 0 || cexSpans == 0 {
		t.Fatalf("run did not exercise the tree: %d iteration spans, %d cex spans", iterSpans, cexSpans)
	}
}

// TestJournalPhaseTotalsMatchStats is the journalstat acceptance check:
// aggregating the journal's per-phase durations must reproduce the
// compose/check/replay totals the report's Stats carry, and the
// per-probe durations must stay within the aggregate probe time (which
// also covers probe bookkeeping outside the individual probe calls).
func TestJournalPhaseTotalsMatchStats(t *testing.T) {
	var sink obs.MemorySink
	synth, err := New(railcab.FrontRole(), &railcab.BlockingShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		Options{Property: railcab.Constraint(), Journal: obs.NewJournal(&sink)})
	if err != nil {
		t.Fatal(err)
	}
	report, err := synth.Run()
	if err != nil {
		t.Fatal(err)
	}

	stats := obs.Analyze(sink.Events(), 0)
	for phase, want := range map[string]int64{
		"compose": report.Stats.ComposeTime.Nanoseconds(),
		"check":   report.Stats.CheckTime.Nanoseconds(),
		"replay":  report.Stats.ReplayTime.Nanoseconds(),
	} {
		if got := stats.Phases[phase].TotalNS; got != want {
			t.Errorf("%s: journal total %d ns, stats %d ns", phase, got, want)
		}
	}
	probe := stats.Phases["probe"]
	if probe.Count == 0 {
		t.Fatal("blocking shuttle run emitted no probe_result events")
	}
	if probe.TotalNS > report.Stats.ProbeTime.Nanoseconds() {
		t.Errorf("probe: journal total %d ns exceeds stats %d ns",
			probe.TotalNS, report.Stats.ProbeTime.Nanoseconds())
	}
}
