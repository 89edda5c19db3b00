package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"muml/internal/core"
	"muml/internal/gen"
	"muml/internal/legacy"
	"muml/internal/obs"
	"muml/internal/railcab"
)

// nondetSynth builds the synthesis of gen.NondetConfig instance seed on the
// ioco path, journaled to j. Seed 25's journal carries ioco_merge events
// and a chaos-free certification note.
func nondetSynth(t *testing.T, seed int64, j *obs.Journal) (*core.Synthesizer, string) {
	t.Helper()
	inst, err := gen.New(seed, gen.NondetConfig())
	if err != nil {
		t.Fatal(err)
	}
	comp, err := inst.Component()
	if err != nil {
		t.Fatal(err)
	}
	synth, err := core.New(inst.Context, comp, inst.Interface(),
		core.Options{Property: inst.Property, Nondet: true, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	return synth, inst.Interface().Name
}

// TestJournalGoldenRailCabCorrect pins the event-kind sequence of the
// full RailCab correct-shuttle proof: the journal is part of the tool's
// observable surface, and the order of kinds (not the timings) is
// deterministic for a deterministic component. Regenerate with
// OBS_UPDATE_GOLDEN=1 go test ./internal/core -run Golden.
func TestJournalGoldenRailCabCorrect(t *testing.T) {
	var sink obs.MemorySink
	synth, err := core.New(railcab.FrontRole(), &railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		core.Options{Property: railcab.Constraint(), Journal: obs.NewJournal(&sink)})
	if err != nil {
		t.Fatal(err)
	}
	report, err := synth.Run()
	if err != nil {
		t.Fatal(err)
	}
	if report.Verdict != core.VerdictProven {
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

// TestJournalEventsValidate runs every built-in shuttle scenario, the
// two-service coordinator (healthy and with a mute second service) and a
// nondeterministic gen instance with a JSONL journal and passes the output
// through the schema validator — the same check `make obs-smoke` performs
// on the CLI.
func TestJournalEventsValidate(t *testing.T) {
	shuttle := func(comp legacy.Component) func(*testing.T, *obs.Journal) (*core.Synthesizer, error) {
		return func(_ *testing.T, j *obs.Journal) (*core.Synthesizer, error) {
			return core.New(railcab.FrontRole(), comp, railcab.RearInterface(railcab.RearRoleName),
				core.Options{Property: railcab.Constraint(), Journal: j})
		}
	}
	services := func(mute bool) func(*testing.T, *obs.Journal) (*core.Synthesizer, error) {
		return func(_ *testing.T, j *obs.Journal) (*core.Synthesizer, error) {
			return core.TwoServices(mute, core.Options{Journal: j})
		}
	}
	for name, newSynth := range map[string]func(*testing.T, *obs.Journal) (*core.Synthesizer, error){
		"correct":       shuttle(&railcab.CorrectShuttle{}),
		"eager":         shuttle(&railcab.EagerShuttle{}),
		"blocking":      shuttle(&railcab.BlockingShuttle{}),
		"two-services":  services(false),
		"mute-services": services(true),
		"nondet-25": func(t *testing.T, j *obs.Journal) (*core.Synthesizer, error) {
			synth, _ := nondetSynth(t, 25, j)
			return synth, nil
		},
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			j := obs.NewJournal(obs.NewJSONLSink(&buf))
			synth, err := newSynth(t, j)
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
	synth, err := core.New(railcab.FrontRole(), &railcab.CorrectShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		core.Options{Property: railcab.Constraint()})
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
// runs that exercise counterexamples, the eager shuttle's and a
// nondeterministic gen instance's: every event carries the run's trace ID
// (the component interface's name), each iteration opens a span that
// parents its compose/check/learn/verdict events, and each counterexample
// opens a nested span that parents its replay, probe, ioco_merge and note
// events. Every ioco_merge event is one divergence a replay_step counted.
func TestJournalSpanTree(t *testing.T) {
	eager := func(t *testing.T, j *obs.Journal) (*core.Synthesizer, string) {
		synth, err := core.New(railcab.FrontRole(), &railcab.EagerShuttle{},
			railcab.RearInterface(railcab.RearRoleName),
			core.Options{Property: railcab.Constraint(), Journal: j})
		if err != nil {
			t.Fatal(err)
		}
		return synth, railcab.RearRoleName
	}
	for name, tc := range map[string]struct {
		newSynth func(*testing.T, *obs.Journal) (*core.Synthesizer, string)
		ioco     bool
	}{
		"eager": {eager, false},
		"nondet-25": {func(t *testing.T, j *obs.Journal) (*core.Synthesizer, string) {
			return nondetSynth(t, 25, j)
		}, true},
	} {
		t.Run(name, func(t *testing.T) {
			var sink obs.MemorySink
			synth, traceID := tc.newSynth(t, obs.NewJournal(&sink))
			report, err := synth.Run()
			if err != nil {
				t.Fatal(err)
			}
			if report.Verdict != core.VerdictViolation {
				t.Fatalf("verdict %v, want the run's violation", report.Verdict)
			}
			checkSpanTree(t, sink.Events(), traceID, tc.ioco)
		})
	}
}

// checkSpanTree checks the span tree of one run's journal; with ioco set
// the run must also carry ioco_merge and note events.
func checkSpanTree(t *testing.T, events []obs.Event, traceID string, ioco bool) {
	t.Helper()
	spanKind := map[uint64]obs.EventKind{} // opener of each span
	var iterSpans, cexSpans, merges, notes int
	var diverged int64
	for _, e := range events {
		if e.Trace != traceID {
			t.Fatalf("seq %d (%s): trace %q, want the interface name %q", e.Seq, e.Kind, e.Trace, traceID)
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
		case obs.KindReplayStep, obs.KindProbeResult, obs.KindIocoMerge, obs.KindNote:
			if spanKind[e.Parent] != obs.KindCexClassified {
				t.Fatalf("%s seq %d: parent %d opened by %q, want cex_classified",
					e.Kind, e.Seq, e.Parent, spanKind[e.Parent])
			}
		}
		switch e.Kind {
		case obs.KindReplayStep:
			diverged += e.N["diverged"]
		case obs.KindIocoMerge:
			merges++
		case obs.KindNote:
			notes++
		}
	}
	if iterSpans == 0 || cexSpans == 0 {
		t.Fatalf("run did not exercise the tree: %d iteration spans, %d cex spans", iterSpans, cexSpans)
	}
	if int64(merges) != diverged {
		t.Errorf("%d ioco_merge events, but the replay steps counted %d divergences", merges, diverged)
	}
	if ioco && (merges == 0 || notes == 0) {
		t.Errorf("ioco run journaled %d ioco_merge and %d note events, want some of each", merges, notes)
	}
}

// TestJournalPhaseTotalsMatchStats is the journalstat acceptance check:
// aggregating the journal's per-phase durations must reproduce the
// compose/check/replay/probe totals the report's Stats carry, since each
// span is measured once and feeds both.
func TestJournalPhaseTotalsMatchStats(t *testing.T) {
	var sink obs.MemorySink
	synth, err := core.New(railcab.FrontRole(), &railcab.BlockingShuttle{},
		railcab.RearInterface(railcab.RearRoleName),
		core.Options{Property: railcab.Constraint(), Journal: obs.NewJournal(&sink)})
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
	if probe.TotalNS != report.Stats.ProbeTime.Nanoseconds() {
		t.Errorf("probe: journal total %d ns, stats %d ns",
			probe.TotalNS, report.Stats.ProbeTime.Nanoseconds())
	}
}
