package replay

import (
	"strings"
	"testing"

	"muml/internal/automata"
	"muml/internal/legacy"
	"muml/internal/railcab"
)

func rearIface() legacy.Interface {
	return railcab.RearInterface("rear")
}

func planInputs(signals ...string) []automata.SignalSet {
	out := make([]automata.SignalSet, len(signals))
	for i, s := range signals {
		if s == "" {
			out[i] = automata.EmptySet
			continue
		}
		out[i] = automata.NewSignalSet(automata.Signal(s))
	}
	return out
}

func TestRecordCapturesMinimalEvents(t *testing.T) {
	comp := &railcab.CorrectShuttle{}
	rec := Record(comp, rearIface(), planInputs("", string(railcab.ConvoyProposalRejected)))
	if !rec.Completed() {
		t.Fatalf("recording blocked at %d", rec.BlockedAt)
	}
	if len(rec.Outputs) != 2 {
		t.Fatalf("outputs = %v", rec.Outputs)
	}
	if !rec.Outputs[0].Contains(railcab.ConvoyProposal) {
		t.Fatalf("first output = %v", rec.Outputs[0])
	}
	// Minimal trace: only message events (Listing 1.2 shape).
	for _, e := range rec.Minimal().Events {
		if e.Kind != KindMessage {
			t.Fatalf("record phase captured non-message event %v", e)
		}
	}
	text := rec.Minimal().Render()
	if !strings.Contains(text, `[Message] name="convoyProposal", portName="rearRole", type="outgoing"`) {
		t.Fatalf("minimal trace:\n%s", text)
	}
	if !strings.Contains(text, `type="incoming"`) {
		t.Fatalf("missing incoming message:\n%s", text)
	}
}

func TestRecordStopsAtRefusal(t *testing.T) {
	comp := &railcab.CorrectShuttle{}
	// startConvoy in the initial state is refused.
	rec := Record(comp, rearIface(), planInputs(string(railcab.StartConvoy)))
	if rec.Completed() {
		t.Fatal("refused input not detected")
	}
	if rec.BlockedAt != 0 {
		t.Fatalf("BlockedAt = %d", rec.BlockedAt)
	}
}

func TestReplayEnrichesWithStatesAndTiming(t *testing.T) {
	comp := &railcab.CorrectShuttle{}
	rec := Record(comp, rearIface(), planInputs("", string(railcab.StartConvoy)))
	run, err := Replay(comp, rec)
	if err != nil {
		t.Fatal(err)
	}
	text := ReplayTrace(rec.Iface, run, false).Render()
	for _, want := range []string{
		`[CurrentState] name="noConvoy::default"`,
		`[Message] name="convoyProposal", portName="rearRole", type="outgoing"`,
		`[Timing] count=1`,
		`[CurrentState] name="noConvoy::wait"`,
		`[Message] name="startConvoy", portName="rearRole", type="incoming"`,
		`[Timing] count=2`,
		`[CurrentState] name="convoy::cruise"`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("replay trace missing %q:\n%s", want, text)
		}
	}
	// Observed run for learning.
	if run.Initial != "noConvoy::default" {
		t.Fatalf("run initial = %q", run.Initial)
	}
	if len(run.Steps) != 2 || run.Steps[1].To != "convoy::cruise" {
		t.Fatalf("run steps = %+v", run.Steps)
	}
	if run.Blocked != nil {
		t.Fatal("unexpected blocked marker")
	}
}

func TestReplayReproducesRefusal(t *testing.T) {
	comp := &railcab.CorrectShuttle{}
	rec := Record(comp, rearIface(), planInputs("", string(railcab.StartConvoy), string(railcab.StartConvoy)))
	if rec.Completed() || rec.BlockedAt != 2 {
		t.Fatalf("BlockedAt = %d", rec.BlockedAt)
	}
	run, err := Replay(comp, rec)
	if err != nil {
		t.Fatal(err)
	}
	if run.Blocked == nil || !run.Blocked.In.Contains(railcab.StartConvoy) {
		t.Fatalf("blocked marker = %+v", run.Blocked)
	}
	if len(run.Steps) != 2 {
		t.Fatalf("steps before refusal = %d", len(run.Steps))
	}
	// Both listings render from the recording and the run; the refused
	// period shows in neither.
	for _, tc := range []struct{ name, got, want string }{
		{"minimal", rec.Minimal().Render(), "" +
			`[Message] name="convoyProposal", portName="rearRole", type="outgoing"` + "\n" +
			`[Message] name="startConvoy", portName="rearRole", type="incoming"` + "\n"},
		{"replay", ReplayTrace(rec.Iface, run, false).Render(), "" +
			`[CurrentState] name="noConvoy::default"` + "\n" +
			`[Message] name="convoyProposal", portName="rearRole", type="outgoing"` + "\n" +
			`[Timing] count=1` + "\n" +
			`[CurrentState] name="noConvoy::wait"` + "\n" +
			`[Message] name="startConvoy", portName="rearRole", type="incoming"` + "\n" +
			`[Timing] count=2` + "\n" +
			`[CurrentState] name="convoy::cruise"` + "\n"},
	} {
		if tc.got != tc.want {
			t.Errorf("%s trace:\n%s\nwant\n%s", tc.name, tc.got, tc.want)
		}
	}
}

// flakyComponent violates the determinism assumption: the second run
// produces a different output.
type flakyComponent struct {
	runs  int
	steps int
}

func (f *flakyComponent) Reset() { f.runs++; f.steps = 0 }

func (f *flakyComponent) Step(in automata.SignalSet) (automata.SignalSet, bool) {
	f.steps++
	if f.runs > 1 {
		return automata.NewSignalSet("other"), true
	}
	return automata.NewSignalSet("first"), true
}

func TestReplayDetectsNondeterminism(t *testing.T) {
	comp := &flakyComponent{}
	iface := legacy.Interface{
		Name:    "flaky",
		Outputs: automata.NewSignalSet("first", "other"),
	}
	rec := Record(comp, iface, planInputs(""))
	if _, err := Replay(comp, rec); err == nil {
		t.Fatal("nondeterministic component not detected by replay")
	}
}

func TestProbeRepliesAfterPrefix(t *testing.T) {
	comp := &railcab.CorrectShuttle{}
	rec := Record(comp, rearIface(), planInputs("")) // proposal sent, now waiting
	res, err := Probe(comp, rec, automata.NewSignalSet(railcab.StartConvoy))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.State != "noConvoy::wait" || res.After != "convoy::cruise" {
		t.Fatalf("probe = %+v", res)
	}
	// Refused probe keeps state.
	res2, err := Probe(comp, rec, automata.NewSignalSet(railcab.BreakConvoyAccepted))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Accepted || res2.After != res2.State {
		t.Fatalf("refused probe = %+v", res2)
	}
}

func TestProbeRejectsBlockedRecording(t *testing.T) {
	comp := &railcab.CorrectShuttle{}
	rec := Record(comp, rearIface(), planInputs(string(railcab.StartConvoy)))
	if _, err := Probe(comp, rec, automata.EmptySet); err == nil {
		t.Fatal("probe past a blocked recording accepted")
	}
}

func TestEventRendering(t *testing.T) {
	tests := []struct {
		e    Event
		want string
	}{
		{Event{Kind: KindMessage, Name: "m", Port: "p", Dir: Outgoing},
			`[Message] name="m", portName="p", type="outgoing"`},
		{Event{Kind: KindMessage, Name: "m", Port: "p", Dir: Incoming},
			`[Message] name="m", portName="p", type="incoming"`},
		{Event{Kind: KindCurrentState, Name: "s"}, `[CurrentState] name="s"`},
		{Event{Kind: KindTiming, Count: 3}, `[Timing] count=3`},
	}
	for _, tt := range tests {
		if got := tt.e.Render(); got != tt.want {
			t.Fatalf("Render = %q, want %q", got, tt.want)
		}
	}
}

func TestTraceMessages(t *testing.T) {
	tr := Trace{Events: []Event{
		{Kind: KindCurrentState, Name: "s"},
		{Kind: KindMessage, Name: "m"},
		{Kind: KindTiming, Count: 1},
	}}
	msgs := tr.Messages()
	if len(msgs) != 1 || msgs[0].Name != "m" {
		t.Fatalf("Messages = %v", msgs)
	}
}
