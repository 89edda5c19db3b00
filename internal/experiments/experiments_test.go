package experiments

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"muml/internal/automata"
	"muml/internal/conformance"
	"muml/internal/core"
	"muml/internal/legacy"
)

// TestFastExperimentsMatch runs every experiment that completes quickly
// and requires each to match its expected shape. The slower sweeps
// (E7/E8/E10/A1/A3) are covered by TestSweepExperimentsMatch below, which
// honors -short.
func TestFastExperimentsMatch(t *testing.T) {
	fast := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E9", "E11", "E12", "E13", "E14", "A2"}
	for _, id := range fast {
		t.Run(id, func(t *testing.T) {
			res, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Match {
				t.Fatalf("experiment %s mismatch: %s\n%s", id, res.Measured, res.Details)
			}
		})
	}
}

func TestSweepExperimentsMatch(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep experiments skipped in -short mode")
	}
	for _, id := range []string{"E7", "E8", "E10", "A1", "A3", "A4"} {
		t.Run(id, func(t *testing.T) {
			res, err := Run(id)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Match {
				t.Fatalf("experiment %s mismatch: %s\n%s", id, res.Measured, res.Details)
			}
		})
	}
}

func TestRunUnknownID(t *testing.T) {
	if _, err := Run("E999"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRegistryIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range Registry() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestRenderReport(t *testing.T) {
	results := []*Result{
		{ID: "E1", Title: "t", PaperArtifact: "Fig|1", Expectation: "e", Measured: "m", Match: true, Details: "d"},
		{ID: "E2", Title: "t2", Match: false},
	}
	text := RenderReport(results)
	for _, want := range []string{"# EXPERIMENTS", "| E1 |", "✅", "❌", "Fig\\|1", "## E1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

// TestReportMatchesCommitted renders the report of every experiment, as
// `go run ./cmd/experiments -all -report EXPERIMENTS.md` writes it, and
// requires it to equal the committed EXPERIMENTS.md byte for byte: the
// report holds no wall-clock figures, so any difference is a changed
// result, and regenerating the file is the fix when the change is meant.
func TestReportMatchesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short mode")
	}
	results, err := RunAll()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	got := RenderReport(results)
	if got == string(want) {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < min(len(gotLines), len(wantLines)); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("EXPERIMENTS.md line %d differs from the rendered report:\ncommitted: %s\nrendered:  %s",
				i+1, wantLines[i], gotLines[i])
		}
	}
	t.Fatalf("EXPERIMENTS.md has %d lines, the rendered report %d", len(wantLines), len(gotLines))
}

func TestGenerateScenarioWellFormed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 30; i++ {
		sc := GenerateScenario(rng, 4+rng.Intn(12), 2, 3)
		if err := sc.Legacy.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := sc.Context.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := conformance.ValidateMachine(sc.Legacy); err != nil {
			t.Fatal(err)
		}
		// Composability: disjoint alphabets in both directions.
		if !sc.Context.Inputs().Disjoint(sc.Legacy.Inputs()) ||
			!sc.Context.Outputs().Disjoint(sc.Legacy.Outputs()) {
			t.Fatal("scenario context/legacy not composable")
		}
		if sc.RelevantStates < 1 || sc.RelevantStates > sc.Legacy.NumStates() {
			t.Fatalf("relevant states = %d of %d", sc.RelevantStates, sc.Legacy.NumStates())
		}
		// The mirror context drives a sub-protocol: the unmutated scenario
		// must be provably correct (deadlock-free lock-step).
		sys, err := automata.Compose("truth", sc.Context, sc.Legacy)
		if err != nil {
			t.Fatal(err)
		}
		if _, dead := sys.DeadlockReachable(); dead {
			t.Fatalf("iteration %d: unmutated scenario has a deadlock", i)
		}
	}
}

func TestMutateScenarioChangesRelevantPart(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	changed := 0
	for i := 0; i < 20; i++ {
		sc := GenerateScenario(rng, 8, 2, 3)
		mut := MutateScenario(rng, sc)
		eq, _, err := conformance.Equivalent(sc.Legacy, mut.Legacy,
			conformance.InputAlphabet(sc.Legacy, automata.Universe(automata.UniverseSingleton)))
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("mutation never changed behavior")
	}
}

func TestScenarioComponentMatchesLegacyAutomaton(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sc := GenerateScenario(rng, 6, 2, 3)
	truth := core.ExploreComponent(sc.Component, sc.Iface,
		automata.Universe(automata.UniverseSingleton), nil, 64)
	// The component wraps the legacy automaton, so exploring it must
	// reproduce the reachable part exactly.
	alphabet := conformance.InputAlphabet(sc.Legacy, automata.Universe(automata.UniverseSingleton))
	eq, w, err := conformance.Equivalent(truth, sc.Legacy, alphabet)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatalf("explored behavior differs on %v", w)
	}
	var _ legacy.Component = sc.Component
}
