package automata

import (
	"fmt"
	"testing"

	"muml/internal/obs"
)

// branchy builds an automaton with a wide internal branch: the initial
// state steps (on the empty interaction) to each of n children, which
// then self-loop. Composing several of these yields one wide BFS level
// (the joint branch combinations) after the single initial tuple.
func branchy(name string, n int) *Automaton {
	a := New(name, EmptySet, EmptySet)
	s0 := a.MustAddState(name + "0")
	a.MarkInitial(s0)
	for i := 0; i < n; i++ {
		c := a.MustAddState(fmt.Sprintf("%s_c%d", name, i))
		a.MustAddTransition(s0, Interaction{}, c)
		a.MustAddTransition(c, Interaction{}, c)
	}
	return a
}

func TestComposeAllJournalsMonotonicLevels(t *testing.T) {
	var sink obs.MemorySink
	reg := obs.NewRegistry()
	EnableObservability(obs.NewJournal(&sink), reg)
	defer DisableObservability()

	sys, err := ComposeAll("sys", branchy("x", 4), branchy("y", 4), branchy("z", 4))
	if err != nil {
		t.Fatal(err)
	}
	// Level 0 is the single initial tuple; level 1 holds the 4^3 joint
	// branch combinations.
	if got := sys.NumStates(); got != 1+64 {
		t.Fatalf("NumStates = %d, want 65", got)
	}

	events := sink.Events()
	if len(events) == 0 {
		t.Fatal("no compose_level events journaled")
	}
	var lastSeq uint64
	level := int64(0)
	var peak int64
	for _, e := range events {
		if e.Kind != obs.KindComposeLevel {
			t.Fatalf("unexpected event kind %q", e.Kind)
		}
		if e.Seq <= lastSeq {
			t.Fatalf("sequence not strictly increasing: %d after %d", e.Seq, lastSeq)
		}
		lastSeq = e.Seq
		if e.N["level"] != level {
			t.Fatalf("level %d out of order (want %d)", e.N["level"], level)
		}
		level++
		if e.N["frontier"] > peak {
			peak = e.N["frontier"]
		}
	}
	if peak != 64 {
		t.Fatalf("peak frontier = %d, want 64", peak)
	}
	if got := reg.MaxGauge("automata.compose_frontier_peak").Value(); got != peak {
		t.Fatalf("frontier-peak gauge = %d, want %d", got, peak)
	}
	if reg.Counter("automata.compose_levels").Value() != level {
		t.Fatalf("compose_levels counter = %d, want %d",
			reg.Counter("automata.compose_levels").Value(), level)
	}
}

func TestIncrementalSystemLastDecision(t *testing.T) {
	ic, err := NewIncrementalSystem(incTestContext(t), incTestModel(t), Universe(UniverseSingleton))
	if err != nil {
		t.Fatal(err)
	}
	if patched, reason := ic.LastDecision(); patched || reason != "initial-build" {
		t.Fatalf("after build: patched=%v reason=%q", patched, reason)
	}
	if err := ic.Apply(LearnDelta{}); err != nil {
		t.Fatal(err)
	}
	if patched, reason := ic.LastDecision(); !patched || reason != "empty-delta" {
		t.Fatalf("after empty delta: patched=%v reason=%q", patched, reason)
	}
}
