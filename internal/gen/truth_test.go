package gen_test

import (
	"bytes"
	"fmt"
	"testing"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/gen"
	"muml/internal/legacy"
	"muml/internal/mbt"
)

// explored is the truth as black-box exploration finds it:
// core.ExploreComponent over the wrapped automaton, states labeled under
// prefix.
func explored(t *testing.T, m *automata.Automaton, prefix string) *automata.Automaton {
	t.Helper()
	comp, err := legacy.WrapAutomaton(m)
	if err != nil {
		t.Fatal(err)
	}
	iface := legacy.Interface{Name: m.Name(), Inputs: m.Inputs(), Outputs: m.Outputs()}
	return core.ExploreComponent(comp, iface, automata.Universe(automata.UniverseSingleton),
		core.QualifiedLabeler(prefix), m.NumStates()+1)
}

// sameBytes fails unless got and want encode and render alike.
func sameBytes(t *testing.T, where string, got, want *automata.Automaton) {
	t.Helper()
	gj, err := automata.EncodeJSON(got)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := automata.EncodeJSON(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) || got.Dot() != want.Dot() {
		t.Errorf("%s: truth read off M_r differs from exploration:\n%s\nwant\n%s", where, got.Dot(), want.Dot())
	}
}

// TestTruthMatchesExploration checks that the ground truth read off M_r's
// rows is byte for byte what black-box exploration of the wrapped
// component returns: on generated instances of every deterministic
// distribution, on every part of multi-component instances, on the
// deterministic repros of the mbt corpus, and on a machine whose rows are
// out of the order in which exploration probes the inputs.
func TestTruthMatchesExploration(t *testing.T) {
	for name, cfg := range map[string]gen.Config{
		"default":  gen.DefaultConfig(),
		"wide":     gen.WideConfig(),
		"12-state": {MaxLegacyStates: 12},
	} {
		for seed := int64(1); seed <= 300; seed++ {
			inst, err := gen.New(seed, cfg)
			if err != nil {
				t.Fatal(err)
			}
			truth, err := inst.Truth()
			if err != nil {
				t.Fatal(err)
			}
			sameBytes(t, fmt.Sprintf("%s seed %d", name, seed), truth, explored(t, inst.Legacy, gen.LegacyName))
		}
	}

	for k := 2; k <= 3; k++ {
		for seed := int64(1); seed <= 100; seed++ {
			inst, err := gen.NewMulti(seed, gen.DefaultConfig(), k)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range inst.Legacies {
				sameBytes(t, fmt.Sprintf("k=%d seed %d %s", k, seed, m.Name()),
					gen.Behavior(m, m.Name()), explored(t, m, m.Name()))
			}
		}
	}

	files, err := mbt.CorpusFiles("../mbt/testdata")
	if err != nil || len(files) == 0 {
		t.Fatalf("mbt corpus: %d files, err = %v", len(files), err)
	}
	for _, path := range files {
		inst, _, err := mbt.LoadRepro(path)
		if err != nil {
			t.Fatal(err)
		}
		if inst.Nondet() {
			continue
		}
		truth, err := inst.Truth()
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, path, truth, explored(t, inst.Legacy, gen.LegacyName))
	}

	// Rows out of probe order: s0 reacts to i02 before i00 before the
	// empty step, and s1 is added before s2 but reached after it.
	in := func(s automata.Signal) automata.SignalSet { return automata.NewSignalSet(s) }
	out := automata.NewSignalSet("o00")
	m := automata.New(gen.LegacyName, automata.NewSignalSet("i00", "i01", "i02"), out)
	s0, s1, s2 := m.MustAddState("s0"), m.MustAddState("s1"), m.MustAddState("s2")
	m.MarkInitial(s0)
	m.MustAddTransition(s0, automata.Interaction{In: in("i02"), Out: out}, s1)
	m.MustAddTransition(s0, automata.Interaction{In: in("i00")}, s2)
	m.MustAddTransition(s0, automata.Interaction{}, s0)
	m.MustAddTransition(s1, automata.Interaction{In: in("i01"), Out: out}, s0)
	m.MustAddTransition(s2, automata.Interaction{In: automata.NewSignalSet("i00", "i01")}, s1) // never probed
	truth, err := (&gen.Instance{Legacy: m}).Truth()
	if err != nil {
		t.Fatal(err)
	}
	sameBytes(t, "rows out of probe order", truth, explored(t, m, gen.LegacyName))
}
