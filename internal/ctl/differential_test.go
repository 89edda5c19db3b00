package ctl_test

import (
	"fmt"
	"testing"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/ctl"
	"muml/internal/gen"
)

// This file is the bitset-vs-legacy differential suite: over the
// internal/gen corpus (default and wide configurations) plus handcrafted
// structures, the bitset Checker must agree with the frozen Reference
// engine on every satisfaction set, verdict, counterexample, and witness.
// The extraction code is shared between the engines, so any disagreement
// pins the blame on the fixpoint rewrite.

// diffFormulas builds the probe suite for a system: the instance property
// (when present), deadlock freedom, one formula per operator family over
// the system's own propositions, and the window edges (lo = hi), δ
// operands and fixpoint seeds of the derived AX, AG and EG.
func diffFormulas(sys *automata.Automaton, property ctl.Formula) []ctl.Formula {
	props := sys.AllPropositions()
	atom := func(i int) ctl.Formula {
		if len(props) == 0 {
			return ctl.True
		}
		return ctl.Atom(props[i%len(props)])
	}
	p, q, r := atom(0), atom(1), atom(2)
	fs := []ctl.Formula{
		ctl.NoDeadlock(),
		ctl.EF(ctl.Deadlock),
		ctl.AG(p),
		ctl.EF(ctl.And(p, q)),
		ctl.AF(q),
		ctl.EG(p),
		ctl.AG(ctl.Implies(p, ctl.AFWithin(1, 3, q))),
		ctl.EFWithin(0, 4, q),
		ctl.AGWithin(0, 5, ctl.Not(ctl.Deadlock)),
		ctl.EGWithin(1, 4, ctl.Or(p, r)),
		ctl.AX(ctl.Or(p, ctl.Deadlock)),
		ctl.EX(q),
		ctl.AU(ctl.Not(q), p),
		ctl.EU(ctl.Not(p), q),
		ctl.Not(ctl.EF(ctl.And(p, q))),
		ctl.And(ctl.AG(ctl.Or(p, ctl.Not(p))), ctl.AF(ctl.Or(q, ctl.Deadlock))),
		// Window edges and δ operands of the operators the Checker
		// evaluates as complements of their duals, and two such sets
		// as the seeds of a fixpoint, which reads every set bit.
		ctl.AGWithin(2, 2, p),
		ctl.EGWithin(0, 0, q),
		ctl.EG(ctl.Deadlock),
		ctl.AX(ctl.Deadlock),
		ctl.EGWithin(1, 3, ctl.Or(p, ctl.Deadlock)),
		ctl.EF(ctl.AX(q)),
		ctl.AF(ctl.EGWithin(1, 3, p)),
	}
	if property != nil {
		fs = append(fs, property)
	}
	return fs
}

func runsEqual(a, b *automata.Run) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.States) != len(b.States) || len(a.Steps) != len(b.Steps) {
		return false
	}
	for i := range a.States {
		if a.States[i] != b.States[i] {
			return false
		}
	}
	for i := range a.Steps {
		if !a.Steps[i].Equal(b.Steps[i]) {
			return false
		}
	}
	return true
}

func resultsEqual(a, b ctl.Result) bool {
	return a.Holds == b.Holds &&
		a.EndsInDeadlock == b.EndsInDeadlock &&
		a.RunWitnessed == b.RunWitnessed &&
		a.Explanation == b.Explanation &&
		runsEqual(a.Counterexample, b.Counterexample)
}

// diffOne cross-checks one system against the reference engine for every
// probe formula, on fresh engines.
func diffOne(t *testing.T, label string, sys *automata.Automaton, property ctl.Formula) {
	t.Helper()
	diffOn(t, label, ctl.NewReference(sys), ctl.NewChecker(sys), sys, property)
}

// diffOn is diffOne on engines that may have checked other systems: both
// are rebound to sys first, so the buffers they keep between rounds are
// reused at another size.
func diffOn(t *testing.T, label string, ref *ctl.Reference, checker *ctl.Checker, sys *automata.Automaton, property ctl.Formula) {
	t.Helper()
	ref.Rebind(sys)
	checker.Rebind(sys)
	for _, f := range diffFormulas(sys, property) {
		ctxt := fmt.Sprintf("%s formula=%s", label, f)

		wantSat, gotSat := ref.Sat(f), checker.Sat(f)
		for s := range wantSat {
			if wantSat[s] != gotSat[s] {
				t.Fatalf("%s: Sat mismatch at state %s: ref=%v bitset=%v",
					ctxt, sys.StateName(automata.StateID(s)), wantSat[s], gotSat[s])
			}
		}
		if want, got := ref.Holds(f), checker.Holds(f); want != got {
			t.Fatalf("%s: Holds mismatch: ref=%v bitset=%v", ctxt, want, got)
		}

		wantRes, gotRes := ref.Check(f), checker.Check(f)
		if !resultsEqual(wantRes, gotRes) {
			t.Fatalf("%s: Check mismatch:\nref:    %+v\nbitset: %+v", ctxt, wantRes, gotRes)
		}

		wantMany, gotMany := ref.CheckMany(f, 3), checker.CheckMany(f, 3)
		if len(wantMany) != len(gotMany) {
			t.Fatalf("%s: CheckMany count mismatch: ref=%d bitset=%d",
				ctxt, len(wantMany), len(gotMany))
		}
		for i := range wantMany {
			if !resultsEqual(wantMany[i], gotMany[i]) {
				t.Fatalf("%s: CheckMany[%d] mismatch:\nref:    %+v\nbitset: %+v",
					ctxt, i, wantMany[i], gotMany[i])
			}
		}

		wantRun, wantErr := ref.Witness(f)
		gotRun, gotErr := checker.Witness(f)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: Witness error mismatch: ref=%v bitset=%v", ctxt, wantErr, gotErr)
		}
		if !runsEqual(wantRun, gotRun) {
			t.Fatalf("%s: Witness run mismatch:\nref:    %v\nbitset: %v", ctxt, wantRun, gotRun)
		}
	}
}

func TestBitsetDifferentialGenCorpus(t *testing.T) {
	// One pair of engines serves every seed, rebound per system, so the
	// Sat sets and search buffers they recycle grow and shrink.
	ref, checker := ctl.NewReference(nil), ctl.NewChecker(nil)
	for seed := int64(1); seed <= 25; seed++ {
		inst, err := gen.New(seed, gen.DefaultConfig())
		if err != nil {
			t.Fatalf("gen seed %d: %v", seed, err)
		}
		sys, err := inst.TrueComposition()
		if err != nil {
			t.Fatalf("compose seed %d: %v", seed, err)
		}
		diffOn(t, fmt.Sprintf("default/seed=%d states=%d", seed, sys.NumStates()), ref, checker, sys, inst.Property)
	}
}

func TestBitsetDifferentialWideCorpus(t *testing.T) {
	// WideConfig draws from 70 input/output signals, so interaction
	// labels need both words of the interner's mask even though states
	// stay modest.
	for seed := int64(1); seed <= 10; seed++ {
		inst, err := gen.New(seed, gen.WideConfig())
		if err != nil {
			t.Fatalf("gen wide seed %d: %v", seed, err)
		}
		sys, err := inst.TrueComposition()
		if err != nil {
			t.Fatalf("compose wide seed %d: %v", seed, err)
		}
		diffOne(t, fmt.Sprintf("wide/seed=%d states=%d", seed, sys.NumStates()), sys, inst.Property)
	}
}

// TestCheckIsFirstOfCheckMany checks that Check's counterexample is the
// first result of CheckMany's shortest-violation search — both run the one
// BFS — over the systems the synthesis loop model checks: the true
// compositions of gen instances and the witness systems their syntheses
// end on, under the instance property, its chaos weakening and deadlock
// freedom.
func TestCheckIsFirstOfCheckMany(t *testing.T) {
	pairs, violated := 0, 0
	for seed := int64(1); seed <= 600; seed++ {
		inst, err := gen.New(seed, gen.DefaultConfig())
		if err != nil {
			t.Fatalf("gen seed %d: %v", seed, err)
		}
		truth, err := inst.TrueComposition()
		if err != nil {
			t.Fatalf("compose seed %d: %v", seed, err)
		}
		systems := []*automata.Automaton{truth}
		comp, err := inst.Component()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		synth, err := core.New(inst.Context, comp, inst.Interface(), core.Options{Property: inst.Property})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		report, err := synth.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if report.WitnessSystem != nil {
			systems = append(systems, report.WitnessSystem)
		}
		formulas := []ctl.Formula{ctl.NoDeadlock()}
		if inst.Property != nil {
			formulas = append(formulas, inst.Property, ctl.WeakenForChaos(inst.Property))
		}
		for _, sys := range systems {
			for _, f := range formulas {
				one, many := ctl.NewChecker(sys).Check(f), ctl.NewChecker(sys).CheckMany(f, 1)
				pairs++
				if !one.Holds {
					violated++
				}
				if len(many) != 1 || one.Holds != many[0].Holds || one.RunWitnessed != many[0].RunWitnessed ||
					one.EndsInDeadlock != many[0].EndsInDeadlock || !runsEqual(one.Counterexample, many[0].Counterexample) {
					t.Fatalf("seed %d system %q formula %s:\nCheck:        %+v\nCheckMany(1): %+v",
						seed, sys.Name(), f, one, many)
				}
			}
		}
	}
	if violated == 0 || violated == pairs {
		t.Fatalf("%d of %d pairs violated: the corpus does not exercise both outcomes", violated, pairs)
	}
	t.Logf("%d system/formula pairs, %d violated", pairs, violated)
}

// layeredAutomaton builds width×depth states arranged in layers, each
// state fanning out to a few states of the next layer. Large widths give
// frontier levels of a thousand states and more, far past the products
// the synthesis loop builds.
func layeredAutomaton(width, depth int) *automata.Automaton {
	a := automata.New("layers", automata.NewSignalSet("x"), automata.EmptySet)
	x := automata.Interact([]automata.Signal{"x"}, nil)
	ids := make([][]automata.StateID, depth)
	for l := 0; l < depth; l++ {
		ids[l] = make([]automata.StateID, width)
		for w := 0; w < width; w++ {
			var labels []automata.Proposition
			if (l*31+w*7)%5 == 0 {
				labels = append(labels, "p")
			}
			if (l+w)%11 == 0 {
				labels = append(labels, "q")
			}
			ids[l][w] = a.MustAddState(fmt.Sprintf("l%dw%d", l, w), labels...)
		}
	}
	for l := 0; l+1 < depth; l++ {
		for w := 0; w < width; w++ {
			for k := 0; k < 3; k++ {
				to := ids[l+1][(w*5+k*13)%width]
				_ = a.AddTransition(ids[l][w], x, to)
			}
		}
	}
	// A back edge per stripe keeps part of the graph cyclic so EG/AF see
	// lassos, not just finite paths.
	for w := 0; w < width; w += 17 {
		_ = a.AddTransition(ids[depth-1][w], x, ids[0][w])
	}
	a.MarkInitial(ids[0][0])
	return a
}

func TestBitsetDifferentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large differential corpus skipped in -short mode")
	}
	// 7200 states (113 bitset words), frontier levels of ~1200.
	sys := layeredAutomaton(1200, 6)
	diffOne(t, "layered/1200x6", sys, nil)
}

func TestBitsetDifferentialSmallShapes(t *testing.T) {
	shapes := map[string]*automata.Automaton{
		"layered-small": layeredAutomaton(5, 4),
		"single":        singleState(),
		"word-boundary": chainAutomaton(64),
		"word-spill":    chainAutomaton(65),
		"two-words":     chainAutomaton(130),
	}
	for name, sys := range shapes {
		diffOne(t, name, sys, nil)
	}
}

// chainAutomaton is a line of n states ending in a deadlock, sized to
// probe bitset tail-masking at and around word boundaries.
func chainAutomaton(n int) *automata.Automaton {
	a := automata.New("chain", automata.NewSignalSet("x"), automata.EmptySet)
	x := automata.Interact([]automata.Signal{"x"}, nil)
	ids := make([]automata.StateID, n)
	for i := 0; i < n; i++ {
		var labels []automata.Proposition
		if i%3 == 0 {
			labels = append(labels, "p")
		}
		if i == n-1 {
			labels = append(labels, "q")
		}
		ids[i] = a.MustAddState(fmt.Sprintf("c%d", i), labels...)
	}
	for i := 0; i+1 < n; i++ {
		a.MustAddTransition(ids[i], x, ids[i+1])
	}
	a.MarkInitial(ids[0])
	return a
}

func singleState() *automata.Automaton {
	a := automata.New("one", automata.EmptySet, automata.EmptySet)
	a.MustAddState("only", "p")
	a.MarkInitial(0)
	return a
}
