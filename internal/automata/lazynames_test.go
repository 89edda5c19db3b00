package automata_test

import (
	"math/rand"
	"slices"
	"testing"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/experiments"
	"muml/internal/gen"
)

// TestLoopNamesNoComposedState runs the synthesis loop without a journal
// over deadlock-only scenario machines and default and nondeterministic
// gen instances, and requires that no composed state was named: the loop
// reads products through their tuples (labels, provenance, context states,
// open-copy siblings), and names appear only when a listing or a lookup
// asks for them.
func TestLoopNamesNoComposedState(t *testing.T) {
	before := automata.Materializations()
	memo := automata.NewMemoCache(nil)
	for seed := int64(0); seed < 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := experiments.GenerateScenario(rng, 48+80*int(seed%17)/16, 2+int(seed/3)%3, 3)
		if seed%3 == 2 {
			sc = experiments.MutateScenario(rng, sc)
		}
		synth, err := core.New(sc.Context, sc.Component, sc.Iface, core.Options{})
		if err != nil {
			t.Fatalf("scenario %d: %v", seed, err)
		}
		if _, err := synth.Run(); err != nil {
			t.Fatalf("scenario %d: %v", seed, err)
		}
	}
	for _, cfg := range []gen.Config{gen.DefaultConfig(), gen.NondetConfig()} {
		for seed := int64(1); seed <= 400; seed++ {
			inst, err := gen.New(seed, cfg)
			if err != nil {
				t.Fatalf("gen %d: %v", seed, err)
			}
			comp, err := inst.Component()
			if err != nil {
				t.Fatalf("gen %d: %v", seed, err)
			}
			synth, err := core.New(inst.Context, comp, inst.Interface(),
				core.Options{Property: inst.Property, Nondet: inst.Nondet(), Memo: memo})
			if err != nil {
				t.Fatalf("gen %d: %v", seed, err)
			}
			if _, err := synth.Run(); err != nil {
				t.Fatalf("gen %d: %v", seed, err)
			}
		}
	}
	if got := automata.Materializations() - before; got != 0 {
		t.Fatalf("the loop named composed states %d times, want 0", got)
	}
}

// collidingContext returns a context whose states "p" and "p|q" join with
// partner states "q|r·0" and "r·0" into the same base name "p|q|r·0": it
// sends a from p to p|q and b from p back to p, and loops on both in p|q.
func collidingContext() *automata.Automaton {
	ctx := automata.New("ctx", automata.EmptySet, automata.NewSignalSet("a", "b"))
	p, pq := ctx.MustAddState("p"), ctx.MustAddState("p|q")
	ctx.MarkInitial(p)
	send := func(sig automata.Signal) automata.Interaction {
		return automata.Interaction{Out: automata.NewSignalSet(sig)}
	}
	ctx.MustAddTransition(p, send("a"), pq)
	ctx.MustAddTransition(p, send("b"), p)
	ctx.MustAddTransition(pq, send("a"), pq)
	ctx.MustAddTransition(pq, send("b"), pq)
	return ctx
}

// TestCollidingNamesMaterializeInIDOrder composes states whose joined
// names collide and reads the later state's name first: names are given
// to all states in ID order, so the earlier one keeps the base name.
func TestCollidingNamesMaterializeInIDOrder(t *testing.T) {
	ctx := collidingContext()
	m := automata.New("m", automata.NewSignalSet("a", "b"), automata.EmptySet)
	r := m.MustAddState("r·0")
	qr := m.MustAddState("q|r·0")
	m.MarkInitial(r)
	m.MustAddTransition(r, automata.Interaction{In: automata.NewSignalSet("a")}, r)
	m.MustAddTransition(r, automata.Interaction{In: automata.NewSignalSet("b")}, qr)
	sys := automata.MustCompose("sys", ctx, m)
	// BFS from (p, r·0): a reaches (p|q, r·0) before b reaches (p, q|r·0).
	later := automata.NoState
	for s := automata.StateID(0); int(s) < sys.NumStates(); s++ {
		if ctx.StateName(sys.FactorState(s, 0)) == "p" && m.StateName(sys.FactorState(s, 1)) == "q|r·0" {
			later = s
		}
	}
	if later == automata.NoState {
		t.Fatal("(p, q|r·0) is not reachable")
	}
	if got := sys.StateName(later); got != "p|q|r·0#2" {
		t.Fatalf("(p, q|r·0) is named %q, want p|q|r·0#2", got)
	}
	first := sys.State("p|q|r·0")
	if first == automata.NoState || ctx.StateName(sys.FactorState(first, 0)) != "p|q" {
		t.Fatalf("p|q|r·0 is state %d, want (p|q, r·0)", first)
	}
}

// TestCollidingNamesAcrossPatches grows a learned model over the colliding
// context so that the second patch creates the product state whose name
// collides with one the first patch created. Whether the product's names
// are first read before the second patch or only after it, they must be a
// from-scratch Compose's, "#2" suffix included.
func TestCollidingNamesAcrossPatches(t *testing.T) {
	names := func(readEarly bool) []string {
		ctx := collidingContext()
		a := automata.New("m", automata.NewSignalSet("a", "b"), automata.EmptySet)
		a.MarkInitial(a.MustAddState("r"))
		model := automata.NewIncomplete(a)
		ic, err := automata.NewIncrementalSystem(ctx, model, automata.Universe(automata.UniverseSingleton))
		if err != nil {
			t.Fatal(err)
		}
		step := func(sig automata.Signal, to string) {
			t.Helper()
			d, err := model.Learn(automata.ObservedRun{Initial: "r", Steps: []automata.ObservedStep{
				{Label: automata.Interaction{In: automata.NewSignalSet(sig)}, To: to}}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := ic.Apply(d); err != nil {
				t.Fatal(err)
			}
			if patched, reason := ic.LastDecision(); !patched {
				t.Fatalf("learning %s rebuilt the system: %s", sig, reason)
			}
		}
		step("a", "r")
		if readEarly {
			ic.System().StateName(0)
		}
		step("b", "q|r")
		sys := ic.System()
		// Read the colliding state's name before any other.
		var collided string
		for s := automata.StateID(0); int(s) < sys.NumStates(); s++ {
			if ctx.StateName(sys.FactorState(s, 0)) == "p" && ic.Closure().StateName(sys.FactorState(s, 1)) == "q|r·0" {
				collided = sys.StateName(s)
			}
		}
		if collided != "p|q|r·0#2" {
			t.Fatalf("readEarly=%v: (p, q|r·0) is named %q, want p|q|r·0#2", readEarly, collided)
		}
		scratch, err := automata.Compose(sys.Name(), ctx, ic.Closure())
		if err != nil {
			t.Fatal(err)
		}
		if err := automata.EquivalentReachable(sys, scratch); err != nil {
			t.Fatalf("readEarly=%v: %v", readEarly, err)
		}
		var out []string
		for s := automata.StateID(0); int(s) < sys.NumStates(); s++ {
			out = append(out, sys.StateName(s))
		}
		return out
	}
	if early, late := names(true), names(false); !slices.Equal(early, late) {
		t.Fatalf("names read before the patch %v, only after it %v", early, late)
	}
}
