package automata

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

// fuzzReader draws bounded choices from fuzz input; once the input is spent
// every choice is 0, so a draw always terminates.
type fuzzReader struct {
	data []byte
	pos  int
}

func (r *fuzzReader) done() bool { return r.pos >= len(r.data) }

func (r *fuzzReader) next(n int) int {
	if r.done() || n <= 1 {
		return 0
	}
	v := int(r.data[r.pos]) % n
	r.pos++
	return v
}

// subset draws a subset of the signals, each kept with probability 1/2.
func (r *fuzzReader) subset(signals []Signal) SignalSet {
	var picked []Signal
	for _, sig := range signals {
		if r.next(2) == 1 {
			picked = append(picked, sig)
		}
	}
	return NewSignalSet(picked...)
}

// incrementalInstance draws a context, a universe and a one-state model:
// model inputs a..c (at least one), outputs x..y; a context that drives a
// random part of the model's inputs (leaving the rest undriven), reads a
// random part of its outputs, and may own a signal of its own per
// direction; and a singleton, power-set or fixed universe (drawn labels,
// repeats and foreign order included).
func incrementalInstance(r *fuzzReader) (*Automaton, *Incomplete, InteractionUniverse) {
	modelIn := []Signal{"a", "b", "c"}[:1+r.next(3)]
	modelOut := []Signal{"x", "y"}[:r.next(3)]
	ctxOut := r.subset(modelIn).Union(r.subset([]Signal{"f"}))
	ctxIn := r.subset(modelOut).Union(r.subset([]Signal{"e"}))

	ctx := New("ctx", ctxIn, ctxOut)
	n := 1 + r.next(3)
	for i := 0; i < n; i++ {
		ctx.MustAddState(fmt.Sprintf("c%d", i))
	}
	ctx.MarkInitial(0)
	if n > 1 && r.next(3) == 0 {
		ctx.MarkInitial(StateID(n - 1))
	}
	for s := 0; s < n; s++ {
		for k := r.next(5); k > 0; k-- {
			label := Interaction{In: r.subset(ctxIn.signals), Out: r.subset(ctxOut.signals)}
			_ = ctx.AddTransition(StateID(s), label, StateID(r.next(n))) // a repeat is dropped
		}
	}

	ins, outs := NewSignalSet(modelIn...), NewSignalSet(modelOut...)
	var universe InteractionUniverse
	switch r.next(3) {
	case 0:
		universe = Universe(UniverseSingleton)
	case 1:
		universe = Universe(UniversePowerSet)
	default:
		var fixed FixedUniverse
		for k := r.next(12); k > 0; k-- {
			fixed = append(fixed, Interaction{In: r.subset(modelIn), Out: r.subset(modelOut)})
		}
		universe = fixed
	}

	a := New("m", ins, outs)
	a.MarkInitial(a.MustAddState("s0"))
	if r.next(2) == 1 {
		return ctx, NewNondetIncomplete(a), universe
	}
	return ctx, NewIncomplete(a), universe
}

// learnDelta draws one learning step: a run from any (possibly new) state,
// ending blocked or not, or on a nondeterministic model a settled label. A
// run the model rejects still returns what it learned before the conflict.
func learnDelta(r *fuzzReader, m *Incomplete) LearnDelta {
	a := m.Automaton()
	ins, outs := a.Inputs().signals, a.Outputs().signals
	state := func() string { return fmt.Sprintf("s%d", r.next(5)) }
	if m.Nondet() && r.next(4) == 0 {
		s := StateID(r.next(a.NumStates()))
		if row := a.adj[s]; len(row) > 0 {
			label := row[r.next(len(row))].Label
			if err := m.SettleLabel(s, label); err == nil {
				return LearnDelta{NewSettled: []BlockedEntry{{State: s, Label: label}}}
			}
		}
	}
	run := ObservedRun{Initial: state()}
	for k := r.next(4); k > 0; k-- {
		run.Steps = append(run.Steps, ObservedStep{Label: Interaction{In: r.subset(ins), Out: r.subset(outs)}, To: state()})
	}
	if r.next(2) == 1 {
		blocked := Interaction{In: r.subset(ins), Out: r.subset(outs)}
		run.Blocked = &blocked
	}
	delta, _ := m.Learn(run, nil)
	return delta
}

// FuzzIncrementalEquivalence is the differential check of the patched
// system against from-scratch builds: every drawn context, universe and
// model, after the initial build and after every Apply of a drawn learn
// delta, must pass Verify (closure against ChaoticClosure, expanded masked
// rows against the closure's labels, product against Compose). The seed
// corpus alone exercises contexts that leave model inputs undriven, so
// that join buckets hold several labels.
func FuzzIncrementalEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 16+rng.Intn(112))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{data: data}
		ctx, model, universe := incrementalInstance(r)
		ic, err := NewIncrementalSystem(ctx, model, universe)
		if err != nil {
			t.Fatal(err)
		}
		if err := ic.Verify(); err != nil {
			t.Fatalf("initial build: %v", err)
		}
		for step := 0; step < 12 && !r.done(); step++ {
			if err := ic.Apply(learnDelta(r, model)); err != nil {
				t.Fatal(err)
			}
			if err := ic.Verify(); err != nil {
				t.Fatalf("after delta %d: %v", step, err)
			}
		}
	})
}

// TestSystemsShareLayoutsConcurrently builds systems from many goroutines
// over one fresh universe, with two context alphabets: each must verify
// after a patch, and the universe must end with exactly one layout per
// context alphabet. Run under -race, it also checks that layouts are built
// and read without a data race.
func TestSystemsShareLayoutsConcurrently(t *testing.T) {
	ins, outs := NewSignalSet("go", "stop"), NewSignalSet("done")
	universe := CompileUniverse(Universe(UniverseSingleton), ins, outs)
	contexts := []*Automaton{New("mirror", outs, ins), New("half", outs, NewSignalSet("go"))}
	for _, ctx := range contexts {
		idle, wait := ctx.MustAddState("idle"), ctx.MustAddState("wait")
		ctx.MarkInitial(idle)
		ctx.MustAddTransition(idle, Interaction{Out: NewSignalSet("go")}, wait)
		ctx.MustAddTransition(wait, Interaction{In: NewSignalSet("done")}, idle)
		ctx.MustAddTransition(wait, Interaction{}, wait)
	}
	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ctx *Automaton) {
			defer wg.Done()
			a := New("comp", ins, outs)
			a.MarkInitial(a.MustAddState("s0"))
			m := NewIncomplete(a)
			ic, err := NewIncrementalSystemWith(nil, ctx, m, universe, nil)
			if err != nil {
				errs <- err
				return
			}
			blocked := Interaction{In: NewSignalSet("stop")}
			delta, err := m.Learn(ObservedRun{Initial: "s0", Steps: []ObservedStep{
				{Label: Interaction{In: NewSignalSet("go")}, To: "s1"},
				{Label: Interaction{Out: NewSignalSet("done")}, To: "s0"},
			}, Blocked: &blocked}, nil)
			if err == nil {
				err = ic.Apply(delta)
			}
			if err == nil {
				err = ic.Verify()
			}
			errs <- err
		}(contexts[w%len(contexts)])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := universe.NumLayouts(); got != len(contexts) {
		t.Fatalf("universe holds %d layouts after systems over %d context alphabets", got, len(contexts))
	}
}
