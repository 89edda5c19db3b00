package gen

import (
	"math/rand"
	"testing"

	"muml/internal/automata"
	"muml/internal/ctl"
)

func TestGenerateIsReproducible(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, err := New(seed, DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := New(seed, DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		aj, _ := automata.EncodeJSON(a.Legacy)
		bj, _ := automata.EncodeJSON(b.Legacy)
		if string(aj) != string(bj) {
			t.Fatalf("seed %d: legacy automata differ", seed)
		}
		aj, _ = automata.EncodeJSON(a.Context)
		bj, _ = automata.EncodeJSON(b.Context)
		if string(aj) != string(bj) {
			t.Fatalf("seed %d: context automata differ", seed)
		}
		ap, bp := "", ""
		if a.Property != nil {
			ap = a.Property.String()
		}
		if b.Property != nil {
			bp = b.Property.String()
		}
		if ap != bp {
			t.Fatalf("seed %d: properties differ: %q vs %q", seed, ap, bp)
		}
	}
}

func TestGeneratedInstancesAreValid(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		inst, err := New(seed, DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := inst.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !inst.Context.Inputs().Disjoint(inst.Legacy.Inputs()) ||
			!inst.Context.Outputs().Disjoint(inst.Legacy.Outputs()) {
			t.Fatalf("seed %d: alphabets not composable", seed)
		}
		if _, err := inst.TrueComposition(); err != nil {
			t.Fatalf("seed %d: true composition: %v", seed, err)
		}
	}
}

func TestGeneratedPropertiesRoundTripThroughParser(t *testing.T) {
	// Repro files store properties as text; every generated property must
	// survive String → Parse → String unchanged.
	for seed := int64(1); seed <= 50; seed++ {
		inst, err := New(seed, DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if inst.Property == nil {
			continue
		}
		text := inst.Property.String()
		parsed, err := ctl.Parse(text)
		if err != nil {
			t.Fatalf("seed %d: property %q does not parse: %v", seed, text, err)
		}
		if parsed.String() != text {
			t.Fatalf("seed %d: property round-trip changed: %q -> %q", seed, text, parsed.String())
		}
	}
}

func TestGeneratorCoversBothPropertyOutcomes(t *testing.T) {
	var held, violated, deadlocked, free int
	for seed := int64(1); seed <= 60; seed++ {
		inst, err := New(seed, DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if inst.Property != nil {
			if inst.TruePropertyHolds {
				held++
			} else {
				violated++
			}
		}
		if inst.TrueDeadlockFree {
			free++
		} else {
			deadlocked++
		}
	}
	if held == 0 || violated == 0 {
		t.Fatalf("property bias broken: %d held, %d violated", held, violated)
	}
	if deadlocked == 0 || free == 0 {
		t.Fatalf("deadlock coverage broken: %d deadlocked, %d free", deadlocked, free)
	}
}

// TestWideConfigInterns checks that WideConfig's alphabet is wider than
// one machine word (so the interner's second mask word is exercised) and
// that the whole system's alphabet still interns.
func TestWideConfigInterns(t *testing.T) {
	inst, err := New(1, WideConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := inst.Legacy.Inputs().Len() + inst.Legacy.Outputs().Len()
	if total != 70 {
		t.Fatalf("wide alphabet has %d signals, want 70", total)
	}
	if _, err := automata.NewInterner(inst.Context.Inputs(), inst.Context.Outputs(),
		inst.Legacy.Inputs(), inst.Legacy.Outputs()); err != nil {
		t.Fatalf("wide alphabet does not intern: %v", err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateThreadsPRNGExplicitly(t *testing.T) {
	// Two generators seeded identically must agree even when a third,
	// differently-seeded generation is interleaved — i.e. no hidden
	// global randomness.
	r1 := rand.New(rand.NewSource(7))
	r2 := rand.New(rand.NewSource(7))
	a, err := Generate(r1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Generate(rand.New(rand.NewSource(99)), DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	b, err := Generate(r2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := automata.EncodeJSON(a.Legacy)
	bj, _ := automata.EncodeJSON(b.Legacy)
	if string(aj) != string(bj) {
		t.Fatal("interleaved generation changed the outcome: hidden shared state")
	}
}

func TestDropState(t *testing.T) {
	inst, err := New(3, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := inst.Legacy
	if a.NumStates() < 2 {
		t.Skip("instance too small for state surgery")
	}
	victim := automata.StateID(a.NumStates() - 1)
	b := DropState(a, victim)
	if b == nil {
		t.Fatal("DropState returned nil for a droppable state")
	}
	if b.NumStates() != a.NumStates()-1 {
		t.Fatalf("states = %d, want %d", b.NumStates(), a.NumStates()-1)
	}
	for _, tr := range b.Transitions() {
		if b.StateName(tr.From) == a.StateName(victim) || b.StateName(tr.To) == a.StateName(victim) {
			t.Fatal("transition still touches the dropped state")
		}
	}
	// Dropping the sole initial state is refused.
	if got := DropState(a, a.Initial()[0]); got != nil {
		t.Fatal("DropState removed the only initial state")
	}
}

func TestDropTransitionAndSignal(t *testing.T) {
	inst, err := New(5, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a := inst.Legacy
	if a.NumTransitions() == 0 {
		t.Skip("instance has no transitions")
	}
	b := DropTransition(a, 0)
	if b.NumTransitions() != a.NumTransitions()-1 {
		t.Fatalf("transitions = %d, want %d", b.NumTransitions(), a.NumTransitions()-1)
	}
	if b.NumStates() != a.NumStates() {
		t.Fatal("DropTransition changed the state count")
	}

	sig := a.Inputs().Signals()[0]
	c := DropSignal(a, sig)
	if c.Inputs().Contains(sig) {
		t.Fatal("signal still in alphabet after DropSignal")
	}
	for _, tr := range c.Transitions() {
		if tr.Label.In.Contains(sig) || tr.Label.Out.Contains(sig) {
			t.Fatal("transition still uses the dropped signal")
		}
	}
}
