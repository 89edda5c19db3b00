package automata

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewSignalSetDedupes(t *testing.T) {
	s := NewSignalSet("b", "a", "b", "a", "c")
	if got, want := s.Len(), 3; got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	if got, want := s.Key(), "a,b,c"; got != want {
		t.Fatalf("Key() = %q, want %q", got, want)
	}
}

func TestSignalSetZeroValue(t *testing.T) {
	var s SignalSet
	if !s.IsEmpty() {
		t.Fatal("zero SignalSet should be empty")
	}
	if s.Contains("x") {
		t.Fatal("zero SignalSet should contain nothing")
	}
	if !s.Equal(EmptySet) {
		t.Fatal("zero SignalSet should equal EmptySet")
	}
	if got := s.String(); got != "{}" {
		t.Fatalf("String() = %q, want {}", got)
	}
}

func TestSignalSetOps(t *testing.T) {
	ab := NewSignalSet("a", "b")
	bc := NewSignalSet("b", "c")

	tests := []struct {
		name string
		got  SignalSet
		want SignalSet
	}{
		{"union", ab.Union(bc), NewSignalSet("a", "b", "c")},
		{"intersect", ab.Intersect(bc), NewSignalSet("b")},
		{"minus", ab.Minus(bc), NewSignalSet("a")},
		{"minus-reverse", bc.Minus(ab), NewSignalSet("c")},
		{"union-empty", ab.Union(EmptySet), ab},
		{"intersect-empty", ab.Intersect(EmptySet), EmptySet},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !tt.got.Equal(tt.want) {
				t.Fatalf("got %v, want %v", tt.got, tt.want)
			}
		})
	}
}

func TestSignalSetSubsetOf(t *testing.T) {
	tests := []struct {
		name string
		a, b SignalSet
		want bool
	}{
		{"empty-of-empty", EmptySet, EmptySet, true},
		{"empty-of-any", EmptySet, NewSignalSet("x"), true},
		{"proper", NewSignalSet("a"), NewSignalSet("a", "b"), true},
		{"equal", NewSignalSet("a", "b"), NewSignalSet("a", "b"), true},
		{"not", NewSignalSet("a", "c"), NewSignalSet("a", "b"), false},
		{"super", NewSignalSet("a", "b"), NewSignalSet("a"), false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.SubsetOf(tt.b); got != tt.want {
				t.Fatalf("SubsetOf = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestSignalSetDisjoint(t *testing.T) {
	if !NewSignalSet("a").Disjoint(NewSignalSet("b")) {
		t.Fatal("disjoint sets reported overlapping")
	}
	if NewSignalSet("a", "b").Disjoint(NewSignalSet("b", "c")) {
		t.Fatal("overlapping sets reported disjoint")
	}
}

func TestSignalSetSignalsIsCopy(t *testing.T) {
	s := NewSignalSet("a", "b")
	sigs := s.Signals()
	sigs[0] = "zzz"
	if !s.Contains("a") {
		t.Fatal("mutating Signals() result affected the set")
	}
}

// genSet is a helper generating random small signal sets for quick checks.
func genSet(r *rand.Rand) SignalSet {
	alphabet := []Signal{"a", "b", "c", "d", "e"}
	var members []Signal
	for _, s := range alphabet {
		if r.Intn(2) == 1 {
			members = append(members, s)
		}
	}
	return NewSignalSet(members...)
}

type setPair struct{ A, B SignalSet }

// Generate implements quick.Generator.
func (setPair) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(setPair{A: genSet(r), B: genSet(r)})
}

func TestSignalSetAlgebraicProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}

	t.Run("union-commutative", func(t *testing.T) {
		if err := quick.Check(func(p setPair) bool {
			return p.A.Union(p.B).Equal(p.B.Union(p.A))
		}, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("intersect-commutative", func(t *testing.T) {
		if err := quick.Check(func(p setPair) bool {
			return p.A.Intersect(p.B).Equal(p.B.Intersect(p.A))
		}, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("union-contains-both", func(t *testing.T) {
		if err := quick.Check(func(p setPair) bool {
			u := p.A.Union(p.B)
			return p.A.SubsetOf(u) && p.B.SubsetOf(u)
		}, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("intersect-within-both", func(t *testing.T) {
		if err := quick.Check(func(p setPair) bool {
			i := p.A.Intersect(p.B)
			return i.SubsetOf(p.A) && i.SubsetOf(p.B)
		}, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("minus-disjoint-from-subtrahend", func(t *testing.T) {
		if err := quick.Check(func(p setPair) bool {
			return p.A.Minus(p.B).Disjoint(p.B)
		}, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("partition", func(t *testing.T) {
		if err := quick.Check(func(p setPair) bool {
			// A = (A∖B) ∪ (A∩B)
			return p.A.Minus(p.B).Union(p.A.Intersect(p.B)).Equal(p.A)
		}, cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("key-injective", func(t *testing.T) {
		if err := quick.Check(func(p setPair) bool {
			return (p.A.Key() == p.B.Key()) == p.A.Equal(p.B)
		}, cfg); err != nil {
			t.Fatal(err)
		}
	})
}

func TestInteractionKey(t *testing.T) {
	x := Interact([]Signal{"a"}, []Signal{"b"})
	y := Interact(nil, []Signal{"a", "b"})
	if x.Key() == y.Key() {
		t.Fatalf("distinct interactions share key %q", x.Key())
	}
	if !x.Equal(Interact([]Signal{"a"}, []Signal{"b"})) {
		t.Fatal("equal interactions reported unequal")
	}
}

func TestSingletonUniverse(t *testing.T) {
	u := Universe(UniverseSingleton)
	labels := u.Enumerate(NewSignalSet("i1", "i2"), NewSignalSet("o1"))
	// (∅, i1, i2) × (∅, o1) = 6 labels.
	if got, want := len(labels), 6; got != want {
		t.Fatalf("singleton universe size = %d, want %d", got, want)
	}
	for _, x := range labels {
		if x.In.Len() > 1 || x.Out.Len() > 1 {
			t.Fatalf("singleton universe produced %v", x)
		}
	}
}

func TestPowerSetUniverse(t *testing.T) {
	u := Universe(UniversePowerSet)
	labels := u.Enumerate(NewSignalSet("i1", "i2"), NewSignalSet("o1"))
	// 2^2 × 2^1 = 8 labels.
	if got, want := len(labels), 8; got != want {
		t.Fatalf("power set universe size = %d, want %d", got, want)
	}
	seen := make(map[string]bool)
	for _, x := range labels {
		if seen[x.Key()] {
			t.Fatalf("duplicate label %v", x)
		}
		seen[x.Key()] = true
	}
}

func TestFixedUniverseFiltersAlphabet(t *testing.T) {
	u := FixedUniverse{
		Interact([]Signal{"in"}, nil),
		Interact([]Signal{"other"}, nil),
		Interact(nil, []Signal{"out"}),
		Interact([]Signal{"in"}, nil), // repeated: enumerated once
	}
	labels := u.Enumerate(NewSignalSet("in"), NewSignalSet("out"))
	if got, want := len(labels), 2; got != want {
		t.Fatalf("fixed universe size = %d, want %d", got, want)
	}
}

// TestCompiledUniverse checks the compiled form against Enumerate for every
// universe kind: the same labels in the same order, and an input index that
// partitions them (each label listed once, under its own input set, in
// enumeration order).
func TestCompiledUniverse(t *testing.T) {
	in := NewSignalSet("convoyProposal", "breakConvoyProposal")
	out := NewSignalSet("convoyProposalRejected", "startConvoy")
	universes := map[string]InteractionUniverse{
		"singleton": Universe(UniverseSingleton),
		"powerset":  Universe(UniversePowerSet),
		"fixed": FixedUniverse{
			Interact([]Signal{"convoyProposal"}, []Signal{"startConvoy"}),
			Interact(nil, nil),
			Interact([]Signal{"other"}, nil), // outside the alphabet: filtered
			Interact([]Signal{"convoyProposal"}, nil),
			Interact(nil, []Signal{"startConvoy"}),
		},
	}
	for name, u := range universes {
		t.Run(name, func(t *testing.T) {
			want := u.Enumerate(in, out)
			cu := CompileUniverse(u, in, out)
			if !reflect.DeepEqual(cu.labels, want) {
				t.Fatalf("labels %v, want Enumerate's %v", cu.labels, want)
			}
			listed := 0
			for _, set := range cu.InputSets() {
				var under []Interaction
				for _, x := range want {
					if x.In.Equal(set) {
						under = append(under, x)
					}
				}
				var got []Interaction
				for _, i := range cu.labelsUnder(set) {
					got = append(got, cu.labels[i])
				}
				if !reflect.DeepEqual(got, under) {
					t.Fatalf("labelsUnder(%v) = %v, want %v", set, got, under)
				}
				listed += len(under)
			}
			if listed != len(want) {
				t.Fatalf("input index lists %d labels, universe has %d", listed, len(want))
			}
			for i, a := range cu.InputSets() {
				for _, b := range cu.InputSets()[:i] {
					if a.Equal(b) {
						t.Fatalf("input set %v listed twice", a)
					}
				}
			}
			if got := cu.labelsUnder(NewSignalSet("absent")); got != nil {
				t.Fatalf("labelsUnder(absent input) = %v, want nil", got)
			}
		})
	}
}

// TestInputSetsMatchCompiledUniverse checks that InputSets, which derives
// a predefined universe's input sets from the input alphabet alone, lists
// exactly what the compiled universe lists, in the same order, for both
// predefined kinds and a FixedUniverse over several alphabets.
func TestInputSetsMatchCompiledUniverse(t *testing.T) {
	alphabets := []struct{ in, out SignalSet }{
		{EmptySet, EmptySet},
		{NewSignalSet("a"), EmptySet},
		{EmptySet, NewSignalSet("x")},
		{NewSignalSet("b", "a", "c"), NewSignalSet("y", "x")},
		{NewSignalSet("i00", "i01", "i02", "i03", "i04", "i05"), NewSignalSet("o00", "o01", "o02")},
	}
	universes := map[string]InteractionUniverse{
		"singleton": Universe(UniverseSingleton),
		"powerset":  Universe(UniversePowerSet),
		"fixed": FixedUniverse{
			Interact([]Signal{"c"}, []Signal{"x"}),
			Interact(nil, []Signal{"y"}),
			Interact([]Signal{"a", "b"}, nil),
			Interact([]Signal{"c"}, nil),
			Interact([]Signal{"i03"}, []Signal{"o01"}),
			Interact([]Signal{"a"}, []Signal{"absent"}),
			Interact(nil, nil),
		},
	}
	for name, u := range universes {
		for _, ab := range alphabets {
			got := InputSets(u, ab.in, ab.out)
			want := CompileUniverse(u, ab.in, ab.out).InputSets()
			if len(got) != len(want) {
				t.Fatalf("%s over (%v, %v): %d input sets %v, compiled universe has %d %v",
					name, ab.in, ab.out, len(got), got, len(want), want)
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%s over (%v, %v): input set %d is %v, compiled universe has %v",
						name, ab.in, ab.out, i, got[i], want[i])
				}
			}
		}
	}
}
