// Package automata implements the finite I/O automaton model that underlies
// Mechatronic UML real-time statecharts, as defined in Giese, Henkler, and
// Hirsch, "Combining Formal Verification and Testing for Correct Legacy
// Component Integration in Mechatronic UML" (Architecting Dependable
// Systems V, LNCS 5135, 2008), Section 2.
//
// An automaton is a 5-tuple M = (S, I, O, T, Q) with finite states S, input
// signals I, output signals O, transitions T ⊆ S × ℘(I) × ℘(O) × S, and
// initial states Q. Time is discrete: every transition takes exactly one
// time unit. The package additionally provides the paper's parallel
// composition (Definition 3), refinement preorder (Definition 4), incomplete
// automata (Definitions 6-7), the chaotic automaton and chaotic closure
// (Definitions 8-9), observation conformance (Definition 10), and the learn
// operations (Definitions 11-12).
package automata

import (
	"fmt"
	"sort"
	"strings"
)

// Signal is a named message or event exchanged between components. Within
// one automaton a signal belongs either to the input alphabet I or to the
// output alphabet O, never both.
type Signal string

// SignalSet is an immutable, canonically ordered set of signals. It models
// the elements of ℘(I) and ℘(O) that annotate transitions. The zero value
// is the empty set and is ready to use.
type SignalSet struct {
	signals []Signal // sorted ascending, no duplicates
}

// NewSignalSet returns the set containing exactly the given signals.
// Duplicates are removed.
func NewSignalSet(signals ...Signal) SignalSet {
	if len(signals) == 0 {
		return SignalSet{}
	}
	sorted := make([]Signal, len(signals))
	copy(sorted, signals)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	deduped := sorted[:1]
	for _, s := range sorted[1:] {
		if s != deduped[len(deduped)-1] {
			deduped = append(deduped, s)
		}
	}
	return SignalSet{signals: deduped}
}

// EmptySet is the empty signal set. It annotates transitions that neither
// consume nor produce a message (a pure time step).
var EmptySet = SignalSet{}

// Len reports the number of signals in the set.
func (s SignalSet) Len() int { return len(s.signals) }

// IsEmpty reports whether the set contains no signals.
func (s SignalSet) IsEmpty() bool { return len(s.signals) == 0 }

// Signals returns the signals in canonical (ascending) order. The returned
// slice is a copy; mutating it does not affect the set.
func (s SignalSet) Signals() []Signal {
	if len(s.signals) == 0 {
		return nil
	}
	out := make([]Signal, len(s.signals))
	copy(out, s.signals)
	return out
}

// Contains reports whether sig is a member of the set.
func (s SignalSet) Contains(sig Signal) bool {
	i := sort.Search(len(s.signals), func(i int) bool { return s.signals[i] >= sig })
	return i < len(s.signals) && s.signals[i] == sig
}

// Equal reports whether both sets contain exactly the same signals.
func (s SignalSet) Equal(other SignalSet) bool {
	if len(s.signals) != len(other.signals) {
		return false
	}
	for i, sig := range s.signals {
		if other.signals[i] != sig {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every signal of s is also in other.
func (s SignalSet) SubsetOf(other SignalSet) bool {
	i := 0
	for _, sig := range s.signals {
		for i < len(other.signals) && other.signals[i] < sig {
			i++
		}
		if i >= len(other.signals) || other.signals[i] != sig {
			return false
		}
	}
	return true
}

// Union returns the set of signals occurring in s or other.
func (s SignalSet) Union(other SignalSet) SignalSet {
	if s.IsEmpty() {
		return other
	}
	if other.IsEmpty() {
		return s
	}
	merged := make([]Signal, 0, len(s.signals)+len(other.signals))
	i, j := 0, 0
	for i < len(s.signals) && j < len(other.signals) {
		switch {
		case s.signals[i] < other.signals[j]:
			merged = append(merged, s.signals[i])
			i++
		case s.signals[i] > other.signals[j]:
			merged = append(merged, other.signals[j])
			j++
		default:
			merged = append(merged, s.signals[i])
			i++
			j++
		}
	}
	merged = append(merged, s.signals[i:]...)
	merged = append(merged, other.signals[j:]...)
	return SignalSet{signals: merged}
}

// Intersect returns the set of signals occurring in both s and other.
func (s SignalSet) Intersect(other SignalSet) SignalSet {
	var common []Signal
	i, j := 0, 0
	for i < len(s.signals) && j < len(other.signals) {
		switch {
		case s.signals[i] < other.signals[j]:
			i++
		case s.signals[i] > other.signals[j]:
			j++
		default:
			common = append(common, s.signals[i])
			i++
			j++
		}
	}
	return SignalSet{signals: common}
}

// Minus returns the set of signals in s that are not in other.
func (s SignalSet) Minus(other SignalSet) SignalSet {
	var rest []Signal
	j := 0
	for _, sig := range s.signals {
		for j < len(other.signals) && other.signals[j] < sig {
			j++
		}
		if j < len(other.signals) && other.signals[j] == sig {
			continue
		}
		rest = append(rest, sig)
	}
	return SignalSet{signals: rest}
}

// Disjoint reports whether s and other share no signal.
func (s SignalSet) Disjoint(other SignalSet) bool {
	return s.Intersect(other).IsEmpty()
}

// Key returns a canonical string representation suitable as a map key.
// Distinct sets have distinct keys.
func (s SignalSet) Key() string {
	if len(s.signals) == 0 {
		return ""
	}
	parts := make([]string, len(s.signals))
	for i, sig := range s.signals {
		parts[i] = string(sig)
	}
	return strings.Join(parts, ",")
}

// String renders the set in mathematical notation, e.g. "{a,b}".
func (s SignalSet) String() string {
	if len(s.signals) == 0 {
		return "{}"
	}
	return "{" + s.Key() + "}"
}

// Interaction is one transition label (A, B) with A a set of consumed input
// signals and B a set of produced output signals. A transition
// (s, A, B, s') ∈ T carries exactly one interaction.
type Interaction struct {
	In  SignalSet
	Out SignalSet
}

// Interact is shorthand for constructing an Interaction from signal lists.
func Interact(in []Signal, out []Signal) Interaction {
	return Interaction{In: NewSignalSet(in...), Out: NewSignalSet(out...)}
}

// Key returns a canonical map key identifying the interaction.
func (x Interaction) Key() string { return x.In.Key() + "/" + x.Out.Key() }

// Equal reports whether both interactions have identical input and output
// sets.
func (x Interaction) Equal(other Interaction) bool {
	return x.In.Equal(other.In) && x.Out.Equal(other.Out)
}

// String renders the interaction as "A/B", e.g. "{ping}/{pong}".
func (x Interaction) String() string { return x.In.String() + "/" + x.Out.String() }

// InteractionUniverse enumerates the interaction labels considered possible
// for a component. Definitions 8 and 9 of the paper quantify over the full
// power sets ℘(I) × ℘(O); for larger alphabets this is intractable, and the
// statechart semantics of Mechatronic UML only ever produces steps carrying
// at most one message per direction. The universe therefore is a parameter
// of the chaotic closure construction; see Universe.
type InteractionUniverse interface {
	// Enumerate returns every interaction in the universe over the given
	// alphabets, in a deterministic order.
	Enumerate(inputs, outputs SignalSet) []Interaction
}

// UniverseKind selects a predefined interaction universe.
type UniverseKind int

const (
	// UniverseSingleton admits interactions with at most one input and at
	// most one output signal (including the empty step). This matches the
	// step semantics of real-time statecharts and is the default.
	UniverseSingleton UniverseKind = iota + 1
	// UniversePowerSet admits the full ℘(I) × ℘(O) as in Definition 8.
	// Exponential in the alphabet size; only sensible for small alphabets.
	UniversePowerSet
)

// Universe returns a predefined interaction universe.
func Universe(kind UniverseKind) InteractionUniverse {
	return universeKind(kind)
}

type universeKind UniverseKind

func (k universeKind) Enumerate(inputs, outputs SignalSet) []Interaction {
	switch UniverseKind(k) {
	case UniversePowerSet:
		ins := powerSet(inputs)
		outs := powerSet(outputs)
		labels := make([]Interaction, 0, len(ins)*len(outs))
		for _, a := range ins {
			for _, b := range outs {
				labels = append(labels, Interaction{In: a, Out: b})
			}
		}
		return labels
	default: // UniverseSingleton
		ins := []SignalSet{EmptySet}
		for _, sig := range inputs.Signals() {
			ins = append(ins, NewSignalSet(sig))
		}
		outs := []SignalSet{EmptySet}
		for _, sig := range outputs.Signals() {
			outs = append(outs, NewSignalSet(sig))
		}
		labels := make([]Interaction, 0, len(ins)*len(outs))
		for _, a := range ins {
			for _, b := range outs {
				labels = append(labels, Interaction{In: a, Out: b})
			}
		}
		return labels
	}
}

// FixedUniverse is an explicit, caller-supplied interaction universe.
type FixedUniverse []Interaction

// Enumerate returns the interactions of the fixed universe whose signals
// fall within the given alphabets.
func (u FixedUniverse) Enumerate(inputs, outputs SignalSet) []Interaction {
	labels := make([]Interaction, 0, len(u))
	for _, x := range u {
		if x.In.SubsetOf(inputs) && x.Out.SubsetOf(outputs) {
			labels = append(labels, x)
		}
	}
	return labels
}

// CompiledUniverse is an interaction universe enumerated once over one pair
// of alphabets: the labels in Enumerate order, an index from each input set
// to the labels under it, and the universe fingerprint. The synthesis loop
// compiles each component's universe once and reads this form for every
// closure build, memo key and refusal instead of re-enumerating.
type CompiledUniverse struct {
	inputs, outputs SignalSet
	labels          []Interaction
	inputSets       []SignalSet              // distinct input sets, in order of first appearance
	byInput         map[string][]Interaction // input set key -> labels under it, in enumeration order
	fingerprint     uint64                   // universeFingerprint(labels): the closure memo key's second half
}

// CompileUniverse enumerates the universe over the given alphabets once.
func CompileUniverse(u InteractionUniverse, inputs, outputs SignalSet) *CompiledUniverse {
	labels := u.Enumerate(inputs, outputs)
	cu := &CompiledUniverse{inputs: inputs, outputs: outputs, labels: labels,
		byInput: make(map[string][]Interaction), fingerprint: universeFingerprint(labels)}
	// The predefined universes enumerate each input set's labels in one
	// run, so a run is keyed once and indexed as a capacity-capped
	// subslice of labels; a FixedUniverse that lists an input set in
	// several runs gets a copy holding them all.
	for start := 0; start < len(labels); {
		in := labels[start].In
		end := start + 1
		for end < len(labels) && labels[end].In.Equal(in) {
			end++
		}
		k := in.Key()
		if prev, seen := cu.byInput[k]; seen {
			cu.byInput[k] = append(prev, labels[start:end]...)
		} else {
			cu.inputSets = append(cu.inputSets, in)
			cu.byInput[k] = labels[start:end:end]
		}
		start = end
	}
	return cu
}

// InputSets returns the distinct input sets of the universe in order of
// first appearance. The slice is shared; callers must not modify it.
func (cu *CompiledUniverse) InputSets() []SignalSet { return cu.inputSets }

// Under returns the universe's interactions whose input set is in, in
// Enumerate order (nil when there are none). The slice is shared; callers
// must not modify it.
func (cu *CompiledUniverse) Under(in SignalSet) []Interaction { return cu.byInput[in.Key()] }

// checkAlphabets reports an error unless the universe was compiled over
// a's alphabets.
func (cu *CompiledUniverse) checkAlphabets(a *Automaton) error {
	if !cu.inputs.Equal(a.inputs) || !cu.outputs.Equal(a.outputs) {
		return fmt.Errorf("automata: universe compiled over (%v, %v), automaton %q has (%v, %v)",
			cu.inputs, cu.outputs, a.name, a.inputs, a.outputs)
	}
	return nil
}

func powerSet(set SignalSet) []SignalSet {
	signals := set.Signals()
	if len(signals) > 16 {
		// ℘ over more than 16 signals would exceed 65536 subsets; callers
		// needing this must supply a FixedUniverse instead.
		panic("automata: power set universe over more than 16 signals")
	}
	n := 1 << len(signals)
	subsets := make([]SignalSet, 0, n)
	for mask := 0; mask < n; mask++ {
		var members []Signal
		for i, sig := range signals {
			if mask&(1<<i) != 0 {
				members = append(members, sig)
			}
		}
		subsets = append(subsets, NewSignalSet(members...))
	}
	return subsets
}
