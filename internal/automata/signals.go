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
	"slices"
	"sort"
	"strings"
	"sync"
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

// compareSets orders signal sets by their signals in canonical order,
// lexicographically.
func compareSets(a, b SignalSet) int { return slices.Compare(a.signals, b.signals) }

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

// compareKeys orders interactions as their Key strings order, without
// building them.
func compareKeys(x, y Interaction) int {
	a, b := keyBytes{x: x}, keyBytes{x: y}
	for {
		p, q := a.next(), b.next()
		if p != q || p < 0 {
			return p - q
		}
	}
}

// keyBytes reads the bytes of x.Key() one at a time: the input signals
// joined by ',', then '/', then the output signals joined by ','.
type keyBytes struct {
	x        Interaction
	out      bool // past the '/'
	sig, off int  // the signal being read and the next byte in it
}

// next returns the next byte of the key, or -1 past its end.
func (k *keyBytes) next() int {
	for {
		set := k.x.In
		if k.out {
			set = k.x.Out
		}
		if k.sig < len(set.signals) {
			if sig := set.signals[k.sig]; k.off < len(sig) {
				k.off++
				return int(sig[k.off-1])
			}
			k.sig, k.off = k.sig+1, 0
			if k.sig < len(set.signals) {
				return ','
			}
			continue
		}
		if k.out {
			return -1
		}
		k.out, k.sig, k.off = true, 0, 0
		return '/'
	}
}

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

// Enumerate pairs every step set over the inputs with every step set over
// the outputs, inputs major.
func (k universeKind) Enumerate(inputs, outputs SignalSet) []Interaction {
	ins, outs := k.steps(inputs), k.steps(outputs)
	labels := make([]Interaction, 0, len(ins)*len(outs))
	for _, a := range ins {
		for _, b := range outs {
			labels = append(labels, Interaction{In: a, Out: b})
		}
	}
	return labels
}

// steps returns the signal sets one direction of a label may carry over
// the alphabet: ℘(alphabet) in mask order for the power-set universe, and
// the empty set followed by each signal alone for the singleton one.
func (k universeKind) steps(alphabet SignalSet) []SignalSet {
	if UniverseKind(k) == UniversePowerSet {
		return powerSet(alphabet)
	}
	steps := make([]SignalSet, 1, alphabet.Len()+1)
	for _, sig := range alphabet.signals {
		steps = append(steps, SignalSet{signals: []Signal{sig}})
	}
	return steps
}

// InputSets returns the distinct input sets of the universe over the given
// alphabets, in order of first appearance: what CompileUniverse(u, inputs,
// outputs).InputSets() returns, without enumerating the labels of a
// predefined universe, whose input sets depend on the input alphabet
// alone. Every output alphabet admits the empty output, so each step set
// appears.
func InputSets(u InteractionUniverse, inputs, outputs SignalSet) []SignalSet {
	if k, ok := u.(universeKind); ok {
		return k.steps(inputs)
	}
	return CompileUniverse(u, inputs, outputs).InputSets()
}

// FixedUniverse is an explicit, caller-supplied interaction universe.
type FixedUniverse []Interaction

// Enumerate returns the interactions of the fixed universe whose signals
// fall within the given alphabets, each once, in order of first occurrence.
// (The closure constructions rely on a universe never repeating a label.)
func (u FixedUniverse) Enumerate(inputs, outputs SignalSet) []Interaction {
	labels := make([]Interaction, 0, len(u))
	seen := make(map[string]struct{}, len(u))
	for _, x := range u {
		if _, dup := seen[x.Key()]; dup || !x.In.SubsetOf(inputs) || !x.Out.SubsetOf(outputs) {
			continue
		}
		seen[x.Key()] = struct{}{}
		labels = append(labels, x)
	}
	return labels
}

// CompiledUniverse is an interaction universe enumerated once over one pair
// of alphabets: the labels in Enumerate order and an index from each input
// set to the labels under it. The synthesis loop compiles each component's
// universe once and reads this form for every closure build, memo key and
// refusal instead of re-enumerating. A compiled universe is shared by
// concurrent instances (MemoCache.Universe); the universe fingerprint and
// the interned labels are computed on first use, once.
//
// A label's position in enumeration order is its index: the index of the
// label index of every model bound to the universe (Incomplete.BindUniverse),
// whose refused and settled labels are bitsets over it, and of the
// known-label bitsets of closure rows (closureRow). The input index is
// searched, never hashed, so finding a label's index builds no key.
//
// The universe also owns the chaos rows of every closure over it, in the
// form of label layouts (see labelLayout): one per context alphabet the
// component is composed with, built on first use and shared, immutable,
// by every IncrementalSystem over this compiled universe. Instances that
// share it (MemoCache.Universe) pay for their learned states and not for
// the universe's labels.
type CompiledUniverse struct {
	kind            universeKind // the predefined universe compiled, or 0
	inputs, outputs SignalSet
	labels          []Interaction
	inputSets       []SignalSet // distinct input sets, in order of first appearance
	// byIn holds the label indices sorted stably by input set: the labels
	// under one input set are a run of it, in enumeration order.
	byIn []int32

	fpOnce sync.Once
	fp     uint64 // universeFingerprint(labels): the closure memo key's second half

	keysOnce sync.Once
	keys     universeKeys

	layoutMu sync.Mutex
	layouts  map[layoutKey]*labelLayout
}

// labelLayout is a universe's labels laid out for the product join with one
// context alphabet. keys are the labels under the system interner, in
// enumeration order, and ctxOut is the context's output mask under it.
// The labels are chained into join buckets: the bucket of join key {k.In ∩
// ctxOut, k.Out} starts at heads[key] and continues through next (-1 ends
// it), in ascending universe order. A context transition (in, out)
// composes with a chaos edge on k exactly when k.In ∩ ctxOut = out and
// k.Out = in ∩ closOut (the model's outputs), so bucket {out, in ∩
// closOut} lists its partners in universe order. When the context leaves a
// model input undriven, several labels share a bucket. A layout is
// immutable once built.
type labelLayout struct {
	keys   []InternKey
	ctxOut SetMask
	heads  map[InternKey]int32
	next   []int32
}

// joinKey returns the key of label k's join bucket.
func (l *labelLayout) joinKey(k InternKey) InternKey {
	return InternKey{In: k.In.and(l.ctxOut), Out: k.Out}
}

// head returns the first universe index of the bucket with join key b, or
// -1 when no label has that key.
func (l *labelLayout) head(b InternKey) int32 {
	if i, ok := l.heads[b]; ok {
		return i
	}
	return -1
}

// layoutKey identifies a layout: the key translation from the universe's
// bits to the system interner's (as bytes), and the context's output mask
// under that interner.
type layoutKey struct {
	tr     string
	ctxOut SetMask
}

// layout returns the universe's label layout under the interner in for a
// context with output mask ctxOut, building it on first use. The number of
// layouts is bounded by the distinct context alphabets composed with the
// universe's interface.
func (cu *CompiledUniverse) layout(in *Interner, ctxOut SetMask) (*labelLayout, error) {
	uk, err := cu.internedKeys()
	if err != nil {
		return nil, err
	}
	tr, err := in.translation(uk.signals)
	if err != nil {
		return nil, err
	}
	key := layoutKey{tr: string(tr), ctxOut: ctxOut}
	cu.layoutMu.Lock()
	defer cu.layoutMu.Unlock()
	if l := cu.layouts[key]; l != nil {
		return l, nil
	}
	n := len(uk.keys)
	l := &labelLayout{keys: make([]InternKey, n), ctxOut: ctxOut,
		heads: make(map[InternKey]int32, n), next: make([]int32, n)}
	for i, k := range uk.keys {
		l.keys[i] = tr.key(k)
	}
	// Chained from the last label back, each bucket runs in ascending order.
	for i := n - 1; i >= 0; i-- {
		b := l.joinKey(l.keys[i])
		l.next[i] = l.head(b)
		l.heads[b] = int32(i)
	}
	if cu.layouts == nil {
		cu.layouts = make(map[layoutKey]*labelLayout)
	}
	cu.layouts[key] = l
	return l, nil
}

// universeKeys are a universe's labels interned over the universe's own
// alphabet, in enumeration order: signals[i] is bit i of every key.
type universeKeys struct {
	signals []Signal
	keys    []InternKey
	err     error
}

// CompileUniverse enumerates the universe over the given alphabets once.
func CompileUniverse(u InteractionUniverse, inputs, outputs SignalSet) *CompiledUniverse {
	labels := u.Enumerate(inputs, outputs)
	cu := &CompiledUniverse{inputs: inputs, outputs: outputs, labels: labels}
	cu.kind, _ = u.(universeKind)
	cu.byIn = make([]int32, len(labels))
	for i := range cu.byIn {
		cu.byIn[i] = int32(i)
	}
	slices.SortStableFunc(cu.byIn, func(a, b int32) int { return compareSets(labels[a].In, labels[b].In) })
	for i, x := range labels {
		// An input set appears first where it starts its run in byIn; the
		// predefined universes list each input set in one run.
		if (i == 0 || !x.In.Equal(labels[i-1].In)) && cu.labelsUnder(x.In)[0] == int32(i) {
			cu.inputSets = append(cu.inputSets, x.In)
		}
	}
	return cu
}

// fingerprint returns the universe fingerprint, which keys closures in the
// memo cache and the persistent memo store. It is computed on first use, so
// a universe compiled only for its input sets never hashes its labels.
func (cu *CompiledUniverse) fingerprint() uint64 {
	cu.fpOnce.Do(func() { cu.fp = universeFingerprint(cu.labels) })
	return cu.fp
}

// internedKeys returns the labels interned over the universe's alphabets,
// computed on first use. An interner over the same alphabets (every
// closure's own) encodes signals at the same bits, so it can read the keys
// as they are; any other interner translates them (see keyTranslation).
func (cu *CompiledUniverse) internedKeys() (*universeKeys, error) {
	cu.keysOnce.Do(func() {
		in, err := NewInterner(cu.inputs, cu.outputs)
		if err != nil {
			cu.keys.err = fmt.Errorf("automata: universe over (%v, %v): %w", cu.inputs, cu.outputs, err)
			return
		}
		cu.keys.signals = in.signals
		cu.keys.keys, cu.keys.err = in.internLabels(cu.labels)
	})
	return &cu.keys, cu.keys.err
}

// InputSets returns the distinct input sets of the universe in order of
// first appearance. The slice is shared; callers must not modify it.
func (cu *CompiledUniverse) InputSets() []SignalSet { return cu.inputSets }

// labelsUnder returns the indices of the universe's labels whose input set
// is in, in enumeration order (nil when there are none). The slice is
// shared; callers must not modify it.
func (cu *CompiledUniverse) labelsUnder(in SignalSet) []int32 {
	lo, hi := cu.bound(in, false), cu.bound(in, true)
	if lo == hi {
		return nil
	}
	return cu.byIn[lo:hi:hi]
}

// bound returns the first position of byIn whose label's input set is
// not below in, or with past set, not at most in.
func (cu *CompiledUniverse) bound(in SignalSet, past bool) int {
	lo, hi := 0, len(cu.byIn)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c := compareSets(cu.labels[cu.byIn[mid]].In, in); c < 0 || past && c == 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// index returns the index of label x in the universe, or -1 when the
// universe lacks it.
func (cu *CompiledUniverse) index(x Interaction) int32 {
	for _, i := range cu.labelsUnder(x.In) {
		if cu.labels[i].Out.Equal(x.Out) {
			return i
		}
	}
	return -1
}

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
