package automata

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// This file implements interaction interning: a dense integer encoding of
// SignalSet and Interaction values over a fixed alphabet. The hot
// algorithms of this package (parallel composition, chaotic closure,
// refinement) spend most of their time in Union/Intersect/Equal over
// signal sets; interned, those become two-word bitwise operations, and
// each distinct label is materialized as a SignalSet or Interaction at
// most once per interner.
//
// Interning is internal to the algorithms: the public API keeps the sorted
// immutable SignalSet as its boundary type. It is also the only label path:
// an alphabet wider than an interner holds is an error (ErrAlphabetTooWide),
// never a slower fallback.

// MaxInternSignals bounds the alphabet an Interner can encode: one bit per
// signal in a two-word SetMask. The widest systems the repository runs
// (gen.WideConfig: a 40+30-signal role and its mirrored context, 70
// signals in all) fit; Mechatronic UML ports have a handful of signals.
const MaxInternSignals = 128

// ErrAlphabetTooWide is returned (wrapped) by NewInterner, and by every
// construction that interns its labels, when the alphabet exceeds
// MaxInternSignals signals.
var ErrAlphabetTooWide = errors.New("automata: alphabet exceeds the 128-signal interner")

// SetMask is the bitset encoding of a SignalSet under an Interner: bit i
// (word i/64, bit i%64) is set iff the i-th alphabet signal in canonical
// sorted order is a member. Masks are comparable with ==.
type SetMask struct{ lo, hi uint64 }

func (m SetMask) or(o SetMask) SetMask  { return SetMask{m.lo | o.lo, m.hi | o.hi} }
func (m SetMask) and(o SetMask) SetMask { return SetMask{m.lo & o.lo, m.hi & o.hi} }
func (m SetMask) count() int            { return bits.OnesCount64(m.lo) + bits.OnesCount64(m.hi) }

// withBit returns m with bit i set.
func (m SetMask) withBit(i int) SetMask {
	if i < 64 {
		m.lo |= 1 << uint(i)
	} else {
		m.hi |= 1 << uint(i-64)
	}
	return m
}

// InternKey identifies an Interaction under an Interner: the input and
// output set masks. Distinct interactions have distinct keys, so InternKey
// is a valid (and allocation-free) map key.
type InternKey struct {
	In, Out SetMask
}

// Interner maps signals of one fixed alphabet to bit positions, and caches
// the canonical SignalSet / Interaction value for every mask it has seen,
// so decoding a mask back to the boundary types costs one map hit after
// first use. The alphabet half is shared (internAlphabet); the decode
// caches are the interner's own, allocated on its first decode.
type Interner struct {
	*internAlphabet
	sets   map[SetMask]SignalSet
	labels map[InternKey]Interaction
}

// internAlphabet is an interner's alphabet: the union of the alphabets it
// was built over in canonical (sorted) order, where index = bit, and each
// signal's bit. It is immutable, and every interner over the same tuple of
// alphabets shares one (sharedAlphabet).
type internAlphabet struct {
	signals []Signal
	index   map[Signal]int
}

// NewInterner builds an interner over the union of the given alphabets.
// It returns an error wrapping ErrAlphabetTooWide when the union exceeds
// 128 signals.
func NewInterner(alphabets ...SignalSet) (*Interner, error) {
	alpha, err := sharedAlphabet(alphabets)
	if err != nil {
		return nil, err
	}
	return &Interner{internAlphabet: alpha}, nil
}

// maxSharedAlphabets bounds the interner alphabets kept for reuse; past
// it the cache starts over. A process builds few distinct tuples, each
// many times: each perfbench workload 1 to 3 over 10^4 to 10^5
// interners, `experiments -all` 13 over 226. Full, the cache holds about
// 0.6 MB (64 tuples of 128 signals).
const maxSharedAlphabets = 64

// sharedAlphabets is the process's interner alphabets, each kept with the
// tuple it was built over. The alphabets are pure functions of their
// tuples, so sharing them changes no result.
var sharedAlphabets = hashedCache[alphabetEntry]{limit: maxSharedAlphabets}

type alphabetEntry struct {
	tuple []SignalSet
	alpha *internAlphabet
}

// sharedAlphabet returns the interner alphabet over the union of the
// tuple, building it when no interner was built over an equal tuple yet.
func sharedAlphabet(tuple []SignalSet) (*internAlphabet, error) {
	h := newFNV()
	hashSets(&h, tuple)
	e, err := sharedAlphabets.get(h.sum(),
		func(e alphabetEntry) bool { return slices.EqualFunc(e.tuple, tuple, SignalSet.Equal) },
		func() (alphabetEntry, error) {
			if err := CheckAlphabetWidth(tuple...); err != nil {
				return alphabetEntry{}, err
			}
			union := EmptySet
			for _, a := range tuple {
				union = union.Union(a)
			}
			alpha := &internAlphabet{signals: union.signals, index: make(map[Signal]int, union.Len())}
			for i, sig := range alpha.signals {
				alpha.index[sig] = i
			}
			return alphabetEntry{tuple: slices.Clone(tuple), alpha: alpha}, nil
		})
	return e.alpha, err
}

// hashedCache holds values bucketed by a hash of their keys and matched
// by exact equality of the keys, never by the hash alone. With a positive
// limit it starts over when it holds limit values. It is safe for
// concurrent use.
type hashedCache[V any] struct {
	limit   int
	mu      sync.Mutex
	buckets map[uint64][]V
	size    int
}

// get returns the value of bucket h that is accepts, or else the one build
// returns, kept for later gets. build runs unlocked; if a concurrent get
// kept an accepted value meanwhile, get returns that one instead.
func (c *hashedCache[V]) get(h uint64, is func(V) bool, build func() (V, error)) (V, error) {
	c.mu.Lock()
	v, ok := c.find(h, is)
	c.mu.Unlock()
	if ok {
		return v, nil
	}
	v, err := build()
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if won, ok := c.find(h, is); ok {
		return won, nil
	}
	if c.buckets == nil || (c.limit > 0 && c.size >= c.limit) {
		c.buckets, c.size = make(map[uint64][]V), 0
	}
	c.buckets[h] = append(c.buckets[h], v)
	c.size++
	return v, nil
}

// find returns the accepted value of bucket h. The caller holds the lock.
func (c *hashedCache[V]) find(h uint64, is func(V) bool) (V, bool) {
	for _, v := range c.buckets[h] {
		if is(v) {
			return v, true
		}
	}
	var zero V
	return zero, false
}

// CheckAlphabetWidth reports whether the union of the alphabets fits an
// Interner, without building one: nil, or the error NewInterner returns.
// It counts the union's signals by merging the sorted alphabets.
func CheckAlphabetWidth(alphabets ...SignalSet) error {
	n := 0
	for _, a := range alphabets {
		n += a.Len()
	}
	if n > MaxInternSignals {
		n = distinctSignals(alphabets)
	}
	if n > MaxInternSignals {
		return fmt.Errorf("%w: %d signals", ErrAlphabetTooWide, n)
	}
	return nil
}

// distinctSignals counts the signals of the union of the alphabets, by a
// merge of their sorted signals.
func distinctSignals(alphabets []SignalSet) int {
	var buf [8]int
	pos := buf[:0]
	for range alphabets {
		pos = append(pos, 0)
	}
	n := 0
	for {
		var least Signal
		found := false
		for i, a := range alphabets {
			if pos[i] < len(a.signals) && (!found || a.signals[pos[i]] < least) {
				least, found = a.signals[pos[i]], true
			}
		}
		if !found {
			return n
		}
		n++
		for i, a := range alphabets {
			if pos[i] < len(a.signals) && a.signals[pos[i]] == least {
				pos[i]++
			}
		}
	}
}

// Mask encodes the set as a bitset. The second result is false when the set
// contains a signal outside the interner's alphabet.
func (in *Interner) Mask(s SignalSet) (SetMask, bool) {
	var m SetMask
	for _, sig := range s.signals {
		i, ok := in.index[sig]
		if !ok {
			return SetMask{}, false
		}
		m = m.withBit(i)
	}
	return m, true
}

// Key encodes the interaction. The second result is false when a signal
// falls outside the interner's alphabet.
func (in *Interner) Key(x Interaction) (InternKey, bool) {
	a, ok := in.Mask(x.In)
	if !ok {
		return InternKey{}, false
	}
	b, ok := in.Mask(x.Out)
	if !ok {
		return InternKey{}, false
	}
	return InternKey{In: a, Out: b}, true
}

// Set decodes a mask into its canonical SignalSet. Decoded sets are cached,
// so repeated decodes of the same mask share one allocation.
func (in *Interner) Set(m SetMask) SignalSet {
	if s, ok := in.sets[m]; ok || m == (SetMask{}) {
		obsInternHits.Add(1)
		return s // the zero SignalSet for the empty mask
	}
	obsInternMisses.Add(1)
	signals := make([]Signal, 0, m.count())
	for w, word := range [2]uint64{m.lo, m.hi} {
		for rest := word; rest != 0; rest &= rest - 1 {
			signals = append(signals, in.signals[64*w+bits.TrailingZeros64(rest)])
		}
	}
	s := SignalSet{signals: signals}
	if in.sets == nil {
		in.sets = make(map[SetMask]SignalSet)
	}
	in.sets[m] = s
	return s
}

// Label decodes a key into its canonical Interaction, cached like Set.
func (in *Interner) Label(k InternKey) Interaction {
	if x, ok := in.labels[k]; ok {
		obsInternHits.Add(1)
		return x
	}
	obsInternMisses.Add(1)
	x := Interaction{In: in.Set(k.In), Out: in.Set(k.Out)}
	if in.labels == nil {
		in.labels = make(map[InternKey]Interaction)
	}
	in.labels[k] = x
	return x
}

// internLabels encodes the labels in order. Labels come from a universe
// compiled over alphabets the interner covers, so a foreign signal means
// the universe broke its contract (Enumerate must stay within the given
// alphabets) and is reported as an error.
func (in *Interner) internLabels(labels []Interaction) ([]InternKey, error) {
	keys := make([]InternKey, len(labels))
	for i, x := range labels {
		k, ok := in.Key(x)
		if !ok {
			return nil, fmt.Errorf("automata: universe interaction %v outside the alphabet", x)
		}
		keys[i] = k
	}
	return keys, nil
}

// keyTranslation re-encodes keys of one interner under another whose
// alphabet contains the first's: bit i of a source mask is bit t[i] of the
// target mask. The table has at most MaxInternSignals entries, so a key
// costs a few bit operations instead of a map lookup per signal.
type keyTranslation []uint8

// translation returns the table from an alphabet in canonical order (an
// interner's signals) to this interner's bits.
func (in *Interner) translation(signals []Signal) (keyTranslation, error) {
	t := make(keyTranslation, len(signals))
	for i, sig := range signals {
		j, ok := in.index[sig]
		if !ok {
			return nil, fmt.Errorf("automata: signal %q outside the interner's alphabet", sig)
		}
		t[i] = uint8(j)
	}
	return t, nil
}

func (t keyTranslation) mask(m SetMask) SetMask {
	var out SetMask
	for w, word := range [2]uint64{m.lo, m.hi} {
		for rest := word; rest != 0; rest &= rest - 1 {
			out = out.withBit(int(t[64*w+bits.TrailingZeros64(rest)]))
		}
	}
	return out
}

func (t keyTranslation) key(k InternKey) InternKey {
	return InternKey{In: t.mask(k.In), Out: t.mask(k.Out)}
}

// maskedTransition is a transition with its label pre-encoded, so BFS inner
// loops compare and combine labels with word operations only.
type maskedTransition struct {
	in, out SetMask
	to      StateID
}

// maskAdjacency encodes the automaton's adjacency lists under the interner.
// The per-state transition order of the result matches TransitionsFrom
// exactly, so BFS constructions over it reproduce adjacency order. A label
// outside the interner's alphabet — which AddTransition, the construction
// builders and UnmarshalMemo all rule out — is reported as an error.
func maskAdjacency(a *Automaton, in *Interner) ([][]maskedTransition, error) {
	adj := make([][]maskedTransition, len(a.adj))
	for s := range a.adj {
		row, err := maskRow(a, StateID(s), in)
		if err != nil {
			return nil, err
		}
		adj[s] = row
	}
	return adj, nil
}

// maskRow is maskAdjacency for the one state s. The row is never nil.
func maskRow(a *Automaton, s StateID, in *Interner) ([]maskedTransition, error) {
	row := make([]maskedTransition, len(a.adj[s]))
	for i, t := range a.adj[s] {
		k, ok := in.Key(t.Label)
		if !ok {
			return nil, fmt.Errorf("automata: %q: label %v outside the alphabet", a.name, t.Label)
		}
		row[i] = maskedTransition{in: k.In, out: k.Out, to: t.To}
	}
	return row, nil
}
