package automata

// This file computes structural fingerprints of automata: 64-bit FNV-1a
// hashes over a canonical encoding of everything analysis can observe —
// name, alphabets, state names/labels/provenance, leaf decomposition,
// initial order, and per-state adjacency as an ordered (label, target)
// sequence. Two automata with equal fingerprints are, up to hash collision,
// interchangeable inputs for composition and closure construction, which is
// what makes them usable as memoization keys (see MemoCache): the
// constructions are deterministic functions of exactly the fingerprinted
// structure.

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv64 is an incremental FNV-1a hasher. Fields are length-prefixed (via
// sep markers) so that concatenation ambiguities cannot alias two distinct
// encodings.
type fnv64 uint64

func newFNV() fnv64 { return fnvOffset64 }

func (h *fnv64) byte(b byte) {
	*h = (*h ^ fnv64(b)) * fnvPrime64
}

func (h *fnv64) str(s string) {
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(0xFF) // field terminator; 0xFF never starts a UTF-8 rune in our keys
}

func (h *fnv64) u64(v uint64) {
	for i := 0; i < 8; i++ {
		h.byte(byte(v))
		v >>= 8
	}
}

func (h *fnv64) sum() uint64 { return uint64(*h) }

// Fingerprint returns a structural hash of the automaton covering name,
// alphabets, leaf decomposition, states (names, labels, provenance parts),
// initial states in order, and adjacency in order. It is stable across
// processes (no map iteration feeds the hash) and changes whenever any
// observable aspect of the automaton changes. A signal set is hashed as
// the bytes of its Key with a field terminator (setField), without
// building the key.
func (a *Automaton) Fingerprint() uint64 {
	a.materialize()
	h := newFNV()
	h.str(a.name)
	h.setField(a.inputs)
	h.setField(a.outputs)
	h.u64(uint64(len(a.leaves)))
	for _, l := range a.leaves {
		h.str(l.name)
		h.setField(l.inputs)
		h.setField(l.outputs)
	}
	h.u64(uint64(len(a.states)))
	for _, st := range a.states {
		h.str(st.name)
		h.u64(uint64(len(st.labels)))
		for _, p := range st.labels {
			h.str(string(p))
		}
		h.u64(uint64(len(st.parts)))
		for _, p := range st.parts {
			h.str(p)
		}
	}
	h.u64(uint64(len(a.initial)))
	for _, q := range a.initial {
		h.u64(uint64(q))
	}
	for _, row := range a.adj {
		h.u64(uint64(len(row)))
		for _, t := range row {
			h.setField(t.Label.In)
			h.setField(t.Label.Out)
			h.u64(uint64(t.To))
		}
	}
	return h.sum()
}

// Fingerprint returns a structural hash of the incomplete automaton: the
// underlying automaton's fingerprint extended with the blocked set T̄ and
// the settled-label set, each in canonical (state, interaction-key) order,
// and with the nondeterministic marker, which changes the closure rule. The
// marker is hashed only when set, so the fingerprints of deterministic
// models — and the memo store records keyed by them — stay as they were.
// The label index does not enter the hash: a model hashes the same bound
// to any universe or to none.
func (m *Incomplete) Fingerprint() uint64 {
	h := newFNV()
	h.u64(m.auto.Fingerprint())
	var labels []Interaction
	for _, part := range [2]struct {
		n    int
		rows [][]uint64
	}{{m.numBlocked, m.blocked}, {m.numSettled, m.settled}} {
		h.u64(uint64(part.n))
		for s, set := range part.rows {
			labels = m.appendSorted(labels[:0], set)
			if len(labels) == 0 {
				continue
			}
			h.u64(uint64(s))
			for _, x := range labels {
				h.label(x)
			}
		}
	}
	if m.nondet {
		h.str("nondet")
	}
	return h.sum()
}

// universeFingerprint hashes the interaction labels a universe enumerates
// over a component's alphabets, in enumeration order. Together with an
// Incomplete fingerprint it pins down a chaotic closure exactly (the
// closure is a deterministic function of the model and the enumerated
// labels), so it keys closures in the memo cache. Memo stores on disk are
// keyed by it too, so its encoding must not change.
func universeFingerprint(labels []Interaction) uint64 {
	h := newFNV()
	h.u64(uint64(len(labels)))
	for _, x := range labels {
		h.label(x)
	}
	return h.sum()
}

// label hashes h.str(x.Key()), without building the key.
func (h *fnv64) label(x Interaction) {
	h.set(x.In)
	h.byte('/')
	h.set(x.Out)
	h.byte(0xFF)
}

// setField hashes h.str(s.Key()), without building the key.
func (h *fnv64) setField(s SignalSet) {
	h.set(s)
	h.byte(0xFF)
}

// set hashes the bytes of s.Key() with no terminator.
func (h *fnv64) set(s SignalSet) {
	for i, sig := range s.signals {
		if i > 0 {
			h.byte(',')
		}
		for j := 0; j < len(sig); j++ {
			h.byte(sig[j])
		}
	}
}

// hashSets hashes a tuple of signal sets: its length, then each set as a
// field (setField).
func hashSets(h *fnv64, sets []SignalSet) {
	h.u64(uint64(len(sets)))
	for _, s := range sets {
		h.setField(s)
	}
}
