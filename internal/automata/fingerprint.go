package automata

import "sort"

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
// observable aspect of the automaton changes.
func (a *Automaton) Fingerprint() uint64 {
	a.materialize()
	h := newFNV()
	h.str(a.name)
	h.str(a.inputs.Key())
	h.str(a.outputs.Key())
	h.u64(uint64(len(a.leaves)))
	for _, l := range a.leaves {
		h.str(l.name)
		h.str(l.inputs.Key())
		h.str(l.outputs.Key())
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
			h.str(t.Label.In.Key())
			h.str(t.Label.Out.Key())
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
func (m *Incomplete) Fingerprint() uint64 {
	h := newFNV()
	h.u64(m.auto.Fingerprint())
	h.u64(uint64(m.NumBlocked()))
	for id := range m.auto.states {
		s := StateID(id)
		blocked := m.BlockedAt(s)
		if len(blocked) == 0 {
			continue
		}
		h.u64(uint64(s))
		for _, x := range blocked {
			h.str(x.Key())
		}
	}
	h.u64(uint64(m.NumSettled()))
	for id := range m.auto.states {
		set := m.settled[StateID(id)]
		if len(set) == 0 {
			continue
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		h.u64(uint64(id))
		for _, k := range keys {
			h.str(k)
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
		// h.str(x.Key()), without building the key.
		h.set(x.In)
		h.byte('/')
		h.set(x.Out)
		h.byte(0xFF)
	}
	return h.sum()
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
