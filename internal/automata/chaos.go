package automata

import (
	"context"
	"fmt"
)

// This file implements the chaotic automaton (Definition 8) and the chaotic
// closure (Definition 9).
//
// The chaotic automaton M_c over alphabets (I, O) has two states: s_∀,
// which supports every interaction (looping or dropping to s_δ), and s_δ,
// which blocks every interaction. It is the ⊑-maximal behaviour: every
// automaton over (I, O) refines it.
//
// The chaotic closure chaos(M) of an incomplete automaton M doubles every
// state s into (s,0) and (s,1) and embeds the chaotic automaton:
//
//   - (s,0) carries only the learned transitions (to both copies of the
//     target) — it represents the hypothesis that no unlearned behaviour
//     exists, so unlearned interactions deadlock there;
//   - (s,1) additionally moves to s_∀ and s_δ on every interaction not
//     excluded by T̄ — it represents the hypothesis that arbitrary further
//     behaviour exists.
//
// Both copies of each initial state are initial. By Theorem 1, if M is
// observation conforming to a deterministic implementation M_r, then
// M_r ⊑ chaos(M).

// Conventional state names used by the chaotic construction, matching the
// paper's figures ("s_all" and "s_delta", Footnote 5).
const (
	ChaosAllState   = "s_all"
	ChaosDeltaState = "s_delta"
)

// ChaoticAutomaton builds M_c of Definition 8 over the given alphabets,
// with the interaction labels drawn from the given universe. Both s_∀ and
// s_δ are initial and carry the chaos proposition χ.
func ChaoticAutomaton(name string, inputs, outputs SignalSet, universe InteractionUniverse) *Automaton {
	a := New(name, inputs, outputs)
	sAll := a.MustAddState(ChaosAllState, ChaosProposition)
	sDelta := a.MustAddState(ChaosDeltaState, ChaosProposition)
	for _, x := range universe.Enumerate(inputs, outputs) {
		a.MustAddTransition(sAll, x, sAll)
		a.MustAddTransition(sAll, x, sDelta)
	}
	a.MarkInitial(sAll)
	a.MarkInitial(sDelta)
	return a
}

// ChaosSuffix distinguishes the two copies of each state in a chaotic
// closure: "(s,0)" becomes s+ChaosClosedSuffix, "(s,1)" becomes
// s+ChaosOpenSuffix.
const (
	ChaosClosedSuffix = "·0" // (s,0): no further extension assumed
	ChaosOpenSuffix   = "·1" // (s,1): arbitrary further extension assumed
)

// ChaoticClosure builds chaos(M) of Definition 9 for the incomplete
// automaton m, using the given interaction universe for the "all possible
// interactions" quantification. The result is an ordinary automaton that is
// a safe ⊑-abstraction of every deterministic implementation to which m is
// observation conforming (Theorem 1); for a model made by
// NewNondetIncomplete, of every implementation to which it is observation
// conforming and whose settled labels it has learned completely.
//
// State copies (s,0) and (s,1) keep the labels of s; the embedded chaos
// states s_all and s_delta are labeled with the chaos proposition χ only
// (see ChaosProposition for how formulas are weakened accordingly).
//
// Like MustCompose, it panics on error: a model alphabet over
// MaxInternSignals signals, or a universe enumerating labels outside it.
// ChaoticClosureCtx returns those errors instead.
func ChaoticClosure(m *Incomplete, universe InteractionUniverse) *Automaton {
	c, err := ChaoticClosureCtx(context.Background(), m, CompileUniverse(universe, m.auto.inputs, m.auto.outputs), nil)
	if err != nil {
		panic(err)
	}
	return c
}

// ChaoticClosureCtx is ChaoticClosure under a context and an optional
// memoization cache, over a universe compiled for the model's alphabets.
// Construction polls the context between states and aborts with its error
// once it is done. A model alphabet over MaxInternSignals signals is an
// error wrapping ErrAlphabetTooWide. When a cache is given, the model is
// fingerprinted and, with the universe's fingerprint, keys the cache: an
// identical prior closure is answered with a copy-on-write clone of the
// cached result, which shares its rows with the cache (see MemoCache). Both
// features are zero-cost when disabled (background context, nil cache).
func ChaoticClosureCtx(ctx context.Context, m *Incomplete, universe *CompiledUniverse, memo *MemoCache) (*Automaton, error) {
	if err := universe.checkAlphabets(m.auto); err != nil {
		return nil, err
	}
	var fpM, fpU uint64
	if memo != nil {
		fpM, fpU = m.Fingerprint(), universe.fingerprint()
		if hit, ok := memo.lookup(fpM, fpU, m.auto.name); ok {
			return hit, nil
		}
	}
	c, err := chaoticClosure(m, universe, newCtxPoll(ctx), false)
	if err != nil {
		return nil, err
	}
	memo.store(fpM, fpU, c)
	return c, nil
}

// chaoticClosure is the one closure construction, over the universe's
// labels in enumeration order; a stopped poller aborts it with the
// context's error. A label known at a state gets no chaos escape from its
// open copy: refused labels always, learned ones by the closure's rule
// (Incomplete.orKnown) unless literal selects Definition 9's literal
// reading.
func chaoticClosure(m *Incomplete, universe *CompiledUniverse, p *ctxPoll, literal bool) (*Automaton, error) {
	src := m.auto
	if err := CheckAlphabetWidth(src.inputs, src.outputs); err != nil {
		return nil, fmt.Errorf("automata: chaotic closure of %q: %w", src.name, err)
	}
	// The universe is compiled over the model's alphabets (checked by the
	// callers); interning its labels checks that they stay within them.
	if _, err := universe.internedKeys(); err != nil {
		return nil, err
	}
	labels := universe.labels
	obsClosureBuilds.Add(1)
	c := New(src.name, src.inputs, src.outputs)

	closed := make([]StateID, src.NumStates())
	open := make([]StateID, src.NumStates())
	for id, st := range src.states {
		closed[id] = c.MustAddState(st.name+ChaosClosedSuffix, st.labels...)
		c.states[closed[id]].parts = []string{st.name}
		open[id] = c.MustAddState(st.name+ChaosOpenSuffix, st.labels...)
		c.states[open[id]].parts = []string{st.name}
	}
	sAll := c.MustAddState(ChaosAllState, ChaosProposition)
	sDelta := c.MustAddState(ChaosDeltaState, ChaosProposition)

	// The construction below never emits a duplicate (from, label, to) —
	// src has no duplicate transitions and the universe enumerates each
	// interaction once — and every label is within the alphabets, so
	// transitions are appended directly, skipping AddTransition's
	// validation and linear duplicate scan (quadratic on the high-degree
	// chaos states).

	// Learned transitions go from both copies to both copies.
	for from, ts := range src.adj {
		if p.stop() {
			return nil, p.err
		}
		for _, t := range ts {
			appendTransitions(c, closed[from],
				Transition{Label: t.Label, To: closed[t.To]},
				Transition{Label: t.Label, To: open[t.To]})
			appendTransitions(c, open[from],
				Transition{Label: t.Label, To: closed[t.To]},
				Transition{Label: t.Label, To: open[t.To]})
		}
	}

	// Every *unknown* interaction (neither learned in T nor excluded by
	// T̄) leads from the open copy into chaos.
	//
	// Note on fidelity: the literal text of Definition 9 quantifies only
	// over (s,A,B) ∉ T̄, which would add chaos transitions even for
	// learned interactions. Under that reading s_δ stays reachable no
	// matter how much is learned, the check φ ∧ ¬δ of Section 4.1 could
	// never succeed, and the successful termination of the paper's own
	// example (Fig. 7, "we have indeed proven ...") would be impossible.
	// For a deterministic implementation the learned transition is the
	// only behaviour on a learned label (observation conformance +
	// determinism), so restricting chaos to unknown interactions keeps
	// Theorem 1 intact while making the fixpoint reachable. We therefore
	// implement the evident intent; ChaoticClosureLiteral keeps the literal
	// reading for the fidelity ablation.
	//
	// The labels known at a state are a bitset over the universe's indices,
	// so the per-label membership test is a bit test.
	known := make([]uint64, (len(labels)+63)/64)
	for id := range src.states {
		if p.stop() {
			return nil, p.err
		}
		s := StateID(id)
		clear(known)
		known = m.orKnown(known, s, universe, literal)
		for i, x := range labels {
			if hasBit(known, int32(i)) {
				continue
			}
			appendTransitions(c, open[s],
				Transition{Label: x, To: sAll},
				Transition{Label: x, To: sDelta})
		}
	}

	// The embedded chaotic automaton T_c.
	for _, x := range labels {
		appendTransitions(c, sAll,
			Transition{Label: x, To: sAll},
			Transition{Label: x, To: sDelta})
	}

	for _, q := range src.initial {
		c.MarkInitial(closed[q])
		c.MarkInitial(open[q])
	}
	return c, nil
}

// appendTransitions appends pre-validated transitions to a state's adjacency
// list, fixing up the From field. Callers guarantee labels are within the
// alphabets and no duplicates are produced.
func appendTransitions(c *Automaton, from StateID, ts ...Transition) {
	for _, t := range ts {
		t.From = from
		c.adj[from] = append(c.adj[from], t)
	}
}

// ChaoticClosureLiteral builds chaos(M) with the *literal* quantification
// of Definition 9: chaos transitions from the open copies for every
// interaction not in T̄, including already-learned ones. Provided only for
// the fidelity ablation: under this reading s_δ remains reachable no
// matter how much has been learned, so the check φ ∧ ¬δ of Section 4.1
// can never succeed once any behaviour exists (see the discussion in
// chaoticClosure). It panics on the errors ChaoticClosure panics on.
func ChaoticClosureLiteral(m *Incomplete, universe InteractionUniverse) *Automaton {
	c, err := chaoticClosure(m, CompileUniverse(universe, m.auto.inputs, m.auto.outputs), nil, true)
	if err != nil {
		panic(err)
	}
	return c
}

// IsChaosState reports whether the composed or plain state involves a
// chaotic state (s_all or s_delta) of a chaotic closure. For composed
// automata every leaf part is inspected, through the factors' states.
func IsChaosState(a *Automaton, s StateID) bool {
	if p := a.prod; p != nil {
		for i, f := range p.factors {
			if IsChaosState(f, p.state(s, i)) {
				return true
			}
		}
		return false
	}
	for _, part := range a.states[s].parts {
		if part == ChaosAllState || part == ChaosDeltaState {
			return true
		}
	}
	return false
}
