package automata

import "context"

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
// observation conforming (Theorem 1).
//
// State copies (s,0) and (s,1) keep the labels of s; the embedded chaos
// states s_all and s_delta are labeled with the chaos proposition χ only
// (see ChaosProposition for how formulas are weakened accordingly).
func ChaoticClosure(m *Incomplete, universe InteractionUniverse) *Automaton {
	c, err := ChaoticClosureCtx(context.Background(), m, CompileUniverse(universe, m.auto.inputs, m.auto.outputs), nil)
	if err != nil {
		// Unreachable: a background context never cancels, and the
		// universe is compiled over the model's alphabets.
		panic(err)
	}
	return c
}

// ChaoticClosureCtx is ChaoticClosure under a context and an optional
// memoization cache, over a universe compiled for the model's alphabets.
// Construction polls the context between states and aborts with its error
// once it is done. When a cache is given, the model is fingerprinted and,
// with the universe's fingerprint, keys the cache: an identical prior
// closure is answered with a private clone of the cached result. Both
// features are zero-cost when disabled (background context, nil cache).
func ChaoticClosureCtx(ctx context.Context, m *Incomplete, universe *CompiledUniverse, memo *MemoCache) (*Automaton, error) {
	if err := universe.checkAlphabets(m.auto); err != nil {
		return nil, err
	}
	var fpM uint64
	if memo != nil {
		fpM = m.Fingerprint()
		if hit, ok := memo.lookup(memoClosure, fpM, universe.fingerprint, m.auto.name); ok {
			return hit, nil
		}
	}
	c, err := chaoticClosure(m, universe.labels, newCtxPoll(ctx), false)
	if err != nil {
		return nil, err
	}
	memo.store(memoClosure, fpM, universe.fingerprint, c)
	return c, nil
}

// ChaoticClosureNondetCtx builds the closure variant that stays a safe
// abstraction of a *nondeterministic* implementation. The deterministic
// construction suppresses chaos escapes on learned labels, which rests on
// the assumption that one learned transition is the whole behaviour of its
// label; with duplicate successors under an identical label that assumption
// fails — learning one successor of (s, A, B) would hide its unlearned
// siblings and the closure would under-approximate. Here a learned label
// keeps its chaos escapes from the open copy until the loop certifies its
// successor set complete via Incomplete.SettleLabel (the fair-visit budget
// of the nondeterministic test path). Blocked labels suppress escapes as
// before. Results are not memoized: nondet models are rebuilt from scratch
// every iteration anyway.
func ChaoticClosureNondetCtx(ctx context.Context, m *Incomplete, universe *CompiledUniverse) (*Automaton, error) {
	if err := universe.checkAlphabets(m.auto); err != nil {
		return nil, err
	}
	return chaoticClosure(m, universe.labels, newCtxPoll(ctx), true)
}

// chaoticClosure is the construction shared by ChaoticClosureCtx and
// ChaoticClosureNondetCtx over the universe's labels in enumeration order;
// a stopped poller aborts it with the context's error. With nondet set, a
// learned label counts as known (escape-suppressing) only once it is
// settled.
func chaoticClosure(m *Incomplete, labels []Interaction, p *ctxPoll, nondet bool) (*Automaton, error) {
	obsClosureBuilds.Add(1)
	src := m.auto
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
	// implement the evident intent.
	//
	// Known (learned or blocked) labels are collected per state into an
	// interned key set, so the per-label membership test is a single map
	// hit instead of a Successors scan plus a string-key allocation.
	emitChaos := func(s StateID, unknown func(i int) bool) {
		for i, x := range labels {
			if !unknown(i) {
				continue
			}
			appendTransitions(c, open[s],
				Transition{Label: x, To: sAll},
				Transition{Label: x, To: sDelta})
		}
	}
	if in, ok := NewInterner(src.inputs, src.outputs); ok {
		keys := make([]InternKey, len(labels))
		for i, x := range labels {
			keys[i], _ = in.Key(x)
		}
		known := make(map[InternKey]struct{})
		for id := range src.states {
			if p.stop() {
				return nil, p.err
			}
			s := StateID(id)
			clear(known)
			for _, t := range src.adj[s] {
				if nondet && !m.IsSettled(s, t.Label) {
					continue
				}
				k, _ := in.Key(t.Label)
				known[k] = struct{}{}
			}
			for _, x := range m.blocked[s] {
				k, _ := in.Key(x)
				known[k] = struct{}{}
			}
			emitChaos(s, func(i int) bool {
				_, ok := known[keys[i]]
				return !ok
			})
		}
	} else {
		keys := make([]string, len(labels))
		for i, x := range labels {
			keys[i] = x.Key()
		}
		known := make(map[string]struct{})
		for id := range src.states {
			if p.stop() {
				return nil, p.err
			}
			s := StateID(id)
			clear(known)
			for _, t := range src.adj[s] {
				if nondet && !m.IsSettled(s, t.Label) {
					continue
				}
				known[t.Label.Key()] = struct{}{}
			}
			for k := range m.blocked[s] {
				known[k] = struct{}{}
			}
			emitChaos(s, func(i int) bool {
				_, ok := known[keys[i]]
				return !ok
			})
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
// ChaoticClosure).
func ChaoticClosureLiteral(m *Incomplete, universe InteractionUniverse) *Automaton {
	src := m.auto
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
	labels := universe.Enumerate(src.inputs, src.outputs)
	for _, t := range src.TransitionsSnapshot() {
		c.MustAddTransition(closed[t.From], t.Label, closed[t.To])
		c.MustAddTransition(closed[t.From], t.Label, open[t.To])
		c.MustAddTransition(open[t.From], t.Label, closed[t.To])
		c.MustAddTransition(open[t.From], t.Label, open[t.To])
	}
	for id := range src.states {
		s := StateID(id)
		for _, x := range labels {
			if m.IsBlocked(s, x) {
				continue
			}
			c.MustAddTransition(open[s], x, sAll)
			c.MustAddTransition(open[s], x, sDelta)
		}
	}
	for _, x := range labels {
		c.MustAddTransition(sAll, x, sAll)
		c.MustAddTransition(sAll, x, sDelta)
	}
	for _, q := range src.initial {
		c.MarkInitial(closed[q])
		c.MarkInitial(open[q])
	}
	return c
}

// IsChaosState reports whether the composed or plain state involves a
// chaotic state (s_all or s_delta) of a chaotic closure. For composed
// automata every leaf part is inspected.
func IsChaosState(a *Automaton, s StateID) bool {
	for _, part := range a.states[s].parts {
		if part == ChaosAllState || part == ChaosDeltaState {
			return true
		}
	}
	return false
}
