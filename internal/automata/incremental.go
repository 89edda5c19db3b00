package automata

import (
	"context"
	"errors"
	"fmt"
	"sort"
)

// This file implements the incremental synthesis system: the chaotic
// closure chaos(M_l) and the product M_a^c ‖ chaos(M_l) maintained across
// learn steps by *patching* instead of rebuilding.
//
// The synthesis loop only ever grows the learned model — Learn adds
// states, transitions, and refusals, and never removes or retargets
// anything (learned initial states are fixed after the first state, and
// labels are assigned at state creation). Consequently the closure changes
// in a delta-local way:
//
//   - a new model state s adds the two copies (s,0) and (s,1);
//   - a new transition or refusal at model state f changes only the
//     adjacency of (f,0) and (f,1): the learned prefix grows, and chaos
//     edges for now-known interactions disappear from (f,1);
//   - the embedded chaos states s_∀, s_δ never change.
//
// The product is patched by recomputing, wholesale, the adjacency of every
// product pair whose closure part changed, discovering (and recursively
// processing) pairs that become newly reachable. Pairs that lose their last
// incoming edge become garbage: they are kept (CTL satisfaction at a state
// depends only on the states reachable *from* it, and verdicts and
// counterexamples are computed from initial states only, so stale
// unreachable states are invisible) and their adjacency stays current
// because every pair with a changed closure part is recomputed whether
// reachable or not. When garbage accumulates past a threshold the system
// is rebuilt from scratch.
//
// Invariant (checked by Verify and the differential tests): after every
// Apply, the reachable part of the patched closure and product is
// label-, name-, and adjacency-order-identical to a from-scratch
// ChaoticClosure / Compose, so synthesis trajectories — which depend on
// BFS tie-breaking over adjacency order — are unchanged.

// ErrIncrementalUnsupported is returned by NewIncrementalSystem when the
// combined alphabet exceeds the interner width; callers fall back to
// from-scratch construction.
var ErrIncrementalUnsupported = errors.New("automata: incremental system requires an internable alphabet (≤64 signals)")

// IncrementalSystem carries the chaotic closure of a learned model and its
// composition with a fixed context automaton across learn steps.
type IncrementalSystem struct {
	context  *Automaton
	model    *Incomplete
	universe *CompiledUniverse

	// runCtx, when non-nil, bounds every construction the system performs
	// (initial build, rebuilds, patches): BFS loops poll it and abort with
	// its error. memo, when non-nil, memoizes closure rebuilds across
	// instances.
	runCtx context.Context
	memo   *MemoCache

	in        *Interner
	labelKeys []InternKey // the universe labels, interned in enumeration order

	closure      *Automaton
	closed, open []StateID // model state -> closure copy IDs
	sAll, sDelta StateID

	ctxMask          [][]maskedTransition
	closMask         [][]maskedTransition
	ctxOut, closOut  SetMask
	numModelInitials int

	product   *Automaton
	pairs     [][2]StateID // product id -> (context state, closure state)
	pairID    map[[2]StateID]StateID
	byClosure [][]StateID // closure state -> product ids with that closure part
	reachable int         // reachable product states after the last build/patch

	patches, rebuilds int
	// lastPatched / lastReason record how the most recent Apply (or the
	// initial construction) obtained the system, for observability.
	lastPatched bool
	lastReason  string
}

// NewIncrementalSystem builds the closure and product from scratch and
// prepares the patching indexes. The context must be composable with the
// model's closure (same requirements as Compose). Returns
// ErrIncrementalUnsupported when the combined alphabet cannot be interned.
func NewIncrementalSystem(context *Automaton, model *Incomplete, universe InteractionUniverse) (*IncrementalSystem, error) {
	return NewIncrementalSystemWith(nil, context, model, CompileUniverse(universe, model.auto.inputs, model.auto.outputs), nil)
}

// NewIncrementalSystemWith is NewIncrementalSystem under a context and an
// optional memoization cache, over a universe compiled for the model's
// alphabets. The context (when non-nil) bounds the initial build and every
// later Apply; the cache memoizes closure rebuilds, which across a batch of
// instances sharing an initial model turns all but the first iteration-0
// closure into a clone.
func NewIncrementalSystemWith(ctx context.Context, ctxAuto *Automaton, model *Incomplete, universe *CompiledUniverse, memo *MemoCache) (*IncrementalSystem, error) {
	src := model.Automaton()
	if !ctxAuto.inputs.Disjoint(src.inputs) || !ctxAuto.outputs.Disjoint(src.outputs) {
		return nil, fmt.Errorf("automata: incremental system: context and model alphabets must be composable")
	}
	if err := universe.checkAlphabets(src); err != nil {
		return nil, err
	}
	in, ok := NewInterner(ctxAuto.inputs, ctxAuto.outputs, src.inputs, src.outputs)
	if !ok {
		return nil, ErrIncrementalUnsupported
	}
	if ctx == context.Background() || ctx == context.TODO() {
		ctx = nil
	}
	ic := &IncrementalSystem{
		context:  ctxAuto,
		model:    model,
		universe: universe,
		runCtx:   ctx,
		memo:     memo,
		in:       in,
	}
	ic.labelKeys = make([]InternKey, len(universe.labels))
	for i, x := range universe.labels {
		k, ok := in.Key(x)
		if !ok {
			return nil, ErrIncrementalUnsupported
		}
		ic.labelKeys[i] = k
	}
	ic.ctxMask, ok = maskAdjacency(ctxAuto, in)
	if !ok {
		return nil, ErrIncrementalUnsupported
	}
	ic.ctxOut, _ = in.Mask(ctxAuto.outputs)
	ic.closOut, _ = in.Mask(src.outputs)
	ic.lastReason = "initial-build"
	if err := ic.rebuild(); err != nil {
		return nil, err
	}
	return ic, nil
}

// LastDecision reports how the most recent Apply (or the initial
// construction) produced the system: whether it was patched in place, and
// the reason — "delta-patch" or "empty-delta" for patches; for rebuilds
// "initial-build", "initial-states-changed", "delta-state-mismatch",
// "non-dense-state-ids", or "garbage-threshold" (why patching was not
// possible).
func (ic *IncrementalSystem) LastDecision() (patched bool, reason string) {
	return ic.lastPatched, ic.lastReason
}

// System returns the maintained product automaton. It is mutated in place
// by Apply; callers must treat it as read-only and must not retain
// adjacency slices across Apply calls.
func (ic *IncrementalSystem) System() *Automaton { return ic.product }

// Closure returns the maintained chaotic closure (same caveats as System).
func (ic *IncrementalSystem) Closure() *Automaton { return ic.closure }

// ReachableStates returns the number of product states reachable from the
// initial states — the size a from-scratch composition would have.
func (ic *IncrementalSystem) ReachableStates() int { return ic.reachable }

// Counts returns how many Apply calls were served by patching and how many
// fell back to a full rebuild (the initial construction counts as one
// rebuild).
func (ic *IncrementalSystem) Counts() (patches, rebuilds int) {
	return ic.patches, ic.rebuilds
}

// rebuild constructs closure and product from scratch and reindexes.
func (ic *IncrementalSystem) rebuild() error {
	src := ic.model.Automaton()
	ctx := ic.runCtx
	if ctx == nil {
		ctx = context.Background()
	}
	closure, err := ChaoticClosureCtx(ctx, ic.model, ic.universe, ic.memo)
	if err != nil {
		return err
	}
	ic.closure = closure
	ic.closed = make([]StateID, src.NumStates())
	ic.open = make([]StateID, src.NumStates())
	for id, st := range src.states {
		ic.closed[id] = ic.closure.State(st.name + ChaosClosedSuffix)
		ic.open[id] = ic.closure.State(st.name + ChaosOpenSuffix)
		if ic.closed[id] == NoState || ic.open[id] == NoState {
			return fmt.Errorf("automata: incremental system: closure copy of %q not found", st.name)
		}
	}
	ic.sAll = ic.closure.State(ChaosAllState)
	ic.sDelta = ic.closure.State(ChaosDeltaState)
	ic.numModelInitials = len(src.initial)

	var ok bool
	ic.closMask, ok = maskAdjacency(ic.closure, ic.in)
	if !ok {
		return ErrIncrementalUnsupported
	}

	// Product BFS, replicating Compose's interned fast path while
	// recording the (context, closure) pair of every product state.
	ic.product = New("system", ic.context.inputs.Union(ic.closure.inputs),
		ic.context.outputs.Union(ic.closure.outputs))
	ic.product.leaves = append(append([]leafInfo(nil), ic.context.leaves...), ic.closure.leaves...)
	ic.pairs = ic.pairs[:0]
	ic.pairID = make(map[[2]StateID]StateID)
	ic.byClosure = make([][]StateID, ic.closure.NumStates())

	var queue []StateID
	for _, ql := range ic.context.initial {
		for _, qr := range ic.closure.initial {
			id, created := ic.pairFor(ql, qr)
			ic.product.MarkInitial(id)
			if created {
				queue = append(queue, id)
			}
		}
	}
	seen := make(map[pairDupKey]struct{})
	p := newCtxPoll(ic.runCtx)
	for head := 0; head < len(queue); head++ {
		if p.stop() {
			return p.err
		}
		queue = ic.computePairAdjacency(queue[head], queue, seen)
	}
	ic.reachable = ic.product.NumStates()
	ic.rebuilds++
	ic.lastPatched = false
	obsProductRebuilds.Add(1)
	return nil
}

// pairDupKey dedupes product transitions per source pair (keep-first, like
// AddTransition).
type pairDupKey struct {
	k  InternKey
	to StateID
}

// pairFor returns the product state for (c, z), creating it if absent.
func (ic *IncrementalSystem) pairFor(c, z StateID) (StateID, bool) {
	key := [2]StateID{c, z}
	if id, ok := ic.pairID[key]; ok {
		return id, false
	}
	id := addComposedPairState(ic.product, ic.context, ic.closure, c, z)
	ic.pairID[key] = id
	ic.pairs = append(ic.pairs, key)
	ic.byClosure[z] = append(ic.byClosure[z], id)
	return id, true
}

// computePairAdjacency recomputes the full adjacency of one product pair
// from the current context and closure adjacency, enqueueing pairs created
// along the way onto queue (returned possibly grown). The construction is
// the same double loop as Compose's fast path, so per-state transition
// order matches a from-scratch composition exactly.
func (ic *IncrementalSystem) computePairAdjacency(pid StateID, queue []StateID, seen map[pairDupKey]struct{}) []StateID {
	c, z := ic.pairs[pid][0], ic.pairs[pid][1]
	adj := ic.product.adj[pid][:0]
	clear(seen)
	for _, tl := range ic.ctxMask[c] {
		for _, tr := range ic.closMask[z] {
			if tl.in&ic.closOut != tr.out {
				continue
			}
			if tr.in&ic.ctxOut != tl.out {
				continue
			}
			k := InternKey{In: tl.in | tr.in, Out: tl.out | tr.out}
			to, created := ic.pairFor(tl.to, tr.to)
			if created {
				queue = append(queue, to)
			}
			dk := pairDupKey{k: k, to: to}
			if _, dup := seen[dk]; dup {
				continue
			}
			seen[dk] = struct{}{}
			adj = append(adj, Transition{From: pid, Label: ic.in.Label(k), To: to})
		}
	}
	ic.product.adj[pid] = adj
	return queue
}

// garbageRebuildSlack bounds retraction garbage: a from-scratch rebuild
// triggers when the product holds more than 2× its reachable size plus
// this slack in unreachable states.
const garbageRebuildSlack = 512

// Apply incorporates a learn delta into the closure and product. It
// returns true when the system was patched in place and false when the
// delta forced a from-scratch rebuild (the result is equivalent either
// way). The delta must describe exactly the model mutations since the
// previous Apply (or since construction).
func (ic *IncrementalSystem) Apply(delta LearnDelta) (bool, error) {
	if delta.Empty() {
		ic.lastPatched = true
		ic.lastReason = "empty-delta"
		return true, nil
	}
	src := ic.model.Automaton()
	// Patching relies on the loop's growth-only discipline; anything else
	// (initial-state changes, non-dense state additions, oversized garbage)
	// falls back to a rebuild. The named reason is surfaced via
	// LastDecision for the journal's product_rebuilt events.
	var rebuildReason string
	switch {
	case delta.Settled != 0:
		// Settled labels change which chaos escapes exist without adding
		// transitions; the patcher has no retraction for that. (The nondet
		// loop never builds an IncrementalSystem — this is a guard.)
		rebuildReason = "settled-labels"
	case len(src.initial) != ic.numModelInitials:
		rebuildReason = "initial-states-changed"
	case len(ic.closed)+len(delta.NewStates) != src.NumStates():
		rebuildReason = "delta-state-mismatch"
	case len(ic.pairs) > 2*ic.reachable+garbageRebuildSlack:
		rebuildReason = "garbage-threshold"
	default:
		for i, s := range delta.NewStates {
			if int(s) != len(ic.closed)+i {
				rebuildReason = "non-dense-state-ids"
				break
			}
		}
	}
	if rebuildReason != "" {
		ic.lastReason = rebuildReason
		err := ic.rebuild()
		return false, err
	}

	// 1. Closure copies for new model states. A from-scratch closure
	// orders them before s_∀/s_δ; appending changes only the internal IDs,
	// which no consumer depends on (names and adjacency order are what
	// determine trajectories).
	for _, s := range delta.NewStates {
		st := src.states[s]
		c0 := ic.closure.MustAddState(st.name+ChaosClosedSuffix, st.labels...)
		ic.closure.states[c0].parts = []string{st.name}
		c1 := ic.closure.MustAddState(st.name+ChaosOpenSuffix, st.labels...)
		ic.closure.states[c1].parts = []string{st.name}
		ic.closed = append(ic.closed, c0)
		ic.open = append(ic.open, c1)
		ic.closMask = append(ic.closMask, nil, nil)
		ic.byClosure = append(ic.byClosure, nil, nil)
	}

	// 2. Model states whose closure adjacency changed.
	changed := make(map[StateID]struct{})
	for _, s := range delta.NewStates {
		changed[s] = struct{}{}
	}
	for _, t := range delta.NewTransitions {
		changed[t.From] = struct{}{}
	}
	for _, b := range delta.NewBlocked {
		changed[b.State] = struct{}{}
	}
	order := make([]StateID, 0, len(changed))
	for s := range changed {
		order = append(order, s)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	// 3. Recompute the closure adjacency of both copies of every changed
	// state, following ChaoticClosure's emission order exactly: the learned
	// prefix in model adjacency order, then (open copy only) chaos edges
	// for still-unknown interactions in universe order.
	known := make(map[InternKey]struct{})
	for _, f := range order {
		if err := ic.recomputeClosureState(f, known); err != nil {
			return false, err
		}
	}

	// 4. Recompute every product pair whose closure part changed, in
	// product ID order; newly discovered pairs are processed FIFO with the
	// same procedure, mirroring the from-scratch BFS.
	var affected []StateID
	for _, f := range order {
		affected = append(affected, ic.byClosure[ic.closed[f]]...)
		affected = append(affected, ic.byClosure[ic.open[f]]...)
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	seen := make(map[pairDupKey]struct{})
	p := newCtxPoll(ic.runCtx)
	var queue []StateID
	var prev StateID = NoState
	for _, pid := range affected {
		if p.stop() {
			// The product is partially patched and unusable; the caller
			// aborts the whole run on a context error.
			return false, p.err
		}
		if pid == prev { // byClosure lists are disjoint per closure state, but be safe
			continue
		}
		prev = pid
		queue = ic.computePairAdjacency(pid, queue, seen)
	}
	for head := 0; head < len(queue); head++ {
		if p.stop() {
			return false, p.err
		}
		queue = ic.computePairAdjacency(queue[head], queue, seen)
	}

	// The closure and product adjacencies were rewritten in place above,
	// bypassing AddTransition; drop their cached CSR/flat snapshots.
	ic.closure.invalidateDerived()
	ic.product.invalidateDerived()

	ic.reachable = countReachable(ic.product)
	ic.patches++
	ic.lastPatched = true
	ic.lastReason = "delta-patch"
	obsProductPatches.Add(1)
	return true, nil
}

// recomputeClosureState rewrites the adjacency of (f,0) and (f,1) from the
// model's current state, and refreshes the masked rows.
func (ic *IncrementalSystem) recomputeClosureState(f StateID, known map[InternKey]struct{}) error {
	src := ic.model.Automaton()
	c0, c1 := ic.closed[f], ic.open[f]

	closedAdj := ic.closure.adj[c0][:0]
	openAdj := ic.closure.adj[c1][:0]
	clear(known)
	for _, t := range src.adj[f] {
		k, ok := ic.in.Key(t.Label)
		if !ok {
			return ErrIncrementalUnsupported
		}
		known[k] = struct{}{}
		closedAdj = append(closedAdj,
			Transition{From: c0, Label: t.Label, To: ic.closed[t.To]},
			Transition{From: c0, Label: t.Label, To: ic.open[t.To]})
		openAdj = append(openAdj,
			Transition{From: c1, Label: t.Label, To: ic.closed[t.To]},
			Transition{From: c1, Label: t.Label, To: ic.open[t.To]})
	}
	for _, b := range ic.model.blocked[f] {
		k, ok := ic.in.Key(b)
		if !ok {
			return ErrIncrementalUnsupported
		}
		known[k] = struct{}{}
	}
	for i, x := range ic.universe.labels {
		if _, ok := known[ic.labelKeys[i]]; ok {
			continue
		}
		openAdj = append(openAdj,
			Transition{From: c1, Label: x, To: ic.sAll},
			Transition{From: c1, Label: x, To: ic.sDelta})
	}
	ic.closure.adj[c0] = closedAdj
	ic.closure.adj[c1] = openAdj

	for _, z := range [2]StateID{c0, c1} {
		row := make([]maskedTransition, len(ic.closure.adj[z]))
		for i, t := range ic.closure.adj[z] {
			k, ok := ic.in.Key(t.Label)
			if !ok {
				return ErrIncrementalUnsupported
			}
			row[i] = maskedTransition{in: k.In, out: k.Out, to: t.To}
		}
		ic.closMask[z] = row
	}
	return nil
}

// countReachable returns the number of states reachable from the initial
// states.
func countReachable(a *Automaton) int {
	reached := a.Reachable()
	n := 0
	for _, r := range reached {
		if r {
			n++
		}
	}
	return n
}

// Verify checks the patch invariant: the maintained closure and product
// must be reachable-equivalent to a from-scratch rebuild. Intended for
// differential tests and the synthesis loop's CheckIncremental mode.
func (ic *IncrementalSystem) Verify() error {
	closure, err := ChaoticClosureCtx(context.Background(), ic.model, ic.universe, nil)
	if err != nil {
		return fmt.Errorf("automata: verify rebuild: %w", err)
	}
	if got, want := ic.closure.NumStates(), closure.NumStates(); got != want {
		return fmt.Errorf("automata: incremental closure has %d states, rebuild has %d", got, want)
	}
	if err := EquivalentReachable(ic.closure, closure); err != nil {
		return fmt.Errorf("automata: incremental closure diverged from rebuild: %w", err)
	}
	sys, err := Compose(ic.product.name, ic.context, closure)
	if err != nil {
		return fmt.Errorf("automata: verify rebuild: %w", err)
	}
	if got, want := ic.reachable, sys.NumStates(); got != want {
		return fmt.Errorf("automata: incremental product has %d reachable states, rebuild has %d", got, want)
	}
	if err := EquivalentReachable(ic.product, sys); err != nil {
		return fmt.Errorf("automata: incremental product diverged from rebuild: %w", err)
	}
	return nil
}

// EquivalentReachable checks that the reachable parts of two automata are
// identical in every respect that analysis can observe: state names,
// labels, provenance parts, initial order, and per-state adjacency as an
// ordered sequence of (label, target) — i.e. an order-preserving
// isomorphism keyed by the initial states. Unreachable states (e.g.
// retraction garbage in a patched product) are ignored.
func EquivalentReachable(got, want *Automaton) error {
	if !got.inputs.Equal(want.inputs) || !got.outputs.Equal(want.outputs) {
		return fmt.Errorf("alphabets differ: (%v,%v) vs (%v,%v)", got.inputs, got.outputs, want.inputs, want.outputs)
	}
	if len(got.initial) != len(want.initial) {
		return fmt.Errorf("initial state counts differ: %d vs %d", len(got.initial), len(want.initial))
	}
	// corr maps want-state -> got-state; inv guards injectivity.
	corr := make(map[StateID]StateID)
	inv := make(map[StateID]StateID)
	var queue [][2]StateID // (want, got)
	match := func(w, g StateID) error {
		if mapped, ok := corr[w]; ok {
			if mapped != g {
				return fmt.Errorf("state %q corresponds to both %q and %q",
					want.states[w].name, got.states[mapped].name, got.states[g].name)
			}
			return nil
		}
		if back, ok := inv[g]; ok && back != w {
			return fmt.Errorf("state %q matched twice (by %q and %q)",
				got.states[g].name, want.states[back].name, want.states[w].name)
		}
		ws, gs := want.states[w], got.states[g]
		if ws.name != gs.name {
			return fmt.Errorf("state name mismatch: %q vs %q", gs.name, ws.name)
		}
		if !labelsEqual(ws.labels, gs.labels) {
			return fmt.Errorf("state %q labels differ: %v vs %v", ws.name, gs.labels, ws.labels)
		}
		if len(ws.parts) != len(gs.parts) {
			return fmt.Errorf("state %q parts differ: %v vs %v", ws.name, gs.parts, ws.parts)
		}
		for i := range ws.parts {
			if ws.parts[i] != gs.parts[i] {
				return fmt.Errorf("state %q parts differ: %v vs %v", ws.name, gs.parts, ws.parts)
			}
		}
		corr[w] = g
		inv[g] = w
		queue = append(queue, [2]StateID{w, g})
		return nil
	}
	for i := range want.initial {
		if err := match(want.initial[i], got.initial[i]); err != nil {
			return fmt.Errorf("initial %d: %w", i, err)
		}
	}
	for head := 0; head < len(queue); head++ {
		w, g := queue[head][0], queue[head][1]
		wa, ga := want.adj[w], got.adj[g]
		if len(wa) != len(ga) {
			return fmt.Errorf("state %q: %d vs %d outgoing transitions",
				want.states[w].name, len(ga), len(wa))
		}
		for i := range wa {
			if !wa[i].Label.Equal(ga[i].Label) {
				return fmt.Errorf("state %q transition %d: label %s vs %s",
					want.states[w].name, i, ga[i].Label, wa[i].Label)
			}
			if err := match(wa[i].To, ga[i].To); err != nil {
				return fmt.Errorf("state %q transition %d: %w", want.states[w].name, i, err)
			}
		}
	}
	return nil
}
