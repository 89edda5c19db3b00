package automata

import (
	"context"
	"fmt"
	"slices"
)

// This file implements the incremental synthesis system: the chaotic
// closure chaos(M_l) and the product M_a^c ‖ chaos(M_l) maintained across
// learn steps by *patching* instead of rebuilding.
//
// The synthesis loop only ever grows the learned model — learning adds
// states, transitions (on a nondeterministic model, further branches of a
// learned label too), refusals, and settled labels, and never removes or
// retargets anything (learned initial states are fixed after the first
// state, and labels are assigned at state creation). Consequently the
// closure changes in a delta-local way:
//
//   - a new model state s adds the two copies (s,0) and (s,1);
//   - a new transition, refusal, or settled label at model state f changes
//     only the adjacency of (f,0) and (f,1): the learned prefix grows, and
//     chaos edges for now-known interactions disappear from (f,1);
//   - the embedded chaos states s_∀, s_δ never change.
//
// The closure is patched in its masked form, the one the product is built
// from, and a patch rewrites only learned prefixes and known-label bitsets
// (the chaos tails are the universe's); its transition rows follow only
// when the closure is read (Closure). The product is patched by
// recomputing, wholesale, the adjacency of every product pair whose
// closure part changed, discovering (and recursively processing) pairs
// that become newly reachable. Pairs that lose their last incoming edge
// become garbage: they are kept (CTL satisfaction at a state depends only
// on the states reachable *from* it, and verdicts and counterexamples are
// computed from initial states only, so stale unreachable states are
// invisible) and their adjacency stays current because every pair with a
// changed closure part is recomputed whether reachable or not. When
// garbage accumulates past a threshold the system is rebuilt from scratch.
//
// Invariant (checked by Verify and the differential tests): after every
// Apply, the reachable part of the patched closure and product is
// label-, name-, and adjacency-order-identical to a from-scratch
// ChaoticClosure / Compose, so synthesis trajectories — which depend on
// BFS tie-breaking over adjacency order — are unchanged.

// IncrementalSystem carries the chaotic closure of a learned model and its
// composition with a fixed context automaton across learn steps. Its
// closure rows never copy the universe (closureRow), and the product join
// reads their chaos tails through the universe's label layout for the
// context (labelLayout), so systems over a shared compiled universe pay
// for their learned states, not for the universe's labels.
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

	in     *Interner
	layout *labelLayout // the universe's labels under in, laid out for this context

	closure      *Automaton
	closed, open []StateID // model state -> closure copy IDs
	sAll, sDelta StateID
	// stale lists the closure states whose transition rows lag their
	// masked rows: a patch rewrites masked rows only, and Closure derives
	// the transitions from them when the closure is read.
	stale []StateID

	ctxMask          [][]maskedTransition
	rows             []closureRow // closure state -> its masked row
	ctxOut, closOut  SetMask
	numModelInitials int

	// product's state tuples are the (context state, closure state) pairs;
	// pairID indexes them. The pairs with closure part z form a chain:
	// lastPair[z] is the latest, and nextPair[p] the one created before p
	// (NoState ends it).
	product   *Automaton
	pairID    map[[2]StateID]StateID
	lastPair  []StateID
	nextPair  []StateID
	reachable int // reachable product states after the last build/patch

	// edges is computePairAdjacency's scratch row.
	edges []Transition

	// Worklists kept across Apply calls: the changed model states, the
	// product pairs to recompute, the BFS queue, and the reachability
	// marks.
	order    []StateID
	affected []StateID
	queue    []StateID
	reached  []bool

	// lastReason records how the most recent Apply (or the initial
	// construction) obtained the system (see LastDecision).
	lastReason string
}

// closureRow is the masked row of one closure state, in ChaoticClosure's
// emission order: the learned prefix (each learned transition toward both
// copies of its target) and, on an open copy and on s_∀, the chaos tail:
// every universe label whose index is not in known, in universe order,
// each toward s_∀ and then s_δ. The tail is never materialized; it is
// read through the layout, and known is nil when nothing is known. A
// closed copy has no tail, and s_δ has no row. Rows are never written in
// place, so the two copies of a state share their prefix.
type closureRow struct {
	prefix []maskedTransition
	tail   bool
	known  []uint64
}

// tailHas reports whether the row's chaos tail holds universe label i.
func (r *closureRow) tailHas(i int32) bool {
	return r.tail && (r.known == nil || r.known[i>>6]&(1<<(i&63)) == 0)
}

// NewIncrementalSystem builds the closure and product from scratch and
// prepares the patching indexes. The context must be composable with the
// model's closure, and their combined alphabet must fit an Interner (same
// requirements as Compose).
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
	in, err := NewInterner(ctxAuto.inputs, ctxAuto.outputs, src.inputs, src.outputs)
	if err != nil {
		return nil, fmt.Errorf("automata: incremental system: %w", err)
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
	if ic.ctxMask, err = maskAdjacency(ctxAuto, in); err != nil {
		return nil, err
	}
	ic.ctxOut, _ = in.Mask(ctxAuto.outputs)
	ic.closOut, _ = in.Mask(src.outputs)
	if ic.layout, err = universe.layout(in, ic.ctxOut); err != nil {
		return nil, fmt.Errorf("automata: incremental system: %w", err)
	}
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
	return ic.lastReason == "delta-patch" || ic.lastReason == "empty-delta", ic.lastReason
}

// System returns the maintained product automaton. It is mutated in place
// by Apply; callers must treat it as read-only and must not retain
// adjacency slices, or its CSR snapshot, across Apply calls.
func (ic *IncrementalSystem) System() *Automaton { return ic.product }

// Closure returns the maintained chaotic closure (same caveats as System).
// The product is built from the closure's masked rows, so the transition
// rows a patch changed are derived from those only here, when the
// closure is read: the result is the closure of the model as it was at
// the last Apply, however much the model has learned since.
func (ic *IncrementalSystem) Closure() *Automaton {
	if len(ic.stale) > 0 {
		slices.Sort(ic.stale)
		for _, z := range slices.Compact(ic.stale) {
			masked := ic.expandRow(z)
			row := make([]Transition, len(masked))
			for i, t := range masked {
				row[i] = Transition{From: z, Label: ic.in.Label(InternKey{In: t.in, Out: t.out}), To: t.to}
			}
			ic.closure.adj[z] = row
		}
		ic.stale = ic.stale[:0]
		ic.closure.invalidateDerived()
	}
	return ic.closure
}

// expandRow materializes the masked row of closure state z, chaos tail
// included, as a fresh slice.
func (ic *IncrementalSystem) expandRow(z StateID) []maskedTransition {
	r := &ic.rows[z]
	row := slices.Clone(r.prefix)
	for i, k := range ic.layout.keys {
		if r.tailHas(int32(i)) {
			row = append(row,
				maskedTransition{in: k.In, out: k.Out, to: ic.sAll},
				maskedTransition{in: k.In, out: k.Out, to: ic.sDelta})
		}
	}
	return row
}

// ClosureStates returns the number of closure states without deriving
// any transition rows.
func (ic *IncrementalSystem) ClosureStates() int { return ic.closure.NumStates() }

// ReachableStates returns the number of product states reachable from the
// initial states — the size a from-scratch composition would have.
func (ic *IncrementalSystem) ReachableStates() int { return ic.reachable }

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
	ic.stale = ic.stale[:0]
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

	// Mask the closure from the model: only learned labels are interned
	// here, and the chaos tails are read through the universe's layout.
	ic.rows = make([]closureRow, closure.NumStates())
	ic.rows[ic.sAll] = closureRow{tail: true}
	for f := range src.states {
		ic.closeState(StateID(f))
	}

	// Product BFS, replicating Compose's interned BFS while indexing the
	// (context, closure) pair of every product state. A first build sizes
	// the tables for the |context| × |closure| states the product can
	// have; a later rebuild for the states the previous product reached.
	// Past that they grow by append.
	n := ic.context.NumStates() * closure.NumStates()
	if ic.product != nil {
		n = ic.reachable
	}
	ic.product = newProduct("system", ic.in.internAlphabet, ic.context, ic.closure)
	ic.product.adj = make([][]Transition, 0, n)
	ic.product.prod.tuples = make([]StateID, 0, 2*n)
	ic.pairID = make(map[[2]StateID]StateID, n)
	ic.lastPair = make([]StateID, closure.NumStates())
	for z := range ic.lastPair {
		ic.lastPair[z] = NoState
	}
	ic.nextPair = make([]StateID, 0, n)

	queue := slices.Grow(ic.queue[:0], n)
	for _, ql := range ic.context.initial {
		for _, qr := range ic.closure.initial {
			id, created := ic.pairFor(ql, qr)
			ic.product.MarkInitial(id)
			if created {
				queue = append(queue, id)
			}
		}
	}
	p := newCtxPoll(ic.runCtx)
	for head := 0; head < len(queue); head++ {
		if p.stop() {
			return p.err
		}
		queue = ic.computePairAdjacency(queue[head], queue)
	}
	ic.queue = queue
	ic.reachable = ic.product.NumStates()
	obsProductRebuilds.Add(1)
	return nil
}

// pairFor returns the product state for (c, z), creating it if absent.
func (ic *IncrementalSystem) pairFor(c, z StateID) (StateID, bool) {
	key := [2]StateID{c, z}
	if id, ok := ic.pairID[key]; ok {
		return id, false
	}
	id := ic.product.addTuple(c, z)
	ic.pairID[key] = id
	ic.nextPair = append(ic.nextPair, ic.lastPair[z])
	ic.lastPair[z] = id
	return id, true
}

// computePairAdjacency recomputes the full adjacency of one product pair
// from the current context and closure adjacency, enqueueing pairs created
// along the way onto queue (returned possibly grown). It emits what
// Compose's double loop over the context row and the expanded closure row
// emits, in the same order: per context transition, the matching prefix
// entries, then the tail's matches, which are its join bucket's labels
// (labelLayout) in universe order minus the known ones. So per-state
// transition order matches a from-scratch composition exactly, and for the
// same reason it never emits a (label, target) twice.
//
// The row is built in the scratch row and then copied over the pair's
// previous row when it fits, or else into a row of its exact length, so
// no row grows by append.
func (ic *IncrementalSystem) computePairAdjacency(pid StateID, queue []StateID) []StateID {
	c, z := ic.product.prod.state(pid, 0), ic.product.prod.state(pid, 1)
	row := &ic.rows[z]
	adj := ic.edges[:0]
	for _, tl := range ic.ctxMask[c] {
		for _, tr := range row.prefix {
			if tl.in.and(ic.closOut) == tr.out && tr.in.and(ic.ctxOut) == tl.out {
				adj, queue = ic.appendEdge(adj, queue, pid, tl, tr)
			}
		}
		if !row.tail {
			continue
		}
		for i := ic.layout.head(InternKey{In: tl.out, Out: tl.in.and(ic.closOut)}); i >= 0; i = ic.layout.next[i] {
			if row.tailHas(i) {
				k := ic.layout.keys[i]
				adj, queue = ic.appendEdge(adj, queue, pid, tl, maskedTransition{in: k.In, out: k.Out, to: ic.sAll})
				adj, queue = ic.appendEdge(adj, queue, pid, tl, maskedTransition{in: k.In, out: k.Out, to: ic.sDelta})
			}
		}
	}
	ic.edges = adj
	if dst := ic.product.adj[pid]; cap(dst) >= len(adj) {
		ic.product.adj[pid] = append(dst[:0], adj...)
	} else {
		ic.product.adj[pid] = slices.Clone(adj)
	}
	return queue
}

// appendEdge appends to pid's row the joint transition of the context
// transition tl and the closure transition tr, creating (and enqueueing)
// its target pair if absent.
func (ic *IncrementalSystem) appendEdge(adj []Transition, queue []StateID, pid StateID, tl, tr maskedTransition) ([]Transition, []StateID) {
	to, created := ic.pairFor(tl.to, tr.to)
	if created {
		queue = append(queue, to)
	}
	k := InternKey{In: tl.in.or(tr.in), Out: tl.out.or(tr.out)}
	return append(adj, Transition{From: pid, Label: ic.in.Label(k), To: to}), queue
}

// garbageRebuildSlack bounds retraction garbage: a from-scratch rebuild
// triggers when the product holds more than 2× its reachable size plus
// this slack in unreachable states.
const garbageRebuildSlack = 512

// Apply incorporates a learn delta into the closure and product, by
// patching them in place or, when the delta does not allow that, by a
// from-scratch rebuild (the result is equivalent either way; LastDecision
// reports which). The delta must describe exactly the model mutations
// since the previous Apply (or since construction).
func (ic *IncrementalSystem) Apply(delta LearnDelta) error {
	if delta.Empty() {
		ic.lastReason = "empty-delta"
		return nil
	}
	src := ic.model.Automaton()
	// Patching relies on the loop's growth-only discipline; anything else
	// (initial-state changes, non-dense state additions, oversized garbage)
	// falls back to a rebuild. The named reason is surfaced via
	// LastDecision for the journal's product_rebuilt events.
	var rebuildReason string
	switch {
	case len(src.initial) != ic.numModelInitials:
		rebuildReason = "initial-states-changed"
	case len(ic.closed)+len(delta.NewStates) != src.NumStates():
		rebuildReason = "delta-state-mismatch"
	case ic.product.NumStates() > 2*ic.reachable+garbageRebuildSlack:
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
		return ic.rebuild()
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
		ic.rows = append(ic.rows, closureRow{}, closureRow{})
		ic.lastPair = append(ic.lastPair, NoState, NoState)
	}

	// 2. Model states whose closure adjacency changed, in ID order.
	order := append(ic.order[:0], delta.NewStates...)
	for _, t := range delta.NewTransitions {
		order = append(order, t.From)
	}
	for _, b := range delta.NewBlocked {
		order = append(order, b.State)
	}
	for _, b := range delta.NewSettled {
		order = append(order, b.State)
	}
	slices.Sort(order)
	order = slices.Compact(order)
	ic.order = order

	// 3. Recompute the masked rows of both copies of every changed state:
	// the learned prefix in model adjacency order, and (open copy only) the
	// labels known there, which the chaos tail skips. Their transition rows
	// are derived when the closure is read (Closure).
	for _, f := range order {
		ic.closeState(f)
		ic.stale = append(ic.stale, ic.closed[f], ic.open[f])
	}
	if len(ic.stale) > ic.closure.NumStates() {
		// Unread, the list would grow with every patch.
		slices.Sort(ic.stale)
		ic.stale = slices.Compact(ic.stale)
	}

	// 4. Recompute every product pair whose closure part changed, in
	// product ID order; newly discovered pairs are processed FIFO with the
	// same procedure, mirroring the from-scratch BFS. A pair is on the
	// chain of its one closure part, so no pair is listed twice.
	affected := ic.affected[:0]
	for _, f := range order {
		for _, z := range [2]StateID{ic.closed[f], ic.open[f]} {
			for pid := ic.lastPair[z]; pid != NoState; pid = ic.nextPair[pid] {
				affected = append(affected, pid)
			}
		}
	}
	slices.Sort(affected)
	ic.affected = affected
	p := newCtxPoll(ic.runCtx)
	queue := ic.queue[:0]
	for _, pid := range affected {
		if p.stop() {
			// The product is partially patched and unusable; the caller
			// aborts the whole run on a context error.
			return p.err
		}
		queue = ic.computePairAdjacency(pid, queue)
	}
	for head := 0; head < len(queue); head++ {
		if p.stop() {
			return p.err
		}
		queue = ic.computePairAdjacency(queue[head], queue)
	}
	ic.queue = queue

	// The product adjacency was rewritten above, bypassing AddTransition;
	// drop its cached CSR snapshot.
	ic.product.invalidateDerived()

	ic.reachable = ic.countReachable()
	ic.lastReason = "delta-patch"
	obsProductPatches.Add(1)
	return nil
}

// closeState derives the masked rows of f's two closure copies from the
// model's row at f: the learned transitions toward both copies of each
// target, and, for the open copy, a chaos tail without the universe labels
// known at f — refused there, or learned and known by the closure's rule
// (Incomplete.orKnown); a model bound to the system's universe ORs in its
// refused and settled bits as they are. Only f's own learned labels are
// interned; the tail stays the universe's layout. Rows are fresh, never
// written in place.
func (ic *IncrementalSystem) closeState(f StateID) {
	learned := ic.model.auto.adj[f]
	prefix := make([]maskedTransition, 0, 2*len(learned))
	for _, t := range learned {
		k, _ := ic.in.Key(t.Label)
		prefix = append(prefix,
			maskedTransition{in: k.In, out: k.Out, to: ic.closed[t.To]},
			maskedTransition{in: k.In, out: k.Out, to: ic.open[t.To]})
	}
	ic.rows[ic.closed[f]] = closureRow{prefix: prefix}
	ic.rows[ic.open[f]] = closureRow{prefix: prefix, tail: true, known: ic.model.orKnown(nil, f, ic.universe, false)}
}

// countReachable returns the number of product states reachable from the
// initial states, searching with the system's kept buffers.
func (ic *IncrementalSystem) countReachable() int {
	a := ic.product
	ic.reached = slices.Grow(ic.reached[:0], a.NumStates())[:a.NumStates()]
	clear(ic.reached)
	queue := ic.queue[:0]
	for _, q := range a.initial {
		if !ic.reached[q] {
			ic.reached[q] = true
			queue = append(queue, q)
		}
	}
	for head := 0; head < len(queue); head++ {
		for _, t := range a.adj[queue[head]] {
			if !ic.reached[t.To] {
				ic.reached[t.To] = true
				queue = append(queue, t.To)
			}
		}
	}
	ic.queue = queue
	return len(queue)
}

// Verify checks the patch invariant: the maintained closure and product
// must be reachable-equivalent to a from-scratch rebuild. Intended for
// differential tests and the synthesis loop's CheckIncremental mode.
func (ic *IncrementalSystem) Verify() error {
	closure, err := ChaoticClosureCtx(context.Background(), ic.model, ic.universe, nil)
	if err != nil {
		return fmt.Errorf("automata: verify rebuild: %w", err)
	}
	patched := ic.Closure()
	if got, want := patched.NumStates(), closure.NumStates(); got != want {
		return fmt.Errorf("automata: incremental closure has %d states, rebuild has %d", got, want)
	}
	if err := EquivalentReachable(patched, closure); err != nil {
		return fmt.Errorf("automata: incremental closure diverged from rebuild: %w", err)
	}
	// The masked rows are derived from the model and the universe's
	// layout, not from the closure's labels; expanded, they must still
	// encode those labels.
	masked, err := maskAdjacency(patched, ic.in)
	if err != nil {
		return fmt.Errorf("automata: verify closure masks: %w", err)
	}
	if len(ic.rows) != len(masked) {
		return fmt.Errorf("automata: %d masked closure rows for %d closure states", len(ic.rows), len(masked))
	}
	for z, row := range masked {
		if !slices.Equal(ic.expandRow(StateID(z)), row) {
			return fmt.Errorf("automata: masked closure row of %q differs from its transitions", ic.closure.states[z].name)
		}
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
	got.materialize()
	want.materialize()
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
