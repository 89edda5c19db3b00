package automata

import (
	"context"
	"fmt"
	"strings"

	"muml/internal/obs"
)

// ctxPollInterval rate-limits context polling inside construction BFS
// loops: one Err() call per this many dequeued states bounds cancellation
// latency without a per-state syscall-adjacent check.
const ctxPollInterval = 256

// ctxPoll polls a context at a bounded rate. The zero poll happens on the
// first stop() call, so an already-expired deadline aborts before any
// work. A nil *ctxPoll (or one over a background context) never stops.
type ctxPoll struct {
	ctx   context.Context
	err   error
	count int
}

func newCtxPoll(ctx context.Context) *ctxPoll {
	if ctx == nil || ctx == context.Background() || ctx == context.TODO() {
		return nil
	}
	return &ctxPoll{ctx: ctx, count: 1}
}

func (p *ctxPoll) stop() bool {
	if p == nil {
		return false
	}
	if p.err != nil {
		return true
	}
	if p.count--; p.count > 0 {
		return false
	}
	p.count = ctxPollInterval
	if err := p.ctx.Err(); err != nil {
		p.err = err
		return true
	}
	return false
}

// Compose builds the parallel composition M‖M' of Definition 3. The two
// automata must be composable: I ∩ I' = ∅ and O ∩ O' = ∅.
//
// The composed automaton has state set S × S' restricted to the states
// reachable from Q × Q', inputs I ∪ I', outputs O ∪ O'. A joint transition
// on (A”, B”) exists iff component transitions on (A, B) and (A', B')
// exist with A” = A ∪ A', B” = B ∪ B', and the cross conditions
// (A ∩ O') = B' and (A' ∩ O) = B hold, i.e. every input one side expects
// from the other is exactly what the other outputs in the same step
// (synchronous communication).
//
// Composed state labels are the union L(s) ∪ L'(s'). Composed states keep
// per-leaf provenance so that runs render as in the paper's listings
// ("shuttle1.noConvoy, shuttle2.s_all"). A composed state is stored as the
// pair of its operands' states and named ("s|s'"), labelled and attributed
// from them only when read (see product), so the operands must not change
// their states' names or labels once composed.
//
// The BFS inner loop runs on interned bitset labels, so the combined
// alphabet must fit an Interner (at most 128 signals); a wider one is an
// error wrapping ErrAlphabetTooWide.
func Compose(name string, left, right *Automaton) (*Automaton, error) {
	return ComposeCtx(context.Background(), name, left, right)
}

// ComposeCtx is Compose under a context: the product BFS polls it and
// aborts with its error once it is done. A background context costs
// nothing.
func ComposeCtx(ctx context.Context, name string, left, right *Automaton) (*Automaton, error) {
	if !left.inputs.Disjoint(right.inputs) {
		return nil, fmt.Errorf("automata: compose %q‖%q: shared inputs %v",
			left.name, right.name, left.inputs.Intersect(right.inputs))
	}
	if !left.outputs.Disjoint(right.outputs) {
		return nil, fmt.Errorf("automata: compose %q‖%q: shared outputs %v",
			left.name, right.name, left.outputs.Intersect(right.outputs))
	}
	if len(left.initial) == 0 || len(right.initial) == 0 {
		return nil, fmt.Errorf("automata: compose %q‖%q: missing initial states", left.name, right.name)
	}

	c := newProduct(name, left, right)
	in, err := NewInterner(c.inputs, c.outputs)
	if err != nil {
		return nil, fmt.Errorf("automata: compose %q‖%q: %w", left.name, right.name, err)
	}
	p := newCtxPoll(ctx)
	if err := composePair(c, left, right, in, p); err != nil {
		return nil, err
	}
	if p != nil && p.err != nil {
		return nil, p.err
	}
	return c, nil
}

// composePair runs the product BFS on interned labels. A stopped poller
// aborts the BFS; the caller surfaces the context error.
//
// No joint transition is emitted twice: the operands' alphabets are
// disjoint per direction, so a joint label fixes each operand's label (its
// intersection with that operand's alphabets) and a product target fixes
// each operand's target; a repeated (label, target) would need an operand
// transition twice, which AddTransition, the closure and patch builders and
// UnmarshalMemo all rule out.
func composePair(c, left, right *Automaton, in *Interner, p *ctxPoll) error {
	leftAdj, err := maskAdjacency(left, in)
	if err != nil {
		return err
	}
	rightAdj, err := maskAdjacency(right, in)
	if err != nil {
		return err
	}
	leftOut, _ := in.Mask(left.outputs)
	rightOut, _ := in.Mask(right.outputs)

	ids := make(map[[2]StateID]StateID)
	addPair := func(l, r StateID) StateID {
		if id, ok := ids[[2]StateID{l, r}]; ok {
			return id
		}
		id := c.addTuple(l, r)
		ids[[2]StateID{l, r}] = id
		return id
	}

	for _, ql := range left.initial {
		for _, qr := range right.initial {
			c.MarkInitial(addPair(ql, qr))
		}
	}

	// States are created in BFS order, so the state table is the queue.
	for from := StateID(0); int(from) < c.NumStates() && !p.stop(); from++ {
		l, r := c.prod.state(from, 0), c.prod.state(from, 1)
		for _, tl := range leftAdj[l] {
			for _, tr := range rightAdj[r] {
				if tl.in.and(rightOut) != tr.out {
					continue
				}
				if tr.in.and(leftOut) != tl.out {
					continue
				}
				k := InternKey{In: tl.in.or(tr.in), Out: tl.out.or(tr.out)}
				to := addPair(tl.to, tr.to)
				c.adj[from] = append(c.adj[from], Transition{From: from, Label: in.Label(k), To: to})
			}
		}
	}
	return nil
}

// MustCompose is Compose but panics on error.
func MustCompose(name string, left, right *Automaton) *Automaton {
	c, err := Compose(name, left, right)
	if err != nil {
		panic(err)
	}
	return c
}

// ComposeAll builds the simultaneous parallel composition of several
// automata; two automata go through Compose. For more it is the n-ary
// generalization of Definition 3: in every joint step each automaton takes
// exactly one transition, for every participant i the inputs it draws from
// the other participants' output alphabets must equal exactly the signals
// the others produce for it, and every signal produced is read by some
// participant:
//
//	Aᵢ ∩ (⋃_{j≠i} Oⱼ)  =  (⋃_{j≠i} Bⱼ) ∩ Iᵢ        ⋃ⱼ Bⱼ  ⊆  ⋃ⱼ Aⱼ
//
// For two automata, each with disjoint inputs and outputs, these are
// Definition 3's A ∩ O′ = B′ and A′ ∩ O = B; and an idle part (empty
// alphabets, only empty steps) adds no joint step to a product and
// removes none.
//
// Note that folding the binary Compose is *not* equivalent for three or
// more parts: Definition 3 requires every output to be consumed by the
// partner in the same step, so a fold would force the third automaton to
// consume signals that were already matched inside the first pair.
func ComposeAll(name string, parts ...*Automaton) (*Automaton, error) {
	return ComposeAllCtx(context.Background(), name, parts...)
}

// ComposeAllCtx is ComposeAll under a context: the product BFS polls it
// once per dequeued state tuple, as ComposeCtx does, and aborts with its
// error once it is done. The BFS runs level by level on the caller's
// goroutine and journals one compose_level event per level.
func ComposeAllCtx(ctx context.Context, name string, parts ...*Automaton) (*Automaton, error) {
	switch len(parts) {
	case 0:
		return nil, fmt.Errorf("automata: compose: no automata given")
	case 1:
		return parts[0].Clone(name), nil
	case 2:
		return ComposeCtx(ctx, name, parts[0], parts[1])
	}

	for i := range parts {
		if len(parts[i].initial) == 0 {
			return nil, fmt.Errorf("automata: compose %q: %q has no initial state", name, parts[i].name)
		}
		for j := i + 1; j < len(parts); j++ {
			if !parts[i].inputs.Disjoint(parts[j].inputs) {
				return nil, fmt.Errorf("automata: compose %q: %q and %q share inputs",
					name, parts[i].name, parts[j].name)
			}
			if !parts[i].outputs.Disjoint(parts[j].outputs) {
				return nil, fmt.Errorf("automata: compose %q: %q and %q share outputs",
					name, parts[i].name, parts[j].name)
			}
		}
	}

	c := newProduct(name, parts...)
	in, err := NewInterner(c.inputs, c.outputs)
	if err != nil {
		return nil, fmt.Errorf("automata: compose %q: %w", name, err)
	}
	p := newCtxPoll(ctx)
	if err := composeTuples(c, parts, in, p); err != nil {
		return nil, err
	}
	if p != nil && p.err != nil {
		return nil, p.err
	}
	return c, nil
}

// composeTuples is the interned n-ary product BFS. As in composePair, the
// parts' pairwise disjoint alphabets make every emitted (label, target)
// unique per state. A stopped poller aborts the BFS; the caller surfaces
// the context error.
func composeTuples(c *Automaton, parts []*Automaton, in *Interner, p *ctxPoll) error {
	ptAdj := make([][][]maskedTransition, len(parts))
	for i, part := range parts {
		adj, err := maskAdjacency(part, in)
		if err != nil {
			return err
		}
		ptAdj[i] = adj
	}
	// othersOut[i] = union of output alphabets of all parts except i;
	// inMask[i] = input alphabet of part i.
	othersOut := make([]SetMask, len(parts))
	inMask := make([]SetMask, len(parts))
	for i := range parts {
		var o SetMask
		for j := range parts {
			if j != i {
				m, _ := in.Mask(parts[j].outputs)
				o = o.or(m)
			}
		}
		othersOut[i] = o
		inMask[i], _ = in.Mask(parts[i].inputs)
	}

	ids := make(map[string]StateID)
	addTuple := func(states []StateID) StateID {
		k := stateSetKey(states)
		if id, ok := ids[k]; ok {
			return id
		}
		id := c.addTuple(states...)
		ids[k] = id
		return id
	}

	for _, t := range initialTuples(parts) {
		c.MarkInitial(addTuple(t))
	}

	// choose enumerates the joint transitions of tuple cur (state from)
	// depth-first, one part at a time in the order each part lists its
	// own transitions, and adds each to c as it is found. A successor
	// tuple is added when first reached, which fixes every product
	// state's ID, name and edge order.
	chosen := make([]maskedTransition, len(parts))
	next := make([]StateID, len(parts))
	var from StateID
	var choose func(i int, produced SetMask)
	choose = func(i int, produced SetMask) {
		if i == len(parts) {
			var consumed SetMask
			for idx := range chosen {
				internal := chosen[idx].in.and(othersOut[idx])
				delivered := produced.and(inMask[idx])
				if internal != delivered {
					return
				}
				consumed = consumed.or(chosen[idx].in)
			}
			if produced.and(consumed) != produced {
				return // an output no part reads in this step
			}
			for idx := range chosen {
				next[idx] = chosen[idx].to
			}
			k := InternKey{In: consumed, Out: produced}
			to := addTuple(next)
			c.adj[from] = append(c.adj[from], Transition{From: from, Label: in.Label(k), To: to})
			return
		}
		for _, t := range ptAdj[i][c.prod.state(from, i)] {
			chosen[i] = t
			choose(i+1, produced.or(t.out))
		}
	}

	// States are created in BFS order, so the state table is the queue.
	for head, level := 0, 0; head < c.NumStates(); level++ {
		end := c.NumStates()
		obsComposeLevels.Add(1)
		obsComposeFrontierPeak.Observe(int64(end - head))
		if obsJournal.Enabled() {
			obsJournal.Emit(obs.Event{Kind: obs.KindComposeLevel, Iter: -1, N: map[string]int64{
				"level":    int64(level),
				"frontier": int64(end - head),
			}})
		}
		for ; head < end; head++ {
			if p.stop() {
				return nil
			}
			from = StateID(head)
			choose(0, SetMask{})
		}
	}
	return nil
}

// initialTuples returns the cartesian product of the parts' initial state
// sets, in deterministic order.
func initialTuples(parts []*Automaton) [][]StateID {
	tuples := [][]StateID{nil}
	for _, p := range parts {
		var next [][]StateID
		for _, t := range tuples {
			for _, q := range p.initial {
				next = append(next, append(append([]StateID(nil), t...), q))
			}
		}
		tuples = next
	}
	return tuples
}

// Leaves returns the names of the leaf automata of a (possibly composed)
// automaton in composition order.
func (a *Automaton) Leaves() []string {
	names := make([]string, len(a.leaves))
	for i, l := range a.leaves {
		names[i] = l.name
	}
	return names
}

// LeafAlphabet returns the input and output alphabet of the named leaf, for
// attributing signals of a composed run back to components.
func (a *Automaton) LeafAlphabet(name string) (inputs, outputs SignalSet, ok bool) {
	for _, l := range a.leaves {
		if l.name == name {
			return l.inputs, l.outputs, true
		}
	}
	return SignalSet{}, SignalSet{}, false
}

// ProjectRun restricts a run of a composed automaton to the named leaf:
// states become the leaf's state names and interactions are intersected
// with the leaf's alphabet. Steps where the leaf neither consumes nor
// produces a signal are kept (they are the leaf's idle time steps, which
// exist because composition is fully synchronous).
func (a *Automaton) ProjectRun(r Run, leaf string) (ProjectedRun, error) {
	idx := -1
	for i, l := range a.leaves {
		if l.name == leaf {
			idx = i
			break
		}
	}
	if idx < 0 {
		return ProjectedRun{}, fmt.Errorf("automata: no leaf %q in %q", leaf, a.name)
	}
	in, out := a.leaves[idx].inputs, a.leaves[idx].outputs
	p := ProjectedRun{Leaf: leaf, Deadlock: r.Deadlock}
	for _, s := range r.States {
		part, ok := a.leafPart(s, idx)
		if !ok {
			return ProjectedRun{}, fmt.Errorf("automata: state %q lacks provenance for projection", a.StateName(s))
		}
		p.StateNames = append(p.StateNames, part)
	}
	for _, step := range r.Steps {
		p.Steps = append(p.Steps, Interaction{
			In:  step.In.Intersect(in),
			Out: step.Out.Intersect(out),
		})
	}
	return p, nil
}

// ProjectedRun is the restriction of a composed run to one leaf component.
// State names refer to the leaf's own state space.
type ProjectedRun struct {
	Leaf       string
	StateNames []string
	Steps      []Interaction
	Deadlock   bool
}

// String renders the projected run compactly.
func (p ProjectedRun) String() string {
	var b strings.Builder
	for i, s := range p.StateNames {
		fmt.Fprintf(&b, "%s.%s", p.Leaf, s)
		if i < len(p.Steps) {
			fmt.Fprintf(&b, " -%s-> ", p.Steps[i])
		}
	}
	if p.Deadlock {
		fmt.Fprintf(&b, " -%s-> <blocked>", p.Steps[len(p.Steps)-1])
	}
	return b.String()
}

// uniqueName returns base, or base with the first free "#n" suffix when the
// base name is taken in the composed automaton a. A next-suffix counter per
// base avoids re-probing "#2, #3, …" from scratch on every collision.
func uniqueName(a *Automaton, base string) string {
	if _, ok := a.index[base]; !ok {
		return base
	}
	p := a.prod
	if p.nameSeq == nil {
		p.nameSeq = make(map[string]int)
	}
	i := p.nameSeq[base]
	if i < 2 {
		i = 2
	}
	for {
		candidate := fmt.Sprintf("%s#%d", base, i)
		i++
		if _, ok := a.index[candidate]; !ok {
			p.nameSeq[base] = i
			return candidate
		}
	}
}
