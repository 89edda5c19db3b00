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
// Compose is ComposeAll over the two automata: one product BFS builds
// every composition. Its inner loop runs on interned bitset labels, so the
// combined alphabet must fit an Interner (at most 128 signals); a wider
// one is an error wrapping ErrAlphabetTooWide.
func Compose(name string, left, right *Automaton) (*Automaton, error) {
	return ComposeAll(name, left, right)
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
// automata, the n-ary generalization of Definition 3: in every joint step
// each automaton takes exactly one transition, for every participant i the
// inputs it draws from the other participants' output alphabets must equal
// exactly the signals produced for it, and every signal produced is read
// by some participant:
//
//	Aᵢ ∩ (⋃_{j≠i} Oⱼ)  =  (⋃ⱼ Bⱼ) ∩ Iᵢ        ⋃ⱼ Bⱼ  ⊆  ⋃ⱼ Aⱼ
//
// For two automata these are exactly Definition 3's A ∩ O′ = B′ and
// A′ ∩ O = B. The union on the right includes Bᵢ itself, so a step in
// which a part emits a signal of its own input alphabet (only a composed
// part has one) is no joint step, as Definition 3 has it. An idle part
// (empty alphabets, only empty steps) adds no joint step to a product and
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
// once per dequeued state tuple and aborts with its error once it is done;
// a background context costs nothing. The BFS runs level by level on the
// caller's goroutine and journals one compose_level event per level.
func ComposeAllCtx(ctx context.Context, name string, parts ...*Automaton) (*Automaton, error) {
	switch len(parts) {
	case 0:
		return nil, fmt.Errorf("automata: compose: no automata given")
	case 1:
		return parts[0].Clone(name), nil
	}

	for i := range parts {
		if len(parts[i].initial) == 0 {
			return nil, fmt.Errorf("automata: compose %q: %q has no initial state", name, parts[i].name)
		}
		for j := i + 1; j < len(parts); j++ {
			if !parts[i].inputs.Disjoint(parts[j].inputs) {
				return nil, fmt.Errorf("automata: compose %q: %q and %q share inputs %v",
					name, parts[i].name, parts[j].name, parts[i].inputs.Intersect(parts[j].inputs))
			}
			if !parts[i].outputs.Disjoint(parts[j].outputs) {
				return nil, fmt.Errorf("automata: compose %q: %q and %q share outputs %v",
					name, parts[i].name, parts[j].name, parts[i].outputs.Intersect(parts[j].outputs))
			}
		}
	}

	pairs := make([]SignalSet, 0, 2*len(parts))
	for _, p := range parts {
		pairs = append(pairs, p.inputs, p.outputs)
	}
	in, err := NewInterner(pairs...)
	if err != nil {
		return nil, fmt.Errorf("automata: compose %q: %w", name, err)
	}
	c := newProduct(name, in.internAlphabet, parts...)
	p := newCtxPoll(ctx)
	if err := composeTuples(c, parts, in, p); err != nil {
		return nil, err
	}
	if p != nil && p.err != nil {
		return nil, p.err
	}
	return c, nil
}

// composePart is one part of a product under construction: its rows on
// interned labels, masked when the BFS first reaches them (a product
// usually reaches only some of a large part's states), the union of the
// other parts' output alphabets, and the target of the transition the
// current joint step takes.
type composePart struct {
	a         *Automaton
	rows      [][]maskedTransition // nil until masked
	othersOut SetMask
	to        StateID
}

// tupleBFS is the state of one product construction.
type tupleBFS struct {
	c     *Automaton
	in    *Interner
	parts []composePart
	// next is the tuple being looked up and key its exact key
	// (appendStateKey); ids maps the key of every product state's tuple to
	// its ID.
	next []StateID
	key  []byte
	ids  map[string]StateID
	from StateID
	err  error // the first row that failed to mask
}

// composeTuples is the interned product BFS of ComposeAllCtx, for any
// number of parts. A stopped poller aborts the BFS; the caller surfaces
// the context error.
//
// No joint transition is emitted twice: the parts' alphabets are pairwise
// disjoint per direction, so a joint label fixes each part's label (its
// intersection with that part's alphabets) and a product target fixes
// each part's target; a repeated (label, target) would need a part's
// transition twice, which AddTransition, the closure and patch builders and
// UnmarshalMemo all rule out.
func composeTuples(c *Automaton, parts []*Automaton, in *Interner, p *ctxPoll) error {
	b := tupleBFS{c: c, in: in, parts: make([]composePart, len(parts)),
		next: make([]StateID, len(parts)), key: make([]byte, 0, 4*len(parts)), ids: make(map[string]StateID)}
	for i, part := range parts {
		b.parts[i].a = part
		b.parts[i].rows = make([][]maskedTransition, part.NumStates())
		for j := range parts {
			if j != i {
				o, _ := in.Mask(parts[j].outputs)
				b.parts[i].othersOut = b.parts[i].othersOut.or(o)
			}
		}
	}

	// The initial states are the tuples of the parts' initial states, the
	// first part's varying slowest.
	n := 1
	for _, part := range parts {
		n *= len(part.initial)
	}
	for t := 0; t < n; t++ {
		for i, r := len(parts)-1, t; i >= 0; i-- {
			q := parts[i].initial
			b.next[i] = q[r%len(q)]
			r /= len(q)
		}
		c.MarkInitial(b.state())
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
			if p.stop() || b.err != nil {
				return b.err
			}
			b.from = StateID(head)
			b.choose(0, SetMask{}, SetMask{}, SetMask{})
		}
	}
	return b.err
}

// choose enumerates the joint transitions of state b.from depth-first, one
// part at a time in the order each part lists its own transitions, and
// adds each to the product as it is found. A successor tuple is added
// when first reached, which fixes every product state's ID, name and edge
// order.
//
// The masks accumulate over the parts chosen so far: the inputs consumed,
// the outputs produced, and the inputs drawn from the other parts' outputs,
// internal = ⋃ᵢ Aᵢ ∩ (⋃_{j≠i} Oⱼ). The conditions of ComposeAll hold iff
// internal = produced. Part i's condition compares two subsets of its
// input alphabet Iᵢ (a label lies within its automaton's alphabet), and
// the Iᵢ are pairwise disjoint, so all of them hold iff their unions
// agree, internal = produced ∩ ⋃ᵢ Iᵢ; and internal ⊆ consumed ⊆ ⋃ᵢ Iᵢ, so
// that equation with produced ⊆ consumed is internal = produced.
func (b *tupleBFS) choose(i int, consumed, produced, internal SetMask) {
	pt := &b.parts[i]
	s := b.c.prod.state(b.from, i)
	row := pt.rows[s]
	if row == nil {
		var err error
		if row, err = maskRow(pt.a, s, b.in); err != nil {
			b.err = err
			return
		}
		pt.rows[s] = row
	}
	if i+1 < len(b.parts) {
		for _, t := range row {
			pt.to = t.to
			b.choose(i+1, consumed.or(t.in), produced.or(t.out), internal.or(t.in.and(pt.othersOut)))
		}
		return
	}
	for _, t := range row {
		out := produced.or(t.out)
		if internal.or(t.in.and(pt.othersOut)) != out {
			continue
		}
		pt.to = t.to
		for j := range b.parts {
			b.next[j] = b.parts[j].to
		}
		to := b.state()
		label := b.in.Label(InternKey{In: consumed.or(t.in), Out: out})
		b.c.adj[b.from] = append(b.c.adj[b.from], Transition{From: b.from, Label: label, To: to})
	}
}

// state returns the product state of the tuple b.next, adding it when
// first reached.
func (b *tupleBFS) state() StateID {
	b.key = appendStateKey(b.key[:0], b.next...)
	if id, ok := b.ids[string(b.key)]; ok {
		return id
	}
	id := b.c.addTuple(b.next...)
	b.ids[string(b.key)] = id
	return id
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
