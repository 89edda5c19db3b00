package core

import (
	"strings"

	"muml/internal/automata"
)

// The rules of a nondeterministic learned model (DESIGN.md §13). The
// paper's loop (Section 4.3) excludes nondeterminism: one replay either
// reproduces the hypothesized run or refutes it, and a single divergence
// is learned as the function of the state. A black box that duplicates,
// races, or drops breaks both halves — a divergent replay neither
// reproduces nor refutes, it merely shows *one* element of the out-set.
// Following ioco, the loop's one test and probe section treats a model
// created by automata.NewNondetIncomplete this way:
//
//   - testComponent re-executes a counterexample up to nondetAttempts
//     times, merging every observed run into the learned fragment, on
//     which Learn records divergent-but-allowed branches (journaled as
//     ioco_merge events) instead of failing;
//   - learnObservation counts fair visits per learned (state, input)
//     (countVisits): one visit per observed run that steps through the
//     pair. The component model's per-occurrence round-robin schedule
//     advances the pair's first-occurrence cursor exactly once per such
//     run, cycling every duplicate branch within branching-degree
//     consecutive visits, so after nondetCompleteness visits the out-set
//     and successor set there are complete — unobserved outputs become
//     refusals and learned labels are settled, removing their chaos
//     escapes from the next closure (the complete-testing assumption
//     realized by legacy.NondetComponent);
//   - offerShare confirms deadlocks by per-offer out-set sampling at the
//     real final state instead of one deterministic probe.
//
// Input refusals stay decisive: the component model refuses per (state,
// input) deterministically, so one refusal refutes all output hypotheses
// under that input, exactly as for a deterministic model.

// nondetVisitKey identifies one fairly-scheduled (state, input) pair of
// the learned fragment, in the component's state namespace.
type nondetVisitKey struct {
	state string
	inKey string
}

// nondetVisit is the counter behind a key. Every observed run that steps
// through a key counts as exactly one visit, and every real execution —
// replay attempts and probe tries alike — is observed and learned. Each
// such run advances the key's first-occurrence round-robin cursor exactly
// once (a run's first visit of a pair is occurrence zero by definition),
// so nondetCompleteness consecutive visits provably cycle through every
// duplicate branch of the component model. Deeper occurrences within one
// run carry no cycling guarantee — a single long run can repeat one
// branch at every depth — which is why repeat visits inside a run do not
// count toward maturity.
type nondetVisit struct {
	n       int
	in      automata.SignalSet
	matured bool
}

// openCopyDeadlocked reports whether the open-copy sibling of the given
// product state — each closed-copy part (s,0) swapped for its (s,1) — is
// also a deadlock state of the composition. Learned transitions enter both
// copies of their target, so along a chaos-avoiding run the sibling is
// reachable whenever the original is; a missing sibling therefore reads as
// not-certified rather than as certified.
//
// It decides the chaos-free certification of a counterexample against a
// nondeterministic model (testCounterexample), which needs no replay:
// every transition on a run that never visits a chaotic state is a
// learned transition — behavior that was actually observed — so the run
// is a real path of the integrated system. The one thing such a run may
// still hypothesize is a *refusal*: a path that violates the property by
// stopping early (a deadlock end state) relies on the absence of further
// behavior, which at a closed copy (s,0) is an untested assumption. That
// reliance is always at the final state — path-existential violations
// need no refusals along the way — and it is discharged exactly when the
// open-copy sibling of the final state is deadlocked too: then even
// assuming arbitrary further behavior, nothing composes with the context
// beyond the certified blocks. Replay could not confirm these runs
// anyway: the fair round-robin schedule never resolves the same duplicate
// branch the same way twice in a row, so a run that takes one branch at
// two separate visits of the same (state, input) is unrealizable
// per-execution even though each transition is real.
func openCopyDeadlocked(sys *automata.Automaton, final automata.StateID) bool {
	// The closure is the last factor of the product; the sibling is found
	// through the state tuples, without naming the product.
	factors := sys.Factors()
	last := len(factors) - 1
	closure := factors[last]
	name := closure.StateName(sys.FactorState(final, last))
	if !strings.HasSuffix(name, automata.ChaosClosedSuffix) {
		// The final state already assumes arbitrary further behavior.
		return sys.IsDeadlock(final)
	}
	tuple := make([]automata.StateID, len(factors))
	for i := range tuple {
		tuple[i] = sys.FactorState(final, i)
	}
	tuple[last] = closure.State(strings.TrimSuffix(name, automata.ChaosClosedSuffix) + automata.ChaosOpenSuffix)
	sib := sys.StateOfFactors(tuple...)
	return sib != automata.NoState && sys.IsDeadlock(sib)
}

// countVisits advances the fair-visit counter of every (state, input) an
// observed run of a nondeterministic component stepped through — once per
// pair, however often the run revisited it — and settles each pair whose
// counter reaches the completeness budget: after nondetCompleteness fair
// visits every duplicate branch under the input has appeared, so
// unobserved outputs become refusals (T̄) and each learned label is
// settled. A branch surfacing after its label was refuted falsifies the
// budget and is surfaced by Learn as a contradiction. learnObservation
// merges the whole run first, so a maturity triggered by an early step
// sees branches the same run revealed later.
func (s *Synthesizer) countVisits(c *component, run automata.ObservedRun, it *Iteration) error {
	if c.visits == nil {
		c.visits = make(map[nondetVisitKey]*nondetVisit)
	}
	cur := run.Initial
	seen := make(map[nondetVisitKey]bool)
	for _, step := range run.Steps {
		k := nondetVisitKey{state: cur, inKey: step.Label.In.Key()}
		cur = step.To
		if seen[k] {
			continue
		}
		seen[k] = true
		v := c.visits[k]
		if v == nil {
			v = &nondetVisit{in: step.Label.In}
			c.visits[k] = v
		}
		v.n++
		if !v.matured && v.n >= nondetCompleteness {
			v.matured = true
			if err := s.refuse(c, k.state, v.in, nil, true, it); err != nil {
				return err
			}
		}
	}
	return nil
}
