package core

import (
	"errors"
	"fmt"
	"strings"

	"muml/internal/automata"
	"muml/internal/obs"
	"muml/internal/replay"
)

// The nondeterministic counterexample path (DESIGN.md §13). The paper's
// loop (Section 4.3) excludes nondeterminism: one replay either reproduces
// the hypothesized run or refutes it, and a single divergence is learned
// as the function of the state. A black box that duplicates, races, or
// drops breaks both halves — a divergent replay neither reproduces nor
// refutes, it merely shows *one* element of the out-set. Following ioco,
// this path:
//
//   - re-executes a counterexample up to nondetAttempts times,
//     merging every observed run into the learned fragment, a
//     nondeterministic model (automata.NewNondetIncomplete) on which
//     Learn records divergent-but-allowed branches (journaled as
//     ioco_merge events) instead of failing;
//   - counts fair visits per learned (state, input): one visit per
//     observed run that steps through the pair. The component model's
//     per-occurrence round-robin schedule advances the pair's
//     first-occurrence cursor exactly once per such run, cycling every
//     duplicate branch within branching-degree consecutive visits, so
//     after nondetCompleteness visits the out-set and successor
//     set there are complete — unobserved outputs become refusals and
//     learned labels are settled, removing their chaos escapes from the
//     next closure (the complete-testing assumption realized by
//     legacy.NondetComponent);
//   - confirms deadlocks by per-offer out-set sampling at the real final
//     state instead of one deterministic probe.
//
// Input refusals stay decisive: the component model refuses per (state,
// input) deterministically, so one refusal refutes all output hypotheses
// under that input, exactly as in the deterministic path.

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
func openCopyDeadlocked(sys *automata.Automaton, final automata.StateID) bool {
	// The closure is the last factor of the product, so the copy suffix
	// sits at the end of the composed state name (e.g. "c0|s0·0").
	name := sys.StateName(final)
	if !strings.HasSuffix(name, automata.ChaosClosedSuffix) {
		// The final state already assumes arbitrary further behavior.
		return sys.IsDeadlock(final)
	}
	sib := sys.State(strings.TrimSuffix(name, automata.ChaosClosedSuffix) + automata.ChaosOpenSuffix)
	return sib != automata.NoState && sys.IsDeadlock(sib)
}

// testCounterexampleNondet is the nondeterministic counterpart of
// testCounterexample; inLearnedPart reports that the counterexample never
// visits a chaotic state. It never predicts a test: one learned successor
// of a nondeterministic model says nothing about its siblings.
func (s *Synthesizer) testCounterexampleNondet(sys *automata.Automaton, cex *automata.Run, kind ViolationKind, inLearnedPart bool, it *Iteration, cexSpan uint64) (bool, error) {
	// A counterexample that never visits a chaotic state can be certified
	// by the model alone, without replay: every transition on such a run
	// is a learned transition — behavior that was actually observed — so
	// the run is a real path of the integrated system. The one thing such
	// a run may still hypothesize is a *refusal*: a path that violates the
	// property by stopping early (a deadlock end state) relies on the
	// absence of further behavior, which at a closed copy (s,0) is an
	// untested assumption. That reliance is always at the final state —
	// path-existential violations need no refusals along the way — and it
	// is discharged exactly when the open-copy sibling of the final state
	// is deadlocked too: then even assuming arbitrary further behavior,
	// nothing composes with the context beyond the certified blocks.
	//
	// Replay could not confirm these runs anyway: the fair round-robin
	// schedule never resolves the same duplicate branch the same way
	// twice in a row, so a run that takes one branch at two separate
	// visits of the same (state, input) is unrealizable per-execution
	// even though each transition is real.
	if inLearnedPart {
		final := cex.States[len(cex.States)-1]
		reliesOnDeadlock := kind == ViolationDeadlock || sys.IsDeadlock(final)
		if !reliesOnDeadlock || openCopyDeadlocked(sys, final) {
			if kind == ViolationDeadlock {
				it.Test = TestConfirmedDeadlock
			} else {
				it.Test = TestRealizable
			}
			if j := s.opts.Journal; j.Enabled() {
				j.Emit(obs.Event{Kind: obs.KindNote, Iter: it.Index,
					Trace: s.traceID, Parent: cexSpan,
					S: map[string]string{"note": "counterexample certified: all transitions learned, no chaotic state visited"}})
			}
			return true, nil
		}
	}

	c := s.comps[0]
	proj, err := sys.ProjectRun(*cex, c.iface.Name)
	if err != nil {
		return false, fmt.Errorf("core: project counterexample: %w", err)
	}
	inputs := make([]automata.SignalSet, len(proj.Steps))
	outputs := make([]automata.SignalSet, len(proj.Steps))
	for i, step := range proj.Steps {
		inputs[i] = step.In
		outputs[i] = step.Out
	}
	// The recording is synthesized from the projection instead of taped
	// from a live execution: the hypothesized run itself is the divergence
	// baseline the ioco check needs. This also keeps every real execution
	// inside ReplayNondet, where it is observed, learned, and counted — a
	// live Record pass monitors messages only (no state probes), so its
	// scheduler turns would be invisible to the fair-visit counters and
	// shift the round-robin phase out from under the completeness budget.
	rec := replay.Recording{Iface: c.iface, Inputs: inputs, Outputs: outputs, BlockedAt: -1}
	it.Recording = &rec

	for attempt := 0; attempt < nondetAttempts; attempt++ {
		if err := s.runCtx().Err(); err != nil {
			return false, fmt.Errorf("core: nondet test aborted: %w", err)
		}
		var observed automata.ObservedRun
		var divs []replay.Divergence
		if err := s.phase(it, phaseReplay, func() error {
			s.testsRun++
			s.resetsUsed++
			var err error
			if observed, divs, err = replay.ReplayNondet(c.comp, rec, c.model); err != nil {
				return fmt.Errorf("core: nondet replay failed: %w", err)
			}
			for _, d := range divs {
				if !d.Allowed {
					// The fragment explicitly refutes what the component
					// just did: a learned refusal (completeness block) was
					// wrong, which falsifies the fairness assumption or the
					// completeness budget. Surface it instead of merging.
					return fmt.Errorf("core: observation contradicts learned refusal: %s", d)
				}
			}
			return s.learnFair(c, observed, it)
		}, func() obs.Event {
			return s.componentEvent(obs.KindReplayStep, c, cexSpan, map[string]int64{
				"periods":    int64(len(observed.Steps)),
				"blocked_at": int64(rec.BlockedAt),
				"diverged":   int64(len(divs)),
				"attempt":    int64(attempt),
			}, map[string]string{"trace": replay.ReplayTrace(c.iface, observed, true).Render()})
		}); err != nil {
			return false, err
		}
		if attempt == 0 {
			it.replayed, it.nondet = &observed, true
		}
		if j := s.opts.Journal; j.Enabled() {
			for _, d := range divs {
				recorded := d.Recorded.String()
				if d.RecordedRefused {
					recorded = "refused"
				}
				observedStr := d.Observed.String()
				if d.ObservedRefused {
					observedStr = "refused"
				}
				j.Emit(obs.Event{Kind: obs.KindIocoMerge, Iter: it.Index,
					Trace: s.traceID, Parent: cexSpan,
					N: map[string]int64{
						"period":  int64(d.Period),
						"allowed": b2i(d.Allowed),
					}, S: map[string]string{
						"state":    d.State,
						"input":    d.Input.String(),
						"observed": observedStr,
						"recorded": recorded,
					}})
			}
		}

		if _, full := s.matchProjection(proj, observed); full {
			final := cex.States[len(cex.States)-1]
			if kind != ViolationDeadlock && !sys.IsDeadlock(final) {
				it.Test = TestRealizable
				return true, nil
			}
			return s.probeDeadlockNondet(sys, cex, inputs, finalState(observed), it, cexSpan)
		}
	}

	// The attempts budget is spent without reproducing the run. Whatever
	// the attempts did observe has been merged, and matured (state, input)
	// pairs have been settled or refuted along the way — the next closure
	// shrinks accordingly.
	//
	// A deadlock-relying counterexample can still be decided: ProbeNondet
	// re-executes the input plan itself, so sampling the context's offers
	// at the final state does not require one of the attempts above to
	// have realized the full run — which correlated branch cursors can
	// prevent forever (the cursor of a downstream pair may advance an
	// exact multiple of its degree between successive runs that reach
	// it). The probe needs a real final state to re-find; a chaotic
	// projection has none.
	if kind == ViolationDeadlock || sys.IsDeadlock(cex.States[len(cex.States)-1]) {
		name := proj.StateNames[len(proj.StateNames)-1]
		if name != automata.ChaosAllState && name != automata.ChaosDeltaState &&
			c.model.Automaton().State(name) != automata.NoState {
			return s.probeDeadlockNondet(sys, cex, inputs, name, it, cexSpan)
		}
	}
	it.Test = TestDiverged
	return false, nil
}

// matchProjection measures how far an observed run reproduces the
// counterexample's projection onto the component. A step matches when its
// output equals the projected output and — where the projection names a
// learned (non-chaotic) state — the introspected successor matches too.
// Chaotic expected states are wildcards: the projection's impl leaf holds
// no real name there.
func (s *Synthesizer) matchProjection(proj automata.ProjectedRun, observed automata.ObservedRun) (int, bool) {
	n := 0
	for i := range proj.Steps {
		if i >= len(observed.Steps) {
			break
		}
		step := observed.Steps[i]
		if !step.Label.Out.Equal(proj.Steps[i].Out) {
			break
		}
		if exp := proj.StateNames[i+1]; exp != automata.ChaosAllState && exp != automata.ChaosDeltaState && step.To != exp {
			break
		}
		n++
	}
	return n, n == len(proj.Steps) && observed.Blocked == nil
}

// learnFair merges an observed run into c's model (learnObservation), then
// advances the fair-visit counter of every (state, input) the run stepped
// through — once per pair, however often the run revisited it — and
// settles each pair whose counter reaches the completeness budget: after
// nondetCompleteness fair visits every duplicate branch under the input
// has appeared, so unobserved outputs become refusals (T̄) and each
// learned label is settled. A branch surfacing after its label was
// refuted falsifies the budget and is surfaced by Learn as a
// contradiction. Merging the whole run first lets a maturity triggered by
// an early step see branches the same run revealed later.
func (s *Synthesizer) learnFair(c *component, run automata.ObservedRun, it *Iteration) error {
	if err := s.learnObservation(c, run, it); err != nil {
		return err
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
		v := s.nondetVisits[k]
		if v == nil {
			v = &nondetVisit{in: step.Label.In}
			s.nondetVisits[k] = v
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

// errProbeUnreached ends a nondeterministic probe span whose re-executions
// never reached the final state: with no result it is not recorded as a
// probe, and its time stays in the test span.
var errProbeUnreached = errors.New("core: nondet probe did not reach its final state")

// probeDeadlockNondet tests a composed deadlock against a
// nondeterministic component: for every interaction the context offers at
// the end of the counterexample, the out-set of the component at the real
// final state is checked against the learned model and then sampled until
// either the matching output appears (the offer is jointly possible —
// deadlock refuted) or the input is refused (decisive — refusals are per
// (state, input) deterministic). A sampling budget that runs dry decides
// nothing and refutes the claim conservatively; the sampled runs are
// learned, so fair-visit maturity converges the model until the deadlock
// is either certified chaos-free or gone.
func (s *Synthesizer) probeDeadlockNondet(sys *automata.Automaton, cex *automata.Run, inputs []automata.SignalSet, final string, it *Iteration, cexSpan uint64) (bool, error) {
	c := s.comps[0]
	ctxState, err := ContextStateAt(s.context, sys, cex.States[len(cex.States)-1])
	if err != nil {
		return false, err
	}
	// A synthetic recording: ProbeNondet only needs the input plan (its
	// prefix re-executions follow actual behavior, not recorded outputs).
	recProbe := replay.Recording{Iface: c.iface, Inputs: inputs, BlockedAt: -1}

	jointPossible := false
	refused := make(map[string]bool)             // input key -> refused at final
	outsSeen := make(map[string]map[string]bool) // input key -> output keys sampled
	samples := make(map[string]int)              // input key -> accepted samples
	decided := make(map[string]bool)             // inKey|wantKey -> handled

	for _, offer := range s.context.TransitionsFrom(ctxState) {
		if !offer.Label.Out.SubsetOf(c.iface.Inputs) {
			continue
		}
		in := offer.Label.Out
		want := offer.Label.In.Intersect(c.iface.Outputs)
		key := in.Key() + "|" + want.Key()
		if decided[key] {
			continue
		}
		decided[key] = true
		if refused[in.Key()] {
			continue
		}
		if outsSeen[in.Key()][want.Key()] {
			jointPossible = true
			continue
		}
		// Model first: a learned transition at the final state matching
		// the offer is behavior that was actually observed, so the joint
		// step is possible without drawing a single sample.
		if id := c.model.Automaton().State(final); id != automata.NoState {
			if len(c.model.Automaton().Successors(id, automata.Interaction{In: in, Out: want})) > 0 {
				jointPossible = true
				continue
			}
		}
		for samples[in.Key()] < nondetCompleteness {
			if err := s.runCtx().Err(); err != nil {
				return false, fmt.Errorf("core: nondet probe aborted: %w", err)
			}
			var result replay.ProbeResult
			err := s.phase(it, phaseProbe, func() error {
				r, runs, reached, err := replay.ProbeNondet(c.comp, recProbe, in, final, nondetAttempts)
				if err != nil {
					return fmt.Errorf("core: nondet probe: %w", err)
				}
				result = r
				for _, run := range runs {
					s.resetsUsed++
					if err := s.learnFair(c, run, it); err != nil {
						return err
					}
				}
				if !reached {
					return errProbeUnreached
				}
				it.Probes = append(it.Probes, result)
				return nil
			}, func() obs.Event {
				return s.probeResult(c, cexSpan, result)
			})
			if errors.Is(err, errProbeUnreached) {
				// The final state did not recur within the try budget; the
				// offer stays undecided, which conservatively refutes the
				// deadlock claim for this iteration.
				jointPossible = true
				break
			}
			if err != nil {
				return false, err
			}
			if !result.Accepted {
				// Refusals are deterministic per (state, input): decisive.
				refused[in.Key()] = true
				break
			}
			if outsSeen[in.Key()] == nil {
				outsSeen[in.Key()] = make(map[string]bool)
			}
			outsSeen[in.Key()][result.Output.Key()] = true
			samples[in.Key()]++
			if result.Output.Equal(want) {
				jointPossible = true
				break
			}
		}
		if !refused[in.Key()] && !outsSeen[in.Key()][want.Key()] {
			// The budget ran out without the matching output or an input
			// refusal. Sampling is not fair here — the prefix re-execution
			// that reaches the final state can phase-lock the round-robin
			// schedule and starve a real branch — so exhaustion decides
			// nothing: the offer stays open, which refutes the deadlock
			// claim for this iteration. The sampled runs were learned, so
			// fair-visit maturity will either surface the missing output
			// or certify its refusal, at which point the counterexample is
			// confirmed model-based (chaos-free certification) instead.
			jointPossible = true
		}
	}

	if jointPossible {
		it.Test = TestDiverged
		return false, nil
	}
	it.Test = TestConfirmedDeadlock
	return true, nil
}
