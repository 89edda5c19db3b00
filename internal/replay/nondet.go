package replay

import (
	"fmt"

	"muml/internal/automata"
	"muml/internal/legacy"
)

// Nondeterministic replay (DESIGN.md §13). The deterministic Replay treats
// any divergence from the recording as a fatal falsification of Section
// 4.3's determinism assumption. For real black boxes that duplicate, race,
// and drop, divergence is expected: ReplayNondet follows the component's
// *actual* behavior, reports where it left the recording, and classifies
// each divergence against the learned fragment — divergent-but-allowed
// observations are merge candidates for Learn on a nondeterministic model
// (automata.NewNondetIncomplete), and only observations the fragment
// explicitly refutes are escapes.

// Divergence is one point where a nondeterministic re-execution departed
// from the recording.
type Divergence struct {
	Period int    // 0-based period index
	State  string // component state before the period (replay instrumentation)
	Input  automata.SignalSet
	// Recorded/Observed are the outputs of the recording and of this
	// re-execution. When one side refused the input, its Refused flag is
	// set and the output is empty.
	Recorded        automata.SignalSet
	Observed        automata.SignalSet
	RecordedRefused bool
	ObservedRefused bool
	// Allowed reports whether the observation is consistent with the
	// learned fragment (a merge candidate). Only a divergence the fragment
	// explicitly blocks is an escape.
	Allowed bool
}

func (d Divergence) String() string {
	obs := d.Observed.String()
	if d.ObservedRefused {
		obs = "refused"
	}
	rec := d.Recorded.String()
	if d.RecordedRefused {
		rec = "refused"
	}
	return fmt.Sprintf("period %d at %q under %v: observed %s, recorded %s",
		d.Period+1, d.State, d.Input, obs, rec)
}

// ReplayNondet re-executes the recorded input plan with full
// instrumentation, following the component's actual behavior instead of
// failing on divergence. The observed run reflects what actually happened
// (including a final refusal as a blocked interaction), so it can be merged
// into a nondeterministic model with Learn; ReplayTrace with nondet set
// renders it, periods in which the component produced no output as explicit
// [Quiescence] events — the δ observation. fragment may be nil, in which
// case every divergence is classified Allowed.
//
// The re-execution stops early only if the component refuses an input; the
// refusal is itself reported as a divergence when the recording accepted
// that period.
func ReplayNondet(comp legacy.Component, rec Recording, fragment *automata.Incomplete) (automata.ObservedRun, []Divergence, error) {
	defer forget(comp)
	if pa, ok := comp.(ProbeAware); ok {
		pa.SetHeavyProbes(true)
		defer pa.SetHeavyProbes(false)
	}
	obsNondetReplays.Add(1)
	obsResets.Add(1)
	comp.Reset()
	var divs []Divergence
	run := automata.ObservedRun{Initial: stateName(comp)}

	allowed := func(state string, x automata.Interaction) bool {
		return fragment == nil || fragment.AllowsObservation(state, x)
	}

	for period, in := range rec.Inputs {
		before := stateName(comp)
		recRefused := !rec.Completed() && period == rec.BlockedAt
		out, ok := comp.Step(in)
		if !ok {
			if !recRefused {
				obsDivergences.Add(1)
				divs = append(divs, Divergence{
					Period: period, State: before, Input: in,
					Recorded:        rec.Outputs[period],
					ObservedRefused: true,
					Allowed:         true, // refusals refute nothing; Learn audits them
				})
			}
			blocked := automata.Interaction{In: in}
			run.Blocked = &blocked
			return run, divs, nil
		}
		if recRefused {
			obsDivergences.Add(1)
			divs = append(divs, Divergence{
				Period: period, State: before, Input: in,
				Observed:        out,
				RecordedRefused: true,
				Allowed:         allowed(before, automata.Interaction{In: in, Out: out}),
			})
		} else if !out.Equal(rec.Outputs[period]) {
			obsDivergences.Add(1)
			divs = append(divs, Divergence{
				Period: period, State: before, Input: in,
				Recorded: rec.Outputs[period],
				Observed: out,
				Allowed:  allowed(before, automata.Interaction{In: in, Out: out}),
			})
		}
		if out.IsEmpty() {
			obsQuiescences.Add(1)
		}
		run.Steps = append(run.Steps, automata.ObservedStep{
			Label: automata.Interaction{In: in, Out: out},
			To:    stateName(comp),
		})
	}
	return run, divs, nil
}

// ProbeNondet asks "what can the component do under in at wantState?" for
// a component whose re-executions need not land where the recording did.
// It re-executes the recorded input plan up to tries times, following
// actual behavior; whenever the prefix ends in wantState it performs the
// probe step and returns. Every attempt's observed prefix run is returned
// (probe step or refusal included on the successful attempt) so the caller
// can merge the free observations. reached is false if no attempt ended in
// wantState — under a fair component that means the recording's landing
// state was not revisited within the try budget.
func ProbeNondet(comp legacy.Component, rec Recording, in automata.SignalSet, wantState string, tries int) (ProbeResult, []automata.ObservedRun, bool, error) {
	if !rec.Completed() {
		return ProbeResult{}, nil, false, fmt.Errorf("replay: cannot probe past a blocked recording")
	}
	if tries < 1 {
		tries = 1
	}
	defer forget(comp)
	if pa, ok := comp.(ProbeAware); ok {
		pa.SetHeavyProbes(true)
		defer pa.SetHeavyProbes(false)
	}
	var runs []automata.ObservedRun
	for try := 0; try < tries; try++ {
		obsNondetProbes.Add(1)
		obsResets.Add(1)
		comp.Reset()
		run := automata.ObservedRun{Initial: stateName(comp)}
		blocked := false
		for _, recIn := range rec.Inputs {
			out, ok := comp.Step(recIn)
			if !ok {
				b := automata.Interaction{In: recIn}
				run.Blocked = &b
				blocked = true
				break
			}
			run.Steps = append(run.Steps, automata.ObservedStep{
				Label: automata.Interaction{In: recIn, Out: out},
				To:    stateName(comp),
			})
		}
		if blocked || stateName(comp) != wantState {
			runs = append(runs, run)
			continue
		}
		out, ok := comp.Step(in)
		if ok {
			obsProbesAccepted.Add(1)
			run.Steps = append(run.Steps, automata.ObservedStep{
				Label: automata.Interaction{In: in, Out: out},
				To:    stateName(comp),
			})
		} else {
			obsProbesRefused.Add(1)
			b := automata.Interaction{In: in}
			run.Blocked = &b
		}
		runs = append(runs, run)
		return ProbeResult{
			State:     wantState,
			Input:     in,
			Output:    out,
			Accepted:  ok,
			Quiescent: !ok && in.IsEmpty(),
			After:     stateName(comp),
		}, runs, true, nil
	}
	return ProbeResult{}, runs, false, nil
}
