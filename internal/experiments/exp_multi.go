package experiments

import (
	"fmt"
	"strings"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/legacy"
)

// multiService builds a deterministic ping service for the coordinator
// demo. When mute is true it swallows the ping and never answers.
func multiService(idx string, mute bool) (legacy.Component, legacy.Interface) {
	ping := automata.Signal("ping" + idx)
	pong := automata.Signal("pong" + idx)
	steps := map[string]map[string]legacy.FuncStep{
		"idle": {"": {To: "idle"}, string(ping): {To: "got"}},
	}
	if mute {
		steps["got"] = map[string]legacy.FuncStep{"": {To: "got"}}
	} else {
		steps["got"] = map[string]legacy.FuncStep{"": {Out: []automata.Signal{pong}, To: "idle"}}
	}
	comp := &legacy.FuncComponent{Name: "service" + idx, Initial: "idle", Next: steps}
	iface := legacy.Interface{
		Name:    "service" + idx,
		Inputs:  automata.NewSignalSet(ping),
		Outputs: automata.NewSignalSet(pong),
	}
	return comp, iface
}

// TwoServiceDemo is the two-component demo of the paper's §7 extension: a
// coordinator context that polls two independent black-box services in
// sequence (send ping1, await pong1, send ping2, await pong2, repeat),
// together with the services. With mute the second service swallows its
// ping and never answers.
func TwoServiceDemo(mute bool) (*automata.Automaton, []legacy.Component, []legacy.Interface) {
	c := automata.New("coordinator",
		automata.NewSignalSet("pong1", "pong2"),
		automata.NewSignalSet("ping1", "ping2"))
	c0 := c.MustAddState("askFirst")
	c1 := c.MustAddState("awaitFirst")
	c2 := c.MustAddState("askSecond")
	c3 := c.MustAddState("awaitSecond")
	c.MustAddTransition(c0, automata.Interact(nil, []automata.Signal{"ping1"}), c1)
	c.MustAddTransition(c1, automata.Interact([]automata.Signal{"pong1"}, nil), c2)
	c.MustAddTransition(c2, automata.Interact(nil, []automata.Signal{"ping2"}), c3)
	c.MustAddTransition(c3, automata.Interact([]automata.Signal{"pong2"}, nil), c0)
	c.MarkInitial(c0)
	comp1, iface1 := multiService("1", false)
	comp2, iface2 := multiService("2", mute)
	return c, []legacy.Component{comp1, comp2}, []legacy.Interface{iface1, iface2}
}

// RunE14 exercises the paper's §7 future-work extension: parallel learning
// of multiple legacy components against one coordinating context. Both
// models improve per iteration, healthy services are proven, and a mute
// second service is convicted with a real deadlock.
func RunE14() (*Result, error) {
	var b strings.Builder

	run := func(title string, mute2 bool) (*core.Report, error) {
		coordinator, comps, ifaces := TwoServiceDemo(mute2)
		m, err := core.NewMulti(coordinator, comps, ifaces, core.Options{})
		if err != nil {
			return nil, err
		}
		report, err := m.Run()
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(&b, "%s: verdict=%v (%v) after %d iterations; learned %d+%d states, %d+%d transitions\n",
			title, report.Verdict, report.Kind, len(report.Iterations),
			report.Models[0].Automaton().NumStates(), report.Models[1].Automaton().NumStates(),
			report.Models[0].Automaton().NumTransitions(), report.Models[1].Automaton().NumTransitions())
		return report, nil
	}

	healthy, err := run("two healthy services", false)
	if err != nil {
		return nil, err
	}
	faulty, err := run("second service mute  ", true)
	if err != nil {
		return nil, err
	}
	if faulty.Verdict == core.VerdictViolation {
		fmt.Fprintf(&b, "\nwitness of the mute-service deadlock:\n%s", faulty.WitnessText())
	}

	bothLearned := healthy.Models[0].Automaton().NumTransitions() > 0 &&
		healthy.Models[1].Automaton().NumTransitions() > 0
	match := healthy.Verdict == core.VerdictProven &&
		faulty.Verdict == core.VerdictViolation &&
		faulty.Kind == core.ViolationDeadlock &&
		bothLearned

	return &Result{
		ID:            "E14",
		Title:         "Multi-component parallel learning (§7 extension)",
		PaperArtifact: "§7: \"the iterative synthesis will then improve all these models in parallel\"",
		Expectation:   "both components learned in one loop; healthy pair proven, mute service convicted with a real deadlock",
		Measured: fmt.Sprintf("healthy=%v, faulty=%v/%v, both models learned=%v",
			healthy.Verdict, faulty.Verdict, faulty.Kind, bothLearned),
		Match:   match,
		Details: b.String(),
	}, nil
}
