package automata_test

import (
	"fmt"

	"muml/internal/automata"
)

// ExampleCompose demonstrates the synchronous parallel composition of
// Definition 3: sending and receiving happen in the same time step.
func ExampleCompose() {
	sender := automata.New("sender", automata.EmptySet, automata.NewSignalSet("msg"))
	ready := sender.MustAddState("ready")
	done := sender.MustAddState("done")
	sender.MustAddTransition(ready, automata.Interact(nil, []automata.Signal{"msg"}), done)
	sender.MustAddTransition(done, automata.Interaction{}, done)
	sender.MarkInitial(ready)

	receiver := automata.New("receiver", automata.NewSignalSet("msg"), automata.EmptySet)
	waiting := receiver.MustAddState("waiting")
	got := receiver.MustAddState("got")
	receiver.MustAddTransition(waiting, automata.Interact([]automata.Signal{"msg"}, nil), got)
	receiver.MustAddTransition(got, automata.Interaction{}, got)
	receiver.MarkInitial(waiting)

	sys, err := automata.Compose("system", sender, receiver)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("states: %d, deadlock-free: %v\n", sys.NumStates(), !deadlocks(sys))
	// Output:
	// states: 2, deadlock-free: true
}

func deadlocks(a *automata.Automaton) bool {
	_, dead := a.DeadlockReachable()
	return dead
}

// ExampleChaoticClosure shows the safe over-approximation of Definition 9:
// the closure of an empty model admits every behavior, including refusing
// everything.
func ExampleChaoticClosure() {
	a := automata.New("legacy", automata.NewSignalSet("ping"), automata.NewSignalSet("pong"))
	s0 := a.MustAddState("init")
	a.MarkInitial(s0)
	model := automata.NewIncomplete(a)

	closure := automata.ChaoticClosure(model, automata.Universe(automata.UniverseSingleton))
	fmt.Printf("states: %d (two copies of init, s_all, s_delta)\n", closure.NumStates())
	fmt.Printf("initial states: %d\n", len(closure.Initial()))
	// Output:
	// states: 4 (two copies of init, s_all, s_delta)
	// initial states: 2
}

// ExampleIncomplete_Learn merges a monitored observation into an
// incomplete automaton (Definition 11).
func ExampleIncomplete_Learn() {
	a := automata.New("legacy", automata.NewSignalSet("ping"), automata.NewSignalSet("pong"))
	s0 := a.MustAddState("idle")
	a.MarkInitial(s0)
	model := automata.NewIncomplete(a)

	delta, err := model.Learn(automata.ObservedRun{
		Initial: "idle",
		Steps: []automata.ObservedStep{{
			Label: automata.Interact([]automata.Signal{"ping"}, []automata.Signal{"pong"}),
			To:    "answered",
		}},
	}, nil)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("learned %d state(s) and %d transition(s)\n", len(delta.NewStates), len(delta.NewTransitions))
	// Output:
	// learned 1 state(s) and 1 transition(s)
}
