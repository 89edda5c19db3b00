// Command legint runs the iterative legacy-integration synthesis of the
// paper on the built-in RailCab scenarios, printing per-iteration
// counterexamples, monitored traces, and the final verdict.
//
// Usage:
//
//	legint -scenario correct|eager|blocking [-verbose] [-paper-literal]
//	legint -context ctx.json -legacy impl.json [-property "A[] not (a and b)"]
//	legint -multi [-property "A[] not service1.got"]
//	legint ... -dump-model model.json
//	legint ... -journal run.jsonl -metrics [-cpuprofile cpu.pprof]
package main

import (
	"flag"
	"fmt"
	"os"

	"muml/internal/automata"
	"muml/internal/core"
	"muml/internal/ctl"
	"muml/internal/experiments"
	"muml/internal/legacy"
	"muml/internal/obs"
	"muml/internal/railcab"
	"muml/internal/replay"
	"muml/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenario    = flag.String("scenario", "correct", "legacy controller: correct, eager, or blocking")
		contextFile = flag.String("context", "", "JSON automaton file for a custom context (with -legacy)")
		legacyFile  = flag.String("legacy", "", "JSON automaton file wrapped as the black-box legacy component")
		property    = flag.String("property", "", "CCTL property to establish (default: RailCab constraint, or ¬δ only for custom models)")
		dumpModel   = flag.String("dump-model", "", "write the final learned model (JSON) to this file")
		verbose     = flag.Bool("verbose", false, "render the event journal (counterexamples, replay traces) to stdout")
		literal     = flag.Bool("paper-literal", false, "restrict learning to Definitions 11-12 (ablation)")
		multi       = flag.Bool("multi", false, "run the two-component demo instead (Section 7 extension)")
		journalPath = flag.String("journal", "", "write the structured run journal (JSONL) to this file")
		metrics     = flag.Bool("metrics", false, "collect span timers and counters; print the table after the run")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile (with per-phase pprof labels) to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	var (
		comps   []legacy.Component
		context *automata.Automaton
		ifaces  []legacy.Interface
		prop    ctl.Formula
		title   string
	)
	switch {
	case *multi:
		// The Section 7 extension: a coordinator context polling two
		// independent black-box services, both learned in one loop.
		context, comps, ifaces = experiments.TwoServiceDemo(false)
		title = "service1 ‖ service2"
	case *contextFile != "" || *legacyFile != "":
		if *contextFile == "" || *legacyFile == "" {
			return fmt.Errorf("-context and -legacy must be given together")
		}
		var err error
		context, err = loadAutomaton(*contextFile)
		if err != nil {
			return err
		}
		legacyAuto, err := loadAutomaton(*legacyFile)
		if err != nil {
			return err
		}
		wrapped, err := legacy.WrapAutomaton(legacyAuto)
		if err != nil {
			return fmt.Errorf("legacy model must be function-deterministic: %w", err)
		}
		comps = []legacy.Component{wrapped}
		ifaces = []legacy.Interface{wrapped.InterfaceOf()}
		title = fmt.Sprintf("%s (from %s)", ifaces[0].Name, *legacyFile)
	default:
		var comp legacy.Component
		switch *scenario {
		case "correct":
			comp = &railcab.CorrectShuttle{}
		case "eager":
			comp = &railcab.EagerShuttle{}
		case "blocking":
			comp = &railcab.BlockingShuttle{}
		default:
			return fmt.Errorf("unknown scenario %q", *scenario)
		}
		context = railcab.FrontRole()
		comps = []legacy.Component{comp}
		ifaces = []legacy.Interface{railcab.RearInterface(railcab.RearRoleName)}
		prop = railcab.Constraint()
		title = *scenario
	}
	if *dumpModel != "" && len(comps) > 1 {
		return fmt.Errorf("-dump-model writes a single learned model; it cannot be combined with -multi")
	}
	if *property != "" {
		var err error
		prop, err = ctl.Parse(*property)
		if err != nil {
			return err
		}
	}

	obsOpts := obs.RunOptions{
		JournalPath: *journalPath,
		Metrics:     *metrics,
		CPUProfile:  *cpuProfile,
		MemProfile:  *memProfile,
	}
	if *verbose {
		obsOpts.Extra = obs.NewTextSink(os.Stdout)
	}
	run, err := obs.OpenRun(obsOpts)
	if err != nil {
		return err
	}
	defer run.Close()
	if run.Journal.Enabled() || run.Registry != nil {
		automata.EnableObservability(run.Journal, run.Registry)
		replay.EnableObservability(run.Registry)
		defer automata.DisableObservability()
		defer replay.DisableObservability()
	}

	opts := core.Options{
		Property:             prop,
		PaperLiteralLearning: *literal,
		MaxIterations:        200,
		Journal:              run.Journal,
		Metrics:              run.Registry,
	}
	synth, err := core.NewMulti(context, comps, ifaces, opts)
	if err != nil {
		return err
	}

	fmt.Printf("integrating legacy component %q against context %q\n", title, context.Name())
	if prop != nil {
		fmt.Printf("property: %s and deadlock freedom\n\n", prop)
	} else {
		fmt.Printf("property: deadlock freedom\n\n")
	}

	report, err := synth.Run()
	if err != nil {
		return err
	}

	for _, it := range report.Iterations {
		fmt.Printf("iteration %d: model %d states / %d transitions / %d refusals, |system| = %d\n",
			it.Index, it.ModelStates, it.ModelTransitions, it.ModelBlocked, it.SystemStates)
		if it.Counterexample == nil {
			fmt.Println("  property and deadlock freedom hold — proof complete (Lemma 5)")
			continue
		}
		fmt.Printf("  check failed (property=%v deadlock-free=%v); test outcome: %v\n",
			it.PropertyHolds, it.DeadlockFree, it.Test)
	}

	fmt.Printf("\nverdict: %v", report.Verdict)
	if report.Verdict == core.VerdictViolation {
		fmt.Printf(" (%v)\nwitness:\n%s", report.Kind, report.WitnessText())
	}
	for _, model := range report.Models {
		fmt.Printf("\nfinal learned model:\n%s", trace.RenderModel(model))
	}
	fmt.Printf("\nstats: %+v\n", report.Stats)
	if *metrics {
		fmt.Printf("\nmetrics:\n")
		run.DumpMetrics(os.Stdout)
	}

	if *dumpModel != "" {
		data, err := automata.EncodeIncompleteJSON(report.Model)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*dumpModel, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("learned model written to %s\n", *dumpModel)
	}
	return nil
}

func loadAutomaton(path string) (*automata.Automaton, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return automata.DecodeJSON(data)
}
