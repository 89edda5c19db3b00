package experiments

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"muml/internal/automata"
	"muml/internal/ctl"
	"muml/internal/gen"
)

// CTLScenario records one CTL-engine benchmark scenario: the same formula
// suite evaluated over the same systems by the frozen legacy Reference
// engine (legacy_check_ns) and by the bitset Checker (check_ns). Every
// figure is the median of timingRepeats fresh-engine runs. Speedup is
// legacy over bitset; the bench-check gate compares check_ns only (the
// legacy column is context).
type CTLScenario struct {
	Name          string  `json:"name"`
	Systems       int     `json:"systems"`
	States        int     `json:"states"`
	Transitions   int     `json:"transitions"`
	Formulas      int     `json:"formulas"`
	LegacyCheckNS int64   `json:"legacy_check_ns"`
	CheckNS       int64   `json:"check_ns"`
	Speedup       float64 `json:"speedup"`
}

// ctlWorkload is one scenario's inputs: a set of systems, each with its
// probe formula suite.
type ctlWorkload struct {
	name    string
	assert  bool // scenario must meet the minimum speedup
	systems []*automata.Automaton
	suites  [][]ctl.Formula
}

// CollectCTLBench measures the CTL scenarios and fails when an asserted
// scenario's legacy-over-bitset speedup falls below minSpeedup. Verdict
// agreement between the two engines is checked on every system and
// formula before anything is timed.
func CollectCTLBench(minSpeedup float64) ([]CTLScenario, error) {
	workloads, err := ctlWorkloads()
	if err != nil {
		return nil, err
	}
	out := make([]CTLScenario, 0, len(workloads))
	for _, w := range workloads {
		sc, err := measureCTLWorkload(w)
		if err != nil {
			return nil, err
		}
		if w.assert && sc.Speedup < minSpeedup {
			return nil, fmt.Errorf("ctl bench: scenario %s speedup %.2fx is below the %.1fx floor (legacy %dns vs bitset %dns)",
				sc.Name, sc.Speedup, minSpeedup, sc.LegacyCheckNS, sc.CheckNS)
		}
		out = append(out, *sc)
	}
	return out, nil
}

// ctlWorkloads builds the benchmark inputs. The layered scenarios are
// synthetic product-shaped systems at sizes the generator's synchronized
// compositions cannot reach (a context × legacy product dies within a
// handful of states once either side refuses); they are where the
// asymptotic gap — frontier fixpoints vs sweep-to-stabilization — must
// show, so they carry the speedup assertion. The gen scenarios keep the
// engines honest on the distribution production call sites actually see:
// small compositions where per-check overhead dominates and no speedup is
// claimed.
func ctlWorkloads() ([]ctlWorkload, error) {
	deep := ctlLayered(64, 256)
	veryDeep := ctlLayered(32, 1024)
	broad := ctlLayered(256, 128)
	workloads := []ctlWorkload{
		{name: "layered-deep", assert: true,
			systems: []*automata.Automaton{deep}, suites: [][]ctl.Formula{ctlProbes(deep)}},
		{name: "layered-very-deep", assert: true,
			systems: []*automata.Automaton{veryDeep}, suites: [][]ctl.Formula{ctlProbes(veryDeep)}},
		{name: "layered-broad", assert: true,
			systems: []*automata.Automaton{broad}, suites: [][]ctl.Formula{ctlProbes(broad)}},
	}

	corpus := ctlWorkload{name: "gen-corpus"}
	for seed := int64(1); seed <= 32; seed++ {
		sys, err := ctlGenSystem(seed, gen.DefaultConfig())
		if err != nil {
			return nil, err
		}
		corpus.systems = append(corpus.systems, sys)
		corpus.suites = append(corpus.suites, ctlProbes(sys))
	}
	workloads = append(workloads, corpus)

	wide := ctlWorkload{name: "gen-wide"}
	for seed := int64(1); seed <= 8; seed++ {
		sys, err := ctlGenSystem(seed, gen.WideConfig())
		if err != nil {
			return nil, err
		}
		wide.systems = append(wide.systems, sys)
		wide.suites = append(wide.suites, ctlProbes(sys))
	}
	workloads = append(workloads, wide)
	return workloads, nil
}

func ctlGenSystem(seed int64, cfg gen.Config) (*automata.Automaton, error) {
	inst, err := gen.New(seed, cfg)
	if err != nil {
		return nil, fmt.Errorf("ctl bench: gen seed %d: %w", seed, err)
	}
	sys, err := inst.TrueComposition()
	if err != nil {
		return nil, fmt.Errorf("ctl bench: compose seed %d: %w", seed, err)
	}
	return sys, nil
}

// ctlProbes builds a scenario suite covering every fixpoint family —
// unbounded AG/EG/AF, both until operators, bounded layers, and backward
// reachability — over the system's own propositions.
func ctlProbes(sys *automata.Automaton) []ctl.Formula {
	props := sys.AllPropositions()
	atom := func(i int) ctl.Formula {
		if len(props) == 0 {
			return ctl.True
		}
		return ctl.Atom(props[i%len(props)])
	}
	p, q := atom(0), atom(1)
	return []ctl.Formula{
		ctl.NoDeadlock(),
		ctl.AG(ctl.Implies(p, ctl.AF(q))),
		ctl.EG(p),
		ctl.AU(ctl.Not(q), p),
		ctl.EU(ctl.Not(p), q),
		ctl.AFWithin(0, 32, q),
		ctl.AGWithin(0, 32, ctl.Or(p, ctl.Not(q))),
		ctl.EF(ctl.Deadlock),
	}
}

// measureCTLWorkload checks verdict agreement, then times both engines.
// Each timed sample creates fresh engines per system, so a sample covers
// everything a production call pays: reverse-adjacency (or CSR)
// construction, scratch allocation, and the fixpoints themselves.
func measureCTLWorkload(w ctlWorkload) (*CTLScenario, error) {
	for i, sys := range w.systems {
		ref := ctl.NewReference(sys)
		checker := ctl.NewChecker(sys)
		for _, f := range w.suites[i] {
			want := ref.Holds(f)
			if got := checker.Holds(f); got != want {
				return nil, fmt.Errorf("ctl bench: %s system %d: bitset disagrees with legacy on %s (legacy %v, bitset %v)",
					w.name, i, f, want, got)
			}
		}
	}

	sc := &CTLScenario{Name: w.name, Systems: len(w.systems)}
	for i, sys := range w.systems {
		sc.States += sys.NumStates()
		sc.Transitions += sys.NumTransitions()
		sc.Formulas += len(w.suites[i])
	}

	sc.LegacyCheckNS = ctlMedianNS(func() {
		for i, sys := range w.systems {
			ref := ctl.NewReference(sys)
			for _, f := range w.suites[i] {
				ref.Holds(f)
			}
		}
	})
	sc.CheckNS = ctlMedianNS(func() {
		for i, sys := range w.systems {
			c := ctl.NewChecker(sys)
			for _, f := range w.suites[i] {
				c.Holds(f)
			}
		}
	})
	if sc.CheckNS > 0 {
		sc.Speedup = float64(sc.LegacyCheckNS) / float64(sc.CheckNS)
	}
	return sc, nil
}

// ctlMedianNS times fn timingRepeats times and returns the median, the
// same noise discipline as the other collectors.
func ctlMedianNS(fn func()) int64 {
	samples := make([]int64, 0, timingRepeats)
	for r := 0; r < timingRepeats; r++ {
		start := time.Now()
		fn()
		samples = append(samples, time.Since(start).Nanoseconds())
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[len(samples)/2]
}

// ctlLayered builds width×depth states in layers with a three-way fan-out
// to the next layer and a few back edges for cyclic structure — the
// deep-product shape on which sweep-to-stabilization fixpoints pay a full
// state sweep per peeled layer.
func ctlLayered(width, depth int) *automata.Automaton {
	a := automata.New("layers", automata.NewSignalSet("x"), automata.EmptySet)
	x := automata.Interact([]automata.Signal{"x"}, nil)
	ids := make([][]automata.StateID, depth)
	for l := 0; l < depth; l++ {
		ids[l] = make([]automata.StateID, width)
		for w := 0; w < width; w++ {
			var labels []automata.Proposition
			if (l*31+w*7)%5 == 0 {
				labels = append(labels, "p")
			}
			if (l+w)%11 == 0 {
				labels = append(labels, "q")
			}
			ids[l][w] = a.MustAddState(fmt.Sprintf("l%dw%d", l, w), labels...)
		}
	}
	for l := 0; l+1 < depth; l++ {
		for w := 0; w < width; w++ {
			for k := 0; k < 3; k++ {
				// Duplicate (from,label,to) triples are skipped.
				_ = a.AddTransition(ids[l][w], x, ids[l+1][(w*5+k*13)%width])
			}
		}
	}
	for w := 0; w < width; w += 17 {
		_ = a.AddTransition(ids[depth-1][w], x, ids[0][w])
	}
	a.MarkInitial(ids[0][0])
	return a
}

// MarshalCTLBench renders the scenarios as an indented top-level JSON
// array (the BENCH_ctl.json shape).
func MarshalCTLBench(scenarios []CTLScenario) ([]byte, error) {
	data, err := json.MarshalIndent(scenarios, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("marshal ctl report: %w", err)
	}
	return data, nil
}
