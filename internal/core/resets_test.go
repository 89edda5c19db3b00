package core_test

import (
	"fmt"
	"testing"

	"muml/internal/core"
	"muml/internal/gen"
	"muml/internal/legacy"
	"muml/internal/replay"
)

// resetCounter counts the resets a legacy component sees. It forwards the
// state name; the components it wraps here implement Introspector and not
// ProbeAware, so the loop drives it exactly as it drives them.
type resetCounter struct {
	legacy.Component
	resets int
}

func (c *resetCounter) Reset() {
	c.resets++
	c.Component.Reset()
}

func (c *resetCounter) StateName() string { return c.Component.(legacy.Introspector).StateName() }

// countResets runs a synthesis over comp behind a resetCounter and
// requires Stats.ResetsUsed to equal the resets the component saw.
func countResets(t *testing.T, name string, comp legacy.Component, run func(legacy.Component) (*core.Report, error)) {
	t.Helper()
	if _, ok := comp.(legacy.Introspector); !ok {
		t.Fatalf("%s: component is not an Introspector", name)
	}
	if _, ok := comp.(replay.ProbeAware); ok {
		t.Fatalf("%s: component is ProbeAware", name)
	}
	counted := &resetCounter{Component: comp}
	r, err := run(counted)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if r.Stats.ResetsUsed != counted.resets {
		t.Errorf("%s: Stats.ResetsUsed = %d, the component was reset %d times", name, r.Stats.ResetsUsed, counted.resets)
	}
}

// TestResetsUsedCountsRealResets requires Stats.ResetsUsed to be the
// number of Reset calls the component sees, over deadlock-only scenario
// machines, whose probes often step on from where the component stands,
// and default gen instances.
func TestResetsUsedCountsRealResets(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		sc := pinnedScenario(seed)
		countResets(t, fmt.Sprintf("scenario %d", seed), sc.Component, func(comp legacy.Component) (*core.Report, error) {
			synth, err := core.New(sc.Context, comp, sc.Iface, core.Options{})
			if err != nil {
				return nil, err
			}
			return synth.Run()
		})
	}
	for seed := int64(1); seed <= 400; seed++ {
		inst, err := gen.New(seed, gen.DefaultConfig())
		if err != nil {
			t.Fatalf("gen %d: %v", seed, err)
		}
		comp, err := inst.Component()
		if err != nil {
			t.Fatalf("gen %d: %v", seed, err)
		}
		countResets(t, fmt.Sprintf("gen %d", seed), comp, func(comp legacy.Component) (*core.Report, error) {
			synth, err := core.New(inst.Context, comp, inst.Interface(), core.Options{Property: inst.Property})
			if err != nil {
				return nil, err
			}
			return synth.Run()
		})
	}
}
