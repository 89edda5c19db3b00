package core_test

import (
	"testing"
	"time"

	"muml/internal/core"
	"muml/internal/gen"
	"muml/internal/obs"
	"muml/internal/railcab"
)

// TestPhaseSinksAgree runs a probing RailCab run, a pinned
// nondeterministic instance and a two-component instance, each with a
// journal and a metrics registry, and requires every phase's sinks to
// agree to the nanosecond and the observation: the journal totals
// (obs.Analyze), the report's Stats, and the core.* timer and histogram.
func TestPhaseSinksAgree(t *testing.T) {
	nondet, err := gen.New(6, gen.NondetConfig())
	if err != nil {
		t.Fatal(err)
	}
	multi, err := gen.NewMulti(49, gen.DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		new  func(core.Options) (*core.Synthesizer, error)
	}{
		{"blocking-shuttle", func(o core.Options) (*core.Synthesizer, error) {
			o.Property = railcab.Constraint()
			return core.New(railcab.FrontRole(), &railcab.BlockingShuttle{}, railcab.RearInterface(railcab.RearRoleName), o)
		}},
		{"nondet-seed-6", func(o core.Options) (*core.Synthesizer, error) {
			comp, err := nondet.Component()
			if err != nil {
				return nil, err
			}
			o.Property, o.Nondet = nondet.Property, true
			return core.New(nondet.Context, comp, nondet.Interface(), o)
		}},
		{"multi-seed-49", func(o core.Options) (*core.Synthesizer, error) {
			comps, err := multi.Components()
			if err != nil {
				return nil, err
			}
			o.Property = multi.Property
			return core.NewMulti(multi.Context, comps, multi.Interfaces(), o)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var sink obs.MemorySink
			reg := obs.NewRegistry()
			synth, err := tc.new(core.Options{Journal: obs.NewJournal(&sink), Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			r, err := synth.Run()
			if err != nil {
				t.Fatal(err)
			}
			journal := obs.Analyze(sink.Events(), 0)
			for phase, stats := range map[string]time.Duration{
				"compose": r.Stats.ComposeTime,
				"check":   r.Stats.CheckTime,
				"replay":  r.Stats.ReplayTime,
				"probe":   r.Stats.ProbeTime,
			} {
				j := journal.Phases[phase]
				timer, hist := reg.Timer("core."+phase), reg.Histogram("core."+phase)
				if j.Count == 0 {
					t.Errorf("%s: no journal event", phase)
				}
				if j.TotalNS != stats.Nanoseconds() || timer.Total() != stats || hist.SumNS() != stats.Nanoseconds() {
					t.Errorf("%s: journal %d ns, Stats %d ns, timer %d ns, histogram %d ns", phase,
						j.TotalNS, stats.Nanoseconds(), timer.Total().Nanoseconds(), hist.SumNS())
				}
				if timer.Count() != int64(j.Count) || hist.Count() != int64(j.Count) {
					t.Errorf("%s: %d journal events, %d timer and %d histogram observations", phase,
						j.Count, timer.Count(), hist.Count())
				}
			}
			if r.Stats.ReplayTime+r.Stats.ProbeTime > r.Stats.TestTime {
				t.Errorf("replay %v + probe %v exceed test time %v", r.Stats.ReplayTime, r.Stats.ProbeTime, r.Stats.TestTime)
			}
		})
	}
}
