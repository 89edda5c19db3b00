package batch

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"muml/internal/crossing"
	"muml/internal/ctl"
	"muml/internal/gen"
	"muml/internal/legacy"
)

// GenItems returns n seeded generator instances (seeds seed, seed+1, …)
// drawn from cfg, named "gen-<seed>". Generation happens inside Build, on
// the running worker.
func GenItems(seed int64, n int, cfg gen.Config) []Item {
	items := make([]Item, n)
	for k := 0; k < n; k++ {
		s := seed + int64(k)
		items[k] = Item{
			Name:  fmt.Sprintf("gen-%d", s),
			Build: genBuild(s, cfg),
		}
	}
	return items
}

func genBuild(seed int64, cfg gen.Config) func() (Problem, error) {
	return func() (Problem, error) {
		inst, err := gen.New(seed, cfg)
		if err != nil {
			return Problem{}, err
		}
		comp, err := inst.Component()
		if err != nil {
			return Problem{}, err
		}
		return Problem{
			Context:   inst.Context,
			Component: comp,
			Interface: inst.Interface(),
			Property:  inst.Property,
		}, nil
	}
}

// ScenarioItems returns the railroad-crossing example scenarios (the
// paper's running example): each gate-controller variant against the train
// role, for both the safety constraint and the closure-deadline property.
func ScenarioItems() []Item {
	return []Item{
		{Name: "crossing-swift-constraint", Build: crossingBuild(crossing.SwiftGate, crossing.Constraint)},
		{Name: "crossing-sluggish-constraint", Build: crossingBuild(crossing.SluggishGate, crossing.Constraint)},
		{Name: "crossing-stuck-constraint", Build: crossingBuild(crossing.StuckGate, crossing.Constraint)},
		{Name: "crossing-swift-deadline", Build: crossingBuild(crossing.SwiftGate, crossing.ClosureDeadline)},
	}
}

func crossingBuild(gate func() legacy.Component, prop func() ctl.Formula) func() (Problem, error) {
	return func() (Problem, error) {
		return Problem{
			Context:   crossing.TrainRole(),
			Component: gate(),
			Interface: crossing.GateInterface(),
			Property:  prop(),
		}, nil
	}
}

// manifestEntry is one line of a JSONL batch manifest: a seeded generator
// instance with an optional config selection and name.
type manifestEntry struct {
	// Name defaults to "gen-<seed>" ("gen-<seed>-wide" for wide entries).
	Name string `json:"name,omitempty"`
	Seed int64  `json:"seed"`
	// Config selects the generator distribution: "default" (or empty) or
	// "wide" (a 70-signal alphabet, past one machine word of interner mask).
	Config string `json:"config,omitempty"`
	// MaxStates, when positive, overrides the legacy-automaton size bound.
	MaxStates int `json:"max_states,omitempty"`
}

// maxManifestLine is the longest manifest line ManifestItems accepts, in
// bytes without its newline: just under 1 MiB.
const maxManifestLine = 1<<20 - 1

// ManifestItems parses a JSONL manifest (one entry per line; blank lines
// and #-comment lines skipped) into batch items. A line holds exactly one
// JSON object; anything after it but blanks is an error, and so is a line
// longer than maxManifestLine. Example line:
//
//	{"seed": 42, "config": "wide", "max_states": 5}
func ManifestItems(r io.Reader) ([]Item, error) {
	var items []Item
	sc := bufio.NewScanner(r)
	// The buffer starts at bufio's default size, which holds a typical
	// entry of some 40 bytes, and grows up to the longest line plus its
	// newline.
	sc.Buffer(nil, maxManifestLine+1)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		trimmed := 0
		for trimmed < len(raw) && (raw[trimmed] == ' ' || raw[trimmed] == '\t') {
			trimmed++
		}
		raw = raw[trimmed:]
		if len(raw) == 0 || raw[0] == '#' {
			continue
		}
		var e manifestEntry
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&e); err != nil {
			return nil, fmt.Errorf("batch: manifest line %d: %w", line, err)
		}
		if rest := bytes.TrimLeft(raw[dec.InputOffset():], " \t\r"); len(rest) > 0 {
			return nil, fmt.Errorf("batch: manifest line %d: trailing data after the entry", line)
		}
		var cfg gen.Config
		suffix := ""
		switch e.Config {
		case "", "default":
			cfg = gen.DefaultConfig()
		case "wide":
			cfg = gen.WideConfig()
			suffix = "-wide"
		default:
			return nil, fmt.Errorf("batch: manifest line %d: unknown config %q", line, e.Config)
		}
		if e.MaxStates > 0 {
			cfg.MaxLegacyStates = e.MaxStates
		}
		name := e.Name
		if name == "" {
			name = fmt.Sprintf("gen-%d%s", e.Seed, suffix)
		}
		items = append(items, Item{Name: name, Build: genBuild(e.Seed, cfg)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("batch: manifest line %d: %w", line+1, err)
	}
	return items, nil
}
