package mbt

import (
	"os"
	"path/filepath"
	"testing"

	"muml/internal/automata"
	"muml/internal/gen"
	"muml/internal/legacy"
)

// TestCheckInstanceDeterministicSeeds is the deterministic slice of the
// soak: every seed must come out of the full oracle battery clean.
func TestCheckInstanceDeterministicSeeds(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		inst, err := gen.New(seed, gen.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if f := CheckInstance(inst, Options{}); f != nil {
			t.Fatalf("seed %d: %v", seed, f)
		}
	}
}

// TestCheckInstanceWideAlphabet runs 70-signal instances, whose labels need
// both words of the interner's mask, through the oracle battery:
// composition, chaotic closure, the delta-patched system and refinement
// take the same interned path as every other instance, and the
// incremental-equivalence oracle compares it with a from-scratch rebuild.
func TestCheckInstanceWideAlphabet(t *testing.T) {
	if testing.Short() {
		t.Skip("wide alphabets are slow in -short mode")
	}
	for seed := int64(1); seed <= 3; seed++ {
		inst, err := gen.New(seed, gen.WideConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if total := inst.Legacy.Inputs().Len() + inst.Legacy.Outputs().Len(); total <= 64 {
			t.Fatalf("seed %d: wide config produced only %d signals", seed, total)
		}
		if f := CheckInstance(inst, Options{}); f != nil {
			t.Fatalf("seed %d: %v", seed, f)
		}
	}
}

// TestCorpusReplays replays every regression repro under testdata/. The
// corpus records once-failing minimized instances; after the fixes they
// must pass the full oracle battery.
func TestCorpusReplays(t *testing.T) {
	files, err := CorpusFiles("testdata")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("empty regression corpus: expected pinned repros under testdata/")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			inst, check, err := LoadRepro(file)
			if err != nil {
				t.Fatal(err)
			}
			if f := CheckInstance(inst, Options{}); f != nil {
				t.Fatalf("corpus entry (pinned for %s) fails again: %v", check, f)
			}
		})
	}
}

// mutedComponent wraps the true component but swallows every output —
// a deterministic stand-in for a buggy learner/implementation pair whose
// observed behavior diverges from the recorded ground truth.
type mutedComponent struct {
	inner legacy.Component
}

func (c *mutedComponent) Reset() { c.inner.Reset() }

func (c *mutedComponent) Step(in automata.SignalSet) (automata.SignalSet, bool) {
	_, ok := c.inner.Step(in)
	return automata.NewSignalSet(), ok
}

// TestOracleCatchesDivergentComponent proves the harness has teeth: when
// the component under test diverges from the ground truth the generator
// recorded, some oracle check must fire, and Shrink must hand back a
// no-larger instance failing the same check.
func TestOracleCatchesDivergentComponent(t *testing.T) {
	var caught *Failure
	var seed int64
	for seed = 1; seed <= 60; seed++ {
		inst, err := gen.New(seed, gen.DefaultConfig())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Only seeds whose truth actually emits output can expose the
		// muted fault.
		emits := false
		for _, tr := range inst.Legacy.Transitions() {
			if tr.Label.Out.Len() > 0 {
				emits = true
				break
			}
		}
		if !emits {
			continue
		}
		comp, err := inst.Component()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if f := CheckInstance(inst, Options{Component: &mutedComponent{inner: comp}}); f != nil {
			caught = f
			break
		}
	}
	if caught == nil {
		t.Fatal("oracle never caught the muted component over 60 seeds")
	}
	t.Logf("seed %d caught: %s — %s", seed, caught.Check, caught.Detail)

	orig := caught.Instance
	comp, err := orig.Component()
	if err != nil {
		t.Fatal(err)
	}
	shrunk := Shrink(caught, Options{Component: &mutedComponent{inner: comp}})
	if shrunk == nil {
		t.Fatal("Shrink lost the failure")
	}
	if shrunk.Check != caught.Check {
		t.Fatalf("Shrink changed the check: %s -> %s", caught.Check, shrunk.Check)
	}
	if s, o := shrunk.Instance.Legacy.NumStates(), orig.Legacy.NumStates(); s > o {
		t.Fatalf("shrunk legacy grew: %d -> %d states", o, s)
	}
	if s, o := shrunk.Instance.Context.NumStates(), orig.Context.NumStates(); s > o {
		t.Fatalf("shrunk context grew: %d -> %d states", o, s)
	}
	t.Logf("shrunk to %s", shrunk.Instance.Summary())
}

// TestReproRoundTrip checks that a failure written as a corpus entry
// loads back structurally identical.
func TestReproRoundTrip(t *testing.T) {
	inst, err := gen.New(9, gen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := &Failure{Check: "round-trip", Detail: "synthetic", Instance: inst}
	path := filepath.Join(t.TempDir(), ReproName(f))
	if err := WriteRepro(path, f); err != nil {
		t.Fatal(err)
	}
	loaded, check, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if check != "round-trip" {
		t.Fatalf("check = %q", check)
	}
	if loaded.Seed != inst.Seed {
		t.Fatalf("seed = %d, want %d", loaded.Seed, inst.Seed)
	}
	wantCtx, _ := automata.EncodeJSON(inst.Context)
	gotCtx, _ := automata.EncodeJSON(loaded.Context)
	if string(wantCtx) != string(gotCtx) {
		t.Fatal("context automaton changed across the round trip")
	}
	wantLeg, _ := automata.EncodeJSON(inst.Legacy)
	gotLeg, _ := automata.EncodeJSON(loaded.Legacy)
	if string(wantLeg) != string(gotLeg) {
		t.Fatal("legacy automaton changed across the round trip")
	}
	wantProp, gotProp := "", ""
	if inst.Property != nil {
		wantProp = inst.Property.String()
	}
	if loaded.Property != nil {
		gotProp = loaded.Property.String()
	}
	if wantProp != gotProp {
		t.Fatalf("property changed: %q -> %q", wantProp, gotProp)
	}
}

// TestLoadReproRejectsCorruptEntries pins the error paths the corpus
// loader must survive.
func TestLoadReproRejectsCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadRepro(bad); err == nil {
		t.Fatal("corrupt JSON loaded without error")
	}
	if _, _, err := LoadRepro(filepath.Join(dir, "absent.json")); err == nil {
		t.Fatal("missing file loaded without error")
	}
}
