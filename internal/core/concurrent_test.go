package core_test

import (
	"sync"
	"testing"

	"muml/internal/core"
)

// TestReportReadConcurrently renders the witness and names the witness
// system's states of one finished report from several goroutines at once.
// The system names its states when first read, under its own lock; run
// with -race.
func TestReportReadConcurrently(t *testing.T) {
	sc := pinnedScenario(2)
	synth, err := core.New(sc.Context, sc.Component, sc.Iface, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := synth.Run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Witness == nil {
		t.Fatal("scenario 2 has no witness")
	}
	const readers = 8
	texts := make([]string, readers)
	names := make([][]string, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				texts[g] = r.WitnessText()
			}
			for _, s := range r.Witness.States {
				names[g] = append(names[g], r.WitnessSystem.StateName(s))
			}
			if g%2 == 1 {
				texts[g] = r.WitnessText()
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < readers; g++ {
		if texts[g] != texts[0] {
			t.Fatalf("reader %d rendered\n%s\nreader 0\n%s", g, texts[g], texts[0])
		}
		for i := range names[g] {
			if names[g][i] != names[0][i] {
				t.Fatalf("reader %d names witness state %d %q, reader 0 %q", g, i, names[g][i], names[0][i])
			}
		}
	}
	if want := scenarioTrajectories[2].witness; texts[0] != want {
		t.Fatalf("witness\n%s\nwant\n%s", texts[0], want)
	}
}
