package mbt

import (
	"testing"

	"muml/internal/gen"
)

// TestCheckMultiInstanceSeeds is the multi-component soundness oracle:
// two-component instances, small enough that every seed stays fast and
// biased towards live compositions, each checked with φ = AG ¬implJ.sK and
// deadlock-only.
func TestCheckMultiInstanceSeeds(t *testing.T) {
	cfg := gen.Config{RefuseBias: 0.05, DeadStateBias: 0.01, ContextStopBias: 0.01,
		Inputs: 1, Outputs: 1, MaxLegacyStates: 3, MaxContextStates: 3}
	for seed := int64(1); seed <= 300; seed++ {
		inst, err := gen.NewMulti(seed, cfg, 2)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := CheckMultiInstance(inst); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		inst.Property = nil
		if err := CheckMultiInstance(inst); err != nil {
			t.Fatalf("seed %d, deadlock only: %v", seed, err)
		}
	}
}
