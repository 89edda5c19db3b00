package mbt

import (
	"fmt"

	"muml/internal/core"
	"muml/internal/ctl"
	"muml/internal/gen"
)

// CheckMultiInstance runs the multi-component synthesis loop on the
// instance and checks its verdict against the frozen reference checker on
// the true composition M_a^c ‖ M_r^0 ‖ … ‖ M_r^{k-1}: Proven must mean φ
// and ¬δ both hold there (Lemma 5); Violation must mean one of them fails
// there, and the witness's projection must replay step for step on every
// ground-truth component (Lemma 6). It returns nil when all checks pass.
func CheckMultiInstance(inst *gen.MultiInstance) error {
	fail := func(check, format string, args ...any) error {
		return fmt.Errorf("mbt: %s: %s (%s)", check, fmt.Sprintf(format, args...), inst.Summary())
	}
	comps, err := inst.Components()
	if err != nil {
		return fail(CheckRunError, "wrap components: %v", err)
	}
	ifaces := inst.Interfaces()
	synth, err := core.NewMulti(inst.Context, comps, ifaces, core.Options{Property: inst.Property})
	if err != nil {
		return fail(CheckRunError, "core.NewMulti: %v", err)
	}
	report, err := synth.Run()
	if err != nil {
		return fail(CheckRunError, "synthesis: %v", err)
	}

	sys, err := inst.TrueComposition()
	if err != nil {
		return fail(CheckRunError, "compose ground truth: %v", err)
	}
	ref := ctl.NewReference(sys)
	propHolds := inst.Property == nil || ref.Holds(inst.Property)
	deadlockFree := ref.Holds(ctl.NoDeadlock())

	switch report.Verdict {
	case core.VerdictProven:
		if !propHolds || !deadlockFree {
			return fail(CheckProvenUnsound,
				"verdict proven but ground truth has property=%v deadlock-free=%v", propHolds, deadlockFree)
		}
		return nil
	case core.VerdictViolation:
		if propHolds && deadlockFree {
			return fail(CheckViolationUnsound,
				"verdict violation (%v) but ground truth satisfies property and deadlock freedom", report.Kind)
		}
	default:
		return fail(CheckRunError, "unknown verdict %d", report.Verdict)
	}

	if report.Witness == nil || report.WitnessSystem == nil {
		return fail(CheckWitnessMissing, "violation verdict without witness run")
	}
	fresh, err := inst.Components()
	if err != nil {
		return fail(CheckRunError, "wrap components: %v", err)
	}
	for j, comp := range fresh {
		proj, err := report.WitnessSystem.ProjectRun(*report.Witness, ifaces[j].Name)
		if err != nil {
			return fail(CheckWitnessReplay, "project witness onto %s: %v", ifaces[j].Name, err)
		}
		comp.Reset()
		for i, step := range proj.Steps {
			out, ok := comp.Step(step.In)
			if !ok {
				return fail(CheckWitnessReplay,
					"%s refuses witness step %d (input %v)", ifaces[j].Name, i, step.In)
			}
			if !out.Equal(step.Out) {
				return fail(CheckWitnessReplay, "%s diverges at witness step %d: produced %v, witness claims %v",
					ifaces[j].Name, i, out, step.Out)
			}
		}
	}
	return nil
}
