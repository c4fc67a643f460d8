// Package faults reproduces the twelve real-world hard faults of the
// paper's evaluation (Table 2) on the PML target systems, wrapping each as
// a uniform scenario the experiments can run under Arthas, pmCRIU, and
// ArCkpt.
//
// Each case supplies: a deployment, a pre-fault workload (with a tick
// callback so the pmCRIU baseline can take periodic snapshots), the bug
// trigger, a probe that restarts the system and reproduces the symptom
// (the paper's re-execution script), the fault-instruction resolution, and
// the post-recovery consistency / invariant / checksum checks used by
// Tables 4 and 7.
package faults

import (
	"fmt"

	"arthas"
	"arthas/internal/detector"
	"arthas/internal/ir"
	"arthas/internal/vm"
)

// Meta describes one fault case (one row of Table 2).
type Meta struct {
	ID          string // "f1".."f12"
	System      string
	Fault       string
	Consequence string
	Kind        detector.FailureKind
	// IsLeak routes mitigation through the leak path (§4.7).
	IsLeak bool
	// AddrFault marks invalid-address failures for the slicer.
	AddrFault bool
	// DetectImmediately marks bugs whose failure manifests on the very
	// next client request (the same client reads the value it just
	// appended): the run stops at detection, as the paper begins
	// mitigation "whenever the bug is detected".
	DetectImmediately bool
	// InvariantDetectable / ChecksumDetectable are evaluated live by
	// RunInvariants / RunChecksum; these fields carry the paper's
	// expectation for cross-checking (Table 7 and §6.6).
	InvariantDetectable bool
	ChecksumDetectable  bool
}

// Case is a deployed, runnable fault scenario.
type Case struct {
	Meta
	D *arthas.Instance

	// Workload runs ops pre-fault operations; tick is invoked once per
	// logical operation (pmCRIU snapshot cadence). tick may be nil.
	Workload func(ops int, tick func() bool)
	// Trigger fires the bug. For cases whose trigger is an injected
	// crash, Trigger returns the observed trap.
	Trigger func() *vm.Trap
	// Probe restarts the instance it is handed and reproduces the failure
	// symptom there; nil = healthy (the paper's re-execution script).
	// Synthetic traps (UserFail with case-specific codes) represent
	// data-loss symptoms. The runners probe c.D; the parallel reactor also
	// probes copy-on-write forks of it concurrently, so a probe reaches the
	// system only through its argument.
	Probe arthas.Probe
	// FaultInstrs resolves the fault instruction(s) from the probe trap.
	FaultInstrs func(trap *vm.Trap) []*ir.Instr
	// Consistency validates the recovered system beyond the probe
	// (Table 4): pool integrity, extended mixed workload, domain checks.
	Consistency func() error
	// RunInvariants evaluates the common domain invariants against the
	// CURRENT (failed) state and reports whether any catches the fault.
	RunInvariants func() bool
	// RunChecksum reports whether a checksum guard catches the fault.
	// Nil when the case has no checksummable corrupt region.
	RunChecksum func() bool
}

// Builder constructs a fresh Case (systems are stateful, so experiments
// build a new one per run).
type Builder struct {
	Meta
	New func(cfg arthas.Config) (*Case, error)
}

// probe runs the case's probe against its own deployment.
func (c *Case) probe() *vm.Trap { return c.Probe(c.D) }

// All returns the twelve builders in paper order.
func All() []Builder {
	return []Builder{
		F1(), F2(), F3(), F4(), F5(), F6(),
		F7(), F8(), F9(), F10(), F11(), F12(),
	}
}

// ByID returns the builder for a fault id ("f1".."f12").
func ByID(id string) (Builder, error) {
	for _, b := range All() {
		if b.ID == id {
			return b, nil
		}
	}
	return Builder{}, fmt.Errorf("faults: unknown case %q", id)
}

// synthetic builds a data-loss style trap for probe results that are wrong
// values rather than crashes.
func synthetic(code int64, msg string) *vm.Trap {
	return &vm.Trap{Kind: vm.TrapUserFail, Code: code, Msg: msg}
}

// instrOfTrap is the common fault-instruction resolution for trapping
// failures.
func instrOfTrap(trap *vm.Trap) []*ir.Instr {
	if trap == nil || trap.Instr == nil {
		return nil
	}
	return []*ir.Instr{trap.Instr}
}
