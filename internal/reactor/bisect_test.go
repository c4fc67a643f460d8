package reactor

import (
	"math/bits"
	"testing"

	"arthas/internal/ir"
	"arthas/internal/vm"
)

// multiStore needs TWO reversions at once: two config slots are poisoned in
// one trigger, and the health check validates both. No single-candidate
// isolated trial can heal it — the shape the binary-search reversion is for.
const multiStore = `
fn init_() {
    var root = pmalloc(8);
    persist(root, 4);
    setroot(0, root);
    return 0;
}
fn seta(v) {
    var root = getroot(0);
    root[0] = v;
    persist(root + 0, 1);
    return 0;
}
fn setb(v) {
    var root = getroot(0);
    root[1] = v;
    persist(root + 1, 1);
    return 0;
}
fn check() {
    var root = getroot(0);
    assert(root[0] < 100);
    assert(root[1] < 100);
    return root[0] + root[1];
}
fn recover_() { return 0; }
`

func multiFail(t *testing.T) (*rig, *vm.Trap) {
	t.Helper()
	r := newRig(t, multiStore)
	r.m.Call("init_")
	r.m.Call("seta", 5)
	r.m.Call("setb", 6)
	r.m.Call("seta", 7)
	r.m.Call("setb", 8)
	// The bug poisons BOTH slots.
	r.m.Call("seta", 500)
	r.m.Call("setb", 600)
	_, trap := r.m.Call("check")
	if trap == nil || trap.Kind != vm.TrapAssert {
		t.Fatalf("trap = %v", trap)
	}
	return r, trap
}

func TestBisectFindsMinimalPrefix(t *testing.T) {
	r, trap := multiFail(t)
	cfg := DefaultConfig()
	cfg.Bisect = true
	cfg.FallbackToRollback = false
	rep := Mitigate(cfg, r.context(trap, calls("check")))
	if !rep.Recovered {
		t.Fatalf("bisect did not recover: %v", rep)
	}
	if rep.ModeUsed != ModePurge {
		t.Fatalf("mode = %v", rep.ModeUsed)
	}
	// Both slots healed.
	r.restart()
	v, tp := r.m.Call("check")
	if tp != nil {
		t.Fatal(tp)
	}
	if v != 7+8 {
		t.Fatalf("check = %d, want 15 (latest good values)", v)
	}
	// Bisect is economical: isolated-round singles (one per candidate,
	// across up to one re-plan) plus O(log n) search probes.
	if rep.Attempts > 40 {
		t.Fatalf("attempts = %d", rep.Attempts)
	}
}

func TestWithoutBisectCumulativeStillRecovers(t *testing.T) {
	r, trap := multiFail(t)
	cfg := DefaultConfig() // no bisect: falls to cumulative rounds
	rep := Mitigate(cfg, r.context(trap, calls("check")))
	if !rep.Recovered {
		t.Fatalf("cumulative rounds did not recover: %v", rep)
	}
}

func TestBisectGivesUpWhenFullReversionFails(t *testing.T) {
	r, trap := multiFail(t)
	cfg := DefaultConfig()
	cfg.Bisect = true
	cfg.FallbackToRollback = false
	alwaysFail := func(*vm.Machine) *vm.Trap { return &vm.Trap{Kind: vm.TrapUserFail, Code: 1} }
	rep := Mitigate(cfg, r.context(trap, alwaysFail))
	if rep.Recovered {
		t.Fatal("recovered against an always-failing probe")
	}
}

func TestCumulativeOnlyAblation(t *testing.T) {
	// With CumulativeOnly the isolated round is skipped; the miniKV case
	// still recovers via cumulative reverts, but (unlike isolated trials)
	// every attempted candidate's reversion sticks.
	r := newRig(t, miniKV)
	r.m.Call("init_")
	for i := int64(0); i < 10; i++ {
		r.m.Call("put", i, 100+i)
	}
	r.m.Call("evil", 777)
	_, trap := r.m.Call("get", 0)
	cfg := DefaultConfig()
	cfg.CumulativeOnly = true
	ctx := r.context(trap, calls("get", 0))
	ctx.AddrFault = true
	rep := Mitigate(cfg, ctx)
	if !rep.Recovered {
		t.Fatalf("cumulative-only failed: %v", rep)
	}
}

func TestNaiveOrderAblation(t *testing.T) {
	// Naive (pure seq-descending) ordering must still be usable; it may
	// cost more attempts but the plan contents are identical.
	r, trap := multiFail(t)
	cfg := DefaultConfig()
	cfg.Plan.NaiveOrder = true
	rep := Mitigate(cfg, r.context(trap, calls("check")))
	if !rep.Recovered {
		t.Fatalf("naive ordering failed: %v", rep)
	}
	// Candidates sorted by descending seq.
	plan := ComputePlan(r.res, r.tr, r.log, []*ir.Instr{trap.Instr}, PlanConfig{NaiveOrder: true})
	for i := 1; i < len(plan.Candidates); i++ {
		if plan.Candidates[i].Seq > plan.Candidates[i-1].Seq {
			t.Fatal("naive order not seq-descending")
		}
	}
}

func TestBisectAtOneWorkerHalves(t *testing.T) {
	// At one worker the bisect is the binary search: after the full prefix
	// it probes the midpoint and halves, so a fix that is the first
	// candidate costs O(log n) probes, not a walk down from the full prefix.
	r := newRig(t, cfgStore)
	r.m.Call("init_")
	for round := int64(0); round < 3; round++ {
		for slot := int64(0); slot < 6; slot++ {
			r.m.Call("setcfg", slot, 10+slot)
		}
	}
	r.m.Call("setcfg", 3, 5000)
	for _, slot := range []int64{0, 1, 2, 4, 5, 0, 1} {
		r.m.Call("setcfg", slot, 20+slot)
	}
	_, trap := r.m.Call("check")
	cfg := DefaultConfig()
	cfg.CumulativeOnly = true
	cfg.Bisect = true
	cfg.FallbackToRollback = false
	ctx := r.context(trap, calls("check"))
	ctx.ReExec = func() *vm.Trap { return nil }
	ctx.ForkSession = func() (*Session, error) {
		// Any reversion heals: the minimal healing prefix is one candidate.
		s, err := r.forkSessions(nil)()
		s.ReExec = func() *vm.Trap {
			if s.Log.RevertedVersions() > 0 {
				return nil
			}
			return trap
		}
		return s, err
	}
	rep := Mitigate(cfg, ctx)
	if !rep.Recovered || len(rep.RevertedSeqs) != 1 {
		t.Fatalf("bisect: %v, reverted %v; want the first candidate alone", rep, rep.RevertedSeqs)
	}
	// The full prefix, one probe per halving, and the confirmation.
	if limit := 2 + bits.Len(uint(rep.CandidateCount)); rep.Attempts > limit {
		t.Fatalf("bisect over %d candidates took %d attempts, want <= %d", rep.CandidateCount, rep.Attempts, limit)
	}
}
