package reactor

import (
	"testing"

	"arthas/internal/analysis"
	"arthas/internal/checkpoint"
	"arthas/internal/ir"
	"arthas/internal/pmem"
	"arthas/internal/trace"
	"arthas/internal/vm"
)

// miniKV is a synthetic PM system reproducing the paper's Figure 6 shape:
// a bad value is persisted long before the failure point (the root cause at
// t5), propagates through a volatile temporary, and a later read through
// the contaminated persistent pointer crashes.
const miniKV = `
fn init_() {
    var root = pmalloc(8);
    var buf = pmalloc(16);
    root[0] = 0;      // op count
    root[1] = buf;    // data pointer
    root[2] = 16;     // capacity
    persist(root, 3);
    setroot(0, root);
    return 0;
}

fn put(i, v) {
    var root = getroot(0);
    var buf = root[1];
    buf[i % 16] = v;
    persist(buf + (i % 16), 1);
    root[0] = root[0] + 1;
    persist(root, 1);
    return 0;
}

// evil contains the bug: a special input corrupts the persistent data
// pointer via a volatile temporary (type-II propagation).
fn evil(v) {
    var root = getroot(0);
    var tmp = v * 3;
    if (v == 777) {
        root[1] = tmp;
        persist(root, 3);
    }
    return 0;
}

fn get(i) {
    var root = getroot(0);
    var buf = root[1];
    return buf[i % 16];
}

fn recover_() {
    recover_begin();
    var root = getroot(0);
    var n = root[0];
    recover_end();
    return n;
}
`

// rig is a minimal instrumented deployment of one PML system.
type rig struct {
	mod  *ir.Module
	res  *analysis.Result
	pool *pmem.Pool
	log  *checkpoint.Log
	tr   *trace.Trace
	m    *vm.Machine
}

func newRig(t *testing.T, src string) *rig {
	t.Helper()
	mod, err := ir.CompileSource("minikv", src)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{
		mod:  mod,
		res:  analysis.Analyze(mod),
		pool: pmem.New(1 << 14),
		log:  checkpoint.NewLog(3),
		tr:   trace.New(),
	}
	r.pool.SetHooks(r.log.Hooks())
	r.boot()
	return r
}

// boot (re)creates the machine on the existing pool — a process start.
func (r *rig) boot() {
	r.m = vm.New(r.mod, r.pool, vm.Config{StepLimit: 5_000_000})
	r.m.TraceSink = r.tr.Record
}

// restart simulates kill + restart: volatile state dropped, pool crashed.
func (r *rig) restart() {
	r.pool.Crash()
	r.boot()
}

// probeFn is a re-execution script after its restart: it reproduces the
// failure on a freshly booted machine and returns nil when healthy.
type probeFn func(m *vm.Machine) *vm.Trap

// calls is the common probe: recovery, then one call.
func calls(fn string, args ...int64) probeFn {
	return func(m *vm.Machine) *vm.Trap {
		if _, tp := m.Call("recover_"); tp != nil {
			return tp
		}
		_, tp := m.Call(fn, args...)
		return tp
	}
}

// context is the Context the arthas facade assembles for a failure: the
// probe confirms on the live rig, and every trial runs it on a fork.
func (r *rig) context(trap *vm.Trap, probe probeFn) *Context {
	return &Context{
		Analysis: r.res, Trace: r.tr, Log: r.log, Pool: r.pool, Fault: trap.Instr,
		ReExec:      func() *vm.Trap { r.restart(); return probe(r.m) },
		ForkSession: r.forkSessions(probe),
	}
}

// forkSessions builds a ForkSession factory over a rig, mirroring the
// arthas facade wiring: COW pool fork + forked log + private machine.
func (r *rig) forkSessions(probe probeFn) func() (*Session, error) {
	return func() (*Session, error) {
		pool := r.pool.Fork()
		log := r.log.Fork()
		pool.SetHooks(log.Hooks())
		return &Session{
			Pool: pool,
			Log:  log,
			ReExec: func() *vm.Trap {
				pool.Crash()
				return probe(vm.New(r.mod, pool, vm.Config{StepLimit: 5_000_000}))
			},
		}, nil
	}
}

func TestMitigatePropagatedPointerCorruption(t *testing.T) {
	r := newRig(t, miniKV)
	if _, trap := r.m.Call("init_"); trap != nil {
		t.Fatal(trap)
	}
	for i := int64(0); i < 10; i++ {
		if _, trap := r.m.Call("put", i, 100+i); trap != nil {
			t.Fatal(trap)
		}
	}
	// Trigger the bug, then hit the failure.
	if _, trap := r.m.Call("evil", 777); trap != nil {
		t.Fatal(trap)
	}
	_, trap := r.m.Call("get", 0)
	if trap == nil || trap.Kind != vm.TrapSegfault {
		t.Fatalf("expected segfault, got %v", trap)
	}

	// Restart reproduces the failure: it is a hard fault.
	r.restart()
	if _, trap2 := r.m.Call("recover_"); trap2 != nil {
		t.Fatal(trap2)
	}
	_, trap2 := r.m.Call("get", 0)
	if trap2 == nil {
		t.Fatal("failure did not recur after restart; not a hard fault")
	}

	// Mitigate.
	ctx := r.context(trap, calls("get", 0))
	ctx.AddrFault = trap.Kind == vm.TrapSegfault
	rep := Mitigate(DefaultConfig(), ctx)
	if !rep.Recovered {
		t.Fatalf("mitigation failed: %v (last trap: %v)", rep, rep.LastTrap)
	}
	if rep.RestartOnly {
		t.Fatal("plan was empty; slicing found no PM candidates")
	}

	// The system is healthy and retains independent data.
	r.restart()
	r.m.Call("recover_")
	v, tp := r.m.Call("get", 3)
	if tp != nil {
		t.Fatalf("post-recovery get trapped: %v", tp)
	}
	if v != 103 {
		t.Fatalf("post-recovery get(3) = %d, want 103 (independent data lost)", v)
	}
	// Fine-grained: only a small fraction of updates discarded.
	if pct := rep.DataLossPct(r.log); pct > 50 {
		t.Fatalf("data loss = %.1f%%, too coarse", pct)
	}
}

func TestMitigateRollbackMode(t *testing.T) {
	r := newRig(t, miniKV)
	r.m.Call("init_")
	for i := int64(0); i < 10; i++ {
		r.m.Call("put", i, 100+i)
	}
	r.m.Call("evil", 777)
	_, trap := r.m.Call("get", 0)
	if trap == nil {
		t.Fatal("no fault")
	}
	cfg := DefaultConfig()
	cfg.Mode = ModeRollback
	ctx := r.context(trap, calls("get", 0))
	ctx.AddrFault = true
	rep := Mitigate(cfg, ctx)
	if !rep.Recovered {
		t.Fatalf("rollback mitigation failed: %v", rep)
	}
	if rep.ModeUsed != ModeRollback {
		t.Fatalf("mode = %v", rep.ModeUsed)
	}
}

func TestRollbackDiscardsMoreThanPurge(t *testing.T) {
	run := func(mode Mode) int {
		r := newRig(t, miniKV)
		r.m.Call("init_")
		for i := int64(0); i < 20; i++ {
			r.m.Call("put", i, 100+i)
		}
		r.m.Call("evil", 777)
		// More independent updates AFTER the contamination: rollback must
		// discard them, purge must not.
		_, trap := r.m.Call("get", 0)
		if trap == nil {
			t.Fatal("no fault")
		}
		cfg := DefaultConfig()
		cfg.Mode = mode
		cfg.FallbackToRollback = false
		ctx := r.context(trap, calls("get", 0))
		ctx.AddrFault = true
		rep := Mitigate(cfg, ctx)
		if !rep.Recovered {
			t.Fatalf("mode %v failed: %v", mode, rep)
		}
		return rep.RevertedVersions
	}
	purge := run(ModePurge)
	rollback := run(ModeRollback)
	if purge > rollback {
		t.Fatalf("purge discarded %d > rollback %d", purge, rollback)
	}
}

// cfgStore is a system whose fault has many aliasing PM dependencies, so
// the candidate list is long and the root cause sits deep in it — the shape
// where batch reversion pays off (paper §6.5).
const cfgStore = `
fn init_() {
    var root = pmalloc(6);
    persist(root, 6);
    setroot(0, root);
    return 0;
}
fn setcfg(slot, v) {
    var root = getroot(0);
    root[slot % 6] = v;
    persist(root + (slot % 6), 1);
    return 0;
}
fn check() {
    var root = getroot(0);
    var sum = root[0] + root[1] + root[2] + root[3] + root[4] + root[5];
    assert(sum < 1000);
    return sum;
}
fn recover_() { return 0; }
`

func TestBatchReversionFewerAttempts(t *testing.T) {
	run := func(batch int) *Report {
		r := newRig(t, cfgStore)
		r.m.Call("init_")
		for round := int64(0); round < 3; round++ {
			for slot := int64(0); slot < 6; slot++ {
				r.m.Call("setcfg", slot, 10+slot)
			}
		}
		// The bug: a huge value is persisted into slot 3...
		r.m.Call("setcfg", 3, 5000)
		// ...followed by several independent good updates, pushing the bad
		// sequence number deeper into the (newest-first) candidate list.
		for _, slot := range []int64{0, 1, 2, 4, 5, 0, 1} {
			r.m.Call("setcfg", slot, 20+slot)
		}
		_, trap := r.m.Call("check")
		if trap == nil || trap.Kind != vm.TrapAssert {
			t.Fatalf("trap = %v", trap)
		}
		cfg := DefaultConfig()
		cfg.Batch = batch
		rep := Mitigate(cfg, r.context(trap, calls("check")))
		if !rep.Recovered {
			t.Fatalf("batch=%d failed: %v", batch, rep)
		}
		return rep
	}
	one := run(1)
	five := run(5)
	if one.Attempts < 2 {
		t.Fatalf("scenario too shallow: one-by-one took %d attempts", one.Attempts)
	}
	if five.Attempts >= one.Attempts {
		t.Fatalf("batch-5 attempts %d >= one-by-one %d", five.Attempts, one.Attempts)
	}
	// The price of batching: it discards at least as much data (§6.5).
	if five.RevertedVersions < one.RevertedVersions {
		t.Fatalf("batch discarded %d < one-by-one %d", five.RevertedVersions, one.RevertedVersions)
	}
}

func TestEmptyPlanFallsBackToRestart(t *testing.T) {
	// A soft fault: volatile-only corruption. The slice contains no PM
	// writes, so the plan is empty and a plain restart fixes it.
	src := `
var vptr;
fn init_() {
    var root = pmalloc(4);
    persist(root, 1);
    setroot(0, root);
    return 0;
}
fn poke() {
    vptr = 12345;  // volatile garbage pointer
    return 0;
}
fn use() {
    if (vptr != 0) {
        return vptr[0];  // segfault, but purely volatile cause
    }
    return 0;
}
fn recover_() { return 0; }
`
	r := newRig(t, src)
	r.m.Call("init_")
	r.m.Call("poke")
	_, trap := r.m.Call("use")
	if trap == nil || trap.Kind != vm.TrapSegfault {
		t.Fatalf("trap = %v", trap)
	}
	// The probe's restart clears vptr.
	rep := Mitigate(DefaultConfig(), r.context(trap, calls("use")))
	if !rep.RestartOnly {
		t.Fatalf("expected restart-only mitigation, got %v", rep)
	}
	if !rep.Recovered {
		t.Fatal("soft fault not cleared by restart")
	}
	if rep.RevertedVersions != 0 {
		t.Fatal("restart-only path reverted PM state")
	}
}

func TestUnmitigableReportsFailure(t *testing.T) {
	// A fault whose probe always fails regardless of reversion: the reactor
	// must exhaust its budget and report failure honestly.
	r := newRig(t, miniKV)
	r.m.Call("init_")
	r.m.Call("put", 0, 1)
	r.m.Call("evil", 777)
	_, trap := r.m.Call("get", 0)
	alwaysFail := func(*vm.Machine) *vm.Trap {
		return &vm.Trap{Kind: vm.TrapUserFail, Code: 1}
	}
	cfg := DefaultConfig()
	cfg.MaxAttempts = 5
	rep := Mitigate(cfg, r.context(trap, alwaysFail))
	if rep.Recovered {
		t.Fatal("reported recovery for unmitigable failure")
	}
	if rep.Attempts == 0 || rep.Attempts > 2*cfg.MaxAttempts {
		t.Fatalf("attempts = %d", rep.Attempts)
	}
}

// pairStore hosts a semantic dependency the PDG cannot see: the client
// requires A and B to be updated in lockstep, but the code never reads one
// when writing the other. Purge (slice-guided) reverts only A's updates;
// rollback also unwinds B's later independent update — the paper's case
// for the conservative mode (§3.3, §4.4).
const pairStore = `
fn init_() {
    var root = pmalloc(4);
    persist(root, 2);
    setroot(0, root);
    return 0;
}
fn setA(v) {
    var root = getroot(0);
    root[0] = v;
    persist(root + 0, 1);
    return 0;
}
fn setB(v) {
    var root = getroot(0);
    root[1] = v;
    persist(root + 1, 1);
    return 0;
}
fn checkA() {
    var root = getroot(0);
    assert(root[0] < 100);
    return root[0];
}
fn getB() {
    var root = getroot(0);
    return root[1];
}
fn recover_() { return 0; }
`

func TestPurgeFallsBackToRollback(t *testing.T) {
	r := newRig(t, pairStore)
	r.m.Call("init_")
	r.m.Call("setA", 5)
	r.m.Call("setB", 7)
	r.m.Call("setA", 500) // the bad persisted value
	r.m.Call("setB", 9)   // independent later update
	_, trap := r.m.Call("checkA")
	if trap == nil || trap.Kind != vm.TrapAssert {
		t.Fatalf("trap = %v", trap)
	}

	// The client's semantic requirement: when A is reverted, B must be
	// back to its paired value 7 as well. Purge never touches B (it is
	// outside A's slice); rollback unwinds it.
	probe := func(m *vm.Machine) *vm.Trap {
		if _, tp := m.Call("checkA"); tp != nil {
			return tp
		}
		b, tp := m.Call("getB")
		if tp != nil {
			return tp
		}
		if b != 7 {
			return &vm.Trap{Kind: vm.TrapUserFail, Code: 42, Msg: "pair out of sync"}
		}
		return nil
	}
	rep := Mitigate(DefaultConfig(), r.context(trap, probe))
	if !rep.FellBack {
		t.Fatalf("expected purge->rollback fallback, got %v", rep)
	}
	if rep.ModeUsed != ModeRollback {
		t.Fatalf("final mode = %v", rep.ModeUsed)
	}
	if !rep.Recovered {
		t.Fatalf("rollback fallback did not recover: %v (last %v)", rep, rep.LastTrap)
	}
}

func TestLeakMitigation(t *testing.T) {
	// A system that allocates per-request scratch blocks and "forgets" to
	// free them (the PMEMKV async-free shape).
	src := `
fn init_() {
    var root = pmalloc(4);
    root[0] = 0;
    persist(root, 1);
    setroot(0, root);
    return 0;
}
fn leaky_op(v) {
    var root = getroot(0);
    var scratch = pmalloc(8);   // never freed, never linked
    scratch[0] = v;
    persist(scratch, 1);
    root[0] = root[0] + 1;
    persist(root, 1);
    return 0;
}
fn recover_() {
    recover_begin();
    var root = getroot(0);
    var n = root[0];
    recover_end();
    return n;
}
`
	r := newRig(t, src)
	r.m.Call("init_")
	for i := int64(0); i < 20; i++ {
		r.m.Call("leaky_op", i)
	}
	liveBefore := r.pool.LiveWords()

	// Restart and run annotated recovery to collect the access set.
	r.restart()
	if _, trap := r.m.Call("recover_"); trap != nil {
		t.Fatal(trap)
	}
	leaks := FindLeaks(r.log, r.m.RecoveryAccess)
	if len(leaks) != 20 {
		t.Fatalf("suspected leaks = %d, want 20", len(leaks))
	}
	rep := MitigateLeak(r.pool, r.log, r.m.RecoveryAccess, nil)
	if len(rep.FreedAddr) != 20 {
		t.Fatalf("freed = %d", len(rep.FreedAddr))
	}
	if r.pool.LiveWords() >= liveBefore {
		t.Fatal("leak mitigation did not reclaim space")
	}
	// The root block (accessed in recovery) must survive.
	root, _ := r.pool.Root(0)
	if !r.pool.IsAllocated(root) {
		t.Fatal("leak mitigation freed live state")
	}
	// And the system still works.
	if _, trap := r.m.Call("leaky_op", 5); trap != nil {
		t.Fatal(trap)
	}
}

func TestLeakMitigationConfirmVeto(t *testing.T) {
	r := newRig(t, miniKV)
	r.m.Call("init_")
	rep := MitigateLeak(r.pool, r.log, map[uint64]bool{}, func(*checkpoint.AllocRecord) bool { return false })
	if len(rep.FreedAddr) != 0 {
		t.Fatal("vetoed frees happened anyway")
	}
}

func TestPlanOrdering(t *testing.T) {
	r := newRig(t, miniKV)
	r.m.Call("init_")
	for i := int64(0); i < 5; i++ {
		r.m.Call("put", i, i)
	}
	r.m.Call("evil", 777)
	_, trap := r.m.Call("get", 0)
	plan := ComputePlan(r.res, r.tr, r.log, []*ir.Instr{trap.Instr}, PlanConfig{})
	if plan.Empty() {
		t.Fatal("plan empty")
	}
	// No duplicate seqs.
	seen := map[uint64]bool{}
	for _, c := range plan.Candidates {
		if seen[c.Seq] {
			t.Fatalf("duplicate seq %d in plan", c.Seq)
		}
		seen[c.Seq] = true
	}
	// The first candidate must come from the most specific slice node:
	// nothing later may have strictly lower fanout AND lower distance
	// (the plan's node order is fanout-primary, distance-secondary).
	fanout := func(guid int) int { return len(r.tr.AddrsByRecency([]int{guid})[0]) }
	first := plan.Candidates[0]
	for _, c := range plan.Candidates[1:] {
		if fanout(c.GUID) < fanout(first.GUID) &&
			c.Dist < first.Dist {
			t.Fatalf("candidate (fanout %d, dist %d) should precede first (fanout %d, dist %d)",
				fanout(c.GUID), c.Dist, fanout(first.GUID), first.Dist)
		}
	}
	// MaxCandidates cap.
	capped := ComputePlan(r.res, r.tr, r.log, []*ir.Instr{trap.Instr}, PlanConfig{MaxCandidates: 2})
	if len(capped.Candidates) > 2 {
		t.Fatalf("cap ignored: %d", len(capped.Candidates))
	}
}

func TestServerPrecomputeAndMitigate(t *testing.T) {
	r := newRig(t, miniKV)
	srv := NewServer()
	srv.Precompute("minikv", r.mod)
	// Analysis instruments the module in place, so wait for it before
	// executing that module — the production order (the server precomputes
	// before the target starts serving).
	if _, err := srv.Analysis("minikv"); err != nil {
		t.Fatal(err)
	}

	r.m.Call("init_")
	r.m.Call("put", 0, 100)
	r.m.Call("evil", 777)
	_, trap := r.m.Call("get", 0)
	ctx := r.context(trap, calls("get", 0))
	ctx.Analysis = nil // the server fills it in
	rep, err := srv.Mitigate("minikv", DefaultConfig(), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recovered {
		t.Fatalf("server-mediated mitigation failed: %v", rep)
	}
	if _, err := srv.Analysis("unknown"); err == nil {
		t.Fatal("unknown module analysis did not error")
	}
}
