package arthas

import (
	"testing"
)

// demoSource is a minimal PM system with a type-II bug: a special request
// persists a corrupt pointer through a volatile temporary.
const demoSource = `
fn init_() {
    var root = pmalloc(4);
    var buf = pmalloc(8);
    root[0] = buf;
    root[1] = 8;
    persist(root, 2);
    setroot(0, root);
    return 0;
}
fn put(i, v) {
    var root = getroot(0);
    var buf = root[0];
    buf[i % 8] = v;
    persist(buf + (i % 8), 1);
    return 0;
}
fn get(i) {
    var root = getroot(0);
    var buf = root[0];
    return buf[i % 8];
}
fn corrupt(v) {
    var root = getroot(0);
    var tmp = v * 31;
    root[0] = tmp;
    persist(root, 2);
    return 0;
}
fn recover_() {
    recover_begin();
    var root = getroot(0);
    var x = root[1];
    recover_end();
    return x;
}
`

func newDemo(t *testing.T) *Instance {
	t.Helper()
	inst, err := New("demo", demoSource, Config{RecoverFn: "recover_"})
	if err != nil {
		t.Fatal(err)
	}
	if _, trap := inst.Call("init_"); trap != nil {
		t.Fatal(trap)
	}
	return inst
}

func TestFacadeEndToEnd(t *testing.T) {
	inst := newDemo(t)
	for i := int64(0); i < 8; i++ {
		if _, trap := inst.Call("put", i, 100+i); trap != nil {
			t.Fatal(trap)
		}
	}
	inst.Call("corrupt", 999)
	_, trap := inst.Call("get", 0)
	if trap == nil || trap.Kind != TrapSegfault {
		t.Fatalf("trap = %v", trap)
	}
	if _, hard := inst.Observe(trap); hard {
		t.Fatal("first observation flagged hard")
	}
	// Restart does not help: hard fault.
	inst.Restart()
	_, trap2 := inst.Call("get", 0)
	if trap2 == nil {
		t.Fatal("failure did not recur")
	}
	if _, hard := inst.Observe(trap2); !hard {
		t.Fatal("recurrence not flagged hard")
	}

	rep, err := inst.Mitigate(func(on *Instance) *Trap {
		if tp := on.Restart(); tp != nil {
			return tp
		}
		_, tp := on.Call("get", 0)
		return tp
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recovered {
		t.Fatalf("not recovered: %v", rep)
	}
	// Independent data survives.
	v, trap3 := inst.Call("get", 5)
	if trap3 != nil || v != 105 {
		t.Fatalf("get(5) = %d (%v)", v, trap3)
	}
	if inst.Stats() == "" {
		t.Fatal("empty stats")
	}
}

func TestFacadeMitigateWithoutObserve(t *testing.T) {
	inst := newDemo(t)
	if _, err := inst.Mitigate(nil); err == nil {
		t.Fatal("Mitigate without Observe succeeded")
	}
}

func TestFacadeBadSource(t *testing.T) {
	if _, err := New("bad", "fn f( {", Config{}); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestFacadeBitFlipAndLeak(t *testing.T) {
	inst := newDemo(t)
	root, _ := inst.Pool.Root(0)
	if err := inst.InjectBitFlip(root+1, 2); err != nil {
		t.Fatal(err)
	}
	v, _ := inst.Call("get", 0) // still works; just checking plumbing
	_ = v
	if inst.LeakSuspected() {
		t.Fatal("no leak yet")
	}
}

const leakSource = `
fn init_() {
    var root = pmalloc(2);
    root[0] = 0;
    persist(root, 1);
    setroot(0, root);
    return 0;
}
fn op(v) {
    var scratch = pmalloc(16);
    scratch[0] = v;
    persist(scratch, 1);
    var root = getroot(0);
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

func TestFacadeLeakMitigation(t *testing.T) {
	inst, err := New("leaky", leakSource, Config{PoolWords: 4096, RecoverFn: "recover_"})
	if err != nil {
		t.Fatal(err)
	}
	inst.Call("init_")
	for i := int64(0); i < 50; i++ {
		inst.Call("op", i)
	}
	rep, err := inst.MitigateLeak()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.FreedAddr) != 50 {
		t.Fatalf("freed %d blocks, want 50", len(rep.FreedAddr))
	}
	// The system still works afterwards.
	if _, trap := inst.Call("op", 1); trap != nil {
		t.Fatal(trap)
	}
}

func TestFacadeRetInstrs(t *testing.T) {
	inst := newDemo(t)
	if len(inst.RetInstrs("get")) == 0 {
		t.Fatal("no rets found")
	}
	if inst.RetInstrs("missing") != nil {
		t.Fatal("rets for missing function")
	}
}
