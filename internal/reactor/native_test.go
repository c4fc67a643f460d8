package reactor

import (
	"testing"

	"arthas/internal/vm"
)

// nativeKV persists through clwb/sfence-style flush+fence instead of the
// library persist API — the paper's second supported PM framework class
// (§3.2). The checkpoint hooks fire at the fence, so the whole Arthas
// workflow (trace → slice → revert) applies unchanged.
const nativeKV = `
fn init_() {
    var root = pmalloc(4);
    var buf = pmalloc(16);
    root[0] = buf;
    root[1] = 16;
    flush(root, 2);
    fence();
    setroot(0, root);
    return 0;
}
fn put(i, v) {
    var root = getroot(0);
    var buf = root[0];
    buf[i % 16] = v;
    flush(buf + (i % 16), 1);
    fence();
    return 0;
}
fn get(i) {
    var root = getroot(0);
    var buf = root[0];
    return buf[i % 16];
}
fn corrupt(v) {
    var root = getroot(0);
    var tmp = v * 13;
    root[0] = tmp;         // bad persistent pointer...
    flush(root, 2);
    fence();               // ...made durable natively
    return 0;
}
fn recover_() {
    recover_begin();
    var root = getroot(0);
    var c = root[1];
    recover_end();
    return c;
}
`

func TestNativePersistenceRecovery(t *testing.T) {
	r := newRig(t, nativeKV)
	if _, trap := r.m.Call("init_"); trap != nil {
		t.Fatal(trap)
	}
	for i := int64(0); i < 16; i++ {
		if _, trap := r.m.Call("put", i, 500+i); trap != nil {
			t.Fatal(trap)
		}
	}
	r.m.Call("corrupt", 999)
	_, trap := r.m.Call("get", 0)
	if trap == nil || trap.Kind != vm.TrapSegfault {
		t.Fatalf("trap = %v", trap)
	}
	// Hard: recurs across restart (the corruption was fenced).
	r.restart()
	if _, tp := r.m.Call("get", 0); tp == nil {
		t.Fatal("failure did not recur")
	}

	ctx := r.context(trap, calls("get", 0))
	ctx.AddrFault = true
	rep := Mitigate(DefaultConfig(), ctx)
	if !rep.Recovered {
		t.Fatalf("native-persistence fault not recovered: %v (last %v)", rep, rep.LastTrap)
	}
	// Independent natively-persisted data survives.
	r.restart()
	for i := int64(0); i < 16; i++ {
		v, tp := r.m.Call("get", i)
		if tp != nil || v != 500+i {
			t.Fatalf("get(%d) = %d (%v)", i, v, tp)
		}
	}
}
