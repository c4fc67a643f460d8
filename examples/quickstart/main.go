// Quickstart: the smallest useful Arthas loop.
//
// A tiny PM key-value program has a bug: a special request persists a
// corrupt data pointer. The crash recurs across restarts — a hard fault —
// until Arthas slices the fault, finds the contaminating checkpoint entry,
// and reverts it, keeping every independent update.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"arthas"
)

const source = `
// A minimal persistent array store.
fn init_() {
    var root = pmalloc(4);
    var buf = pmalloc(16);
    root[0] = buf;   // data pointer
    root[1] = 16;    // capacity
    persist(root, 2);
    setroot(0, root);
    return 0;
}

fn put(i, v) {
    var root = getroot(0);
    var buf = root[0];
    buf[i % 16] = v;
    persist(buf + (i % 16), 1);
    return 0;
}

fn get(i) {
    var root = getroot(0);
    var buf = root[0];
    return buf[i % 16];
}

// The bug: a maintenance request computes a scratch value in a volatile
// temporary and persists it over the data pointer (a type-II fault: the
// bad value propagates from volatile to persistent state).
fn compact(level) {
    var root = getroot(0);
    var scratch = level * 1024;
    if (level > 3) {
        root[0] = scratch;   // BAD persistent pointer
        persist(root, 2);
    }
    return 0;
}

fn recover_() {
    recover_begin();
    var root = getroot(0);
    var cap = root[1];
    recover_end();
    return cap;
}
`

func main() {
	inst, err := arthas.New("quickstart", source, arthas.Config{RecoverFn: "recover_"})
	if err != nil {
		log.Fatal(err)
	}
	must(inst.Call("init_"))

	// Normal traffic.
	for i := int64(0); i < 16; i++ {
		must(inst.Call("put", i, 1000+i))
	}
	fmt.Println("wrote 16 values;", inst.Stats())

	// The bug triggers...
	must(inst.Call("compact", 9))

	// ...and the next read crashes.
	_, trap := inst.Call("get", 3)
	fmt.Println("GET after the bug:", trap)

	// Restart does not help: the bad pointer is persistent.
	inst.Observe(trap)
	inst.Restart()
	_, trap2 := inst.Call("get", 3)
	_, hard := inst.Observe(trap2)
	fmt.Printf("after restart the crash recurs (%v) -> hard fault: %v\n", trap2 != nil, hard)

	// Arthas: slice the fault, map it through the trace to checkpoint
	// entries, revert, re-execute.
	// The probe runs on forks of the instance (one per reversion trial) and
	// then on the instance itself, so it reaches the system only through on.
	rep, err := inst.Mitigate(func(on *arthas.Instance) *arthas.Trap {
		if tp := on.Restart(); tp != nil {
			return tp
		}
		_, tp := on.Call("get", 3)
		return tp
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mitigation: %v\n", rep)

	// Every independent update survived.
	ok := true
	for i := int64(0); i < 16; i++ {
		v, tp := inst.Call("get", i)
		if tp != nil || v != 1000+i {
			ok = false
		}
	}
	fmt.Println("all 16 independent values intact:", ok)
	fmt.Printf("data discarded: %.3f%% of checkpointed updates\n", rep.DataLossPct(inst.Log))
}

func must(v int64, trap *arthas.Trap) {
	if trap != nil {
		log.Fatal(trap)
	}
}
