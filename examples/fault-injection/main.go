// fault-injection: hardware faults become hard faults in PM (paper §2.4).
//
// A single bit flip in a persisted control flag — the Memcached "rehashing
// flag" pattern — silently reroutes every lookup to a missing table. A
// restart cannot clear it: the flipped bit is durable. Checksums CAN catch
// this one (the only one of the paper's twelve, §6.6), but detection alone
// does not repair the state; Arthas reverts the flag word to its last
// checkpointed value.
//
// Run: go run ./examples/fault-injection
package main

import (
	"fmt"
	"log"

	"arthas"
	"arthas/internal/detector"
)

const source = `
// root: 0 TAB  1 NBUCKET  2 MIGRATING(flag)  3 TAB2  4 NKEYS
fn init_() {
    var root = pmalloc(8);
    var tab = pmalloc(32);
    root[0] = tab;
    root[1] = 32;
    root[2] = 0;
    root[3] = 0;
    root[4] = 0;
    persist(root, 5);
    persist(tab, 32);
    setroot(0, root);
    return 0;
}

fn put(k, v) {
    var root = getroot(0);
    var n = pmalloc(3);
    n[0] = k;
    n[1] = v;
    var tab = root[0];
    var b = k % root[1];
    n[2] = tab[b];
    persist(n, 3);
    tab[b] = n;
    persist(tab + b, 1);
    root[4] = root[4] + 1;
    persist(root + 4, 1);
    return 0;
}

fn get(k) {
    var root = getroot(0);
    var tab = root[0];
    if (root[2] != 0) {
        // Migration in progress: consult the new table.
        var tab2 = root[3];
        if (tab2 == 0) {
            return -1;   // inconsistent state: nothing to consult
        }
        tab = tab2;
    }
    var n = tab[k % root[1]];
    while (n != 0) {
        if (n[0] == k) {
            return n[1];
        }
        n = n[2];
    }
    return -1;
}

fn recover_() {
    recover_begin();
    var root = getroot(0);
    var x = root[4];
    recover_end();
    return x;
}
`

func main() {
	inst, err := arthas.New("flipdemo", source, arthas.Config{RecoverFn: "recover_"})
	if err != nil {
		log.Fatal(err)
	}
	call := func(fn string, args ...int64) int64 {
		v, trap := inst.Call(fn, args...)
		if trap != nil {
			log.Fatalf("%s: %v", fn, trap)
		}
		return v
	}
	call("init_")
	for k := int64(1); k <= 40; k++ {
		call("put", k, k*3)
	}
	fmt.Println("key 7 before the fault:", call("get", 7))

	// Arm a checksum guard over the control words, the way a
	// checksum-based defense would (paper §6.6).
	root, _ := inst.Pool.Root(0)
	guard := &detector.ChecksumGuard{Name: "control", Addr: root + 2, Words: 2}
	if err := guard.Update(inst.Pool); err != nil {
		log.Fatal(err)
	}

	// The hardware fault: one durable bit flip in the MIGRATING flag.
	if err := inst.InjectBitFlip(root+2, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("key 7 after a 1-bit flip:", call("get", 7), "(every lookup now misses)")

	ok, _ := guard.Verify(inst.Pool)
	fmt.Println("checksum guard detects the corruption:", !ok)

	// Restart does not clear it: the flip is durable.
	inst.Restart()
	fmt.Println("key 7 after restart:", call("get", 7))

	// Data-loss failures have no trapping instruction; the fault
	// instructions are the serving function's returns.
	rep, err := inst.MitigateProbe(inst.RetInstrs("get"), false, func(on *arthas.Instance) *arthas.Trap {
		if tp := on.Restart(); tp != nil {
			return tp
		}
		if v, tp := on.Call("get", 7); tp != nil || v == -1 {
			return &arthas.Trap{Kind: arthas.TrapUserFail, Code: 7, Msg: "known key missing"}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mitigation: %v\n", rep)
	fmt.Println("key 7 after Arthas:", call("get", 7))
	fmt.Println("key 33 (independent):", call("get", 33))
}
