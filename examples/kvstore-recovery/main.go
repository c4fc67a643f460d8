// kvstore-recovery: a Memcached-shaped hard fault, end to end.
//
// A chained-hashtable cache persists its items AND its index (the
// PMEM-Memcached pattern). A reference-count field wraps at 8 bits; the
// maintenance crawler then frees a still-linked item; the freed block is
// recycled by the next insert in the same bucket, producing a self-linked
// chain — every lookup in that bucket loops forever, across restarts.
//
// Arthas detects the hang, slices the looping load, and reverts the
// contaminated item back to its pre-recycle version.
//
// Run: go run ./examples/kvstore-recovery
package main

import (
	"fmt"
	"log"

	"arthas"
)

const source = `
// A small persistent cache: hashtable of items with refcounts.
//
// root:  0 TAB  1 NBUCKET  2 NITEMS
// item:  0 KEY  1 VAL  2 REF  3 HNEXT
fn init_() {
    var root = pmalloc(4);
    var tab = pmalloc(16);
    root[0] = tab;
    root[1] = 16;
    root[2] = 0;
    persist(root, 3);
    persist(tab, 16);
    setroot(0, root);
    return 0;
}

fn lookup(k) {
    var root = getroot(0);
    var tab = root[0];
    var it = tab[k % root[1]];
    while (it != 0) {
        if (it[0] == k) {
            return it;
        }
        it = it[3];    // the loop that never ends once a chain self-links
    }
    return 0;
}

// The crawler frees refcount-0 items, ASSUMING they are unlinked.
fn crawl() {
    var root = getroot(0);
    var tab = root[0];
    var b = 0;
    while (b < root[1]) {
        var it = tab[b];
        var prev = 0;
        while (it != 0) {
            var nxt = it[3];
            if (it[2] == 0) {
                pfree(it);     // BUG: never unlinked from the chain
                root[2] = root[2] - 1;
                persist(root + 2, 1);
            }
            prev = it;
            it = nxt;
        }
        b = b + 1;
    }
    return 0;
}

fn set(k, v) {
    crawl();
    var root = getroot(0);
    var it = lookup(k);
    if (it != 0) {
        it[1] = v;
        persist(it + 1, 1);
        return 1;
    }
    it = pmalloc(4);
    it[0] = k;
    it[1] = v;
    it[2] = 1;
    var tab = root[0];
    var b = k % root[1];
    it[3] = tab[b];
    persist(it, 4);
    tab[b] = it;
    persist(tab + b, 1);
    root[2] = root[2] + 1;
    persist(root + 2, 1);
    return 0;
}

fn get(k) {
    var it = lookup(k);
    if (it == 0) {
        return -1;
    }
    return it[1];
}

// hold pins an item; the increment wraps at 8 bits with no check.
fn hold(k) {
    var it = lookup(k);
    if (it == 0) {
        return -1;
    }
    it[2] = (it[2] + 1) & 255;
    persist(it + 2, 1);
    return it[2];
}

fn recover_() {
    recover_begin();
    var root = getroot(0);
    var tab = root[0];
    var limit = root[2] + root[2] + 8;
    var seen = 0;
    var b = 0;
    while (b < root[1]) {
        var it = tab[b];
        while (it != 0 && seen <= limit) {
            seen = seen + 1;
            it = it[3];
        }
        b = b + 1;
    }
    recover_end();
    return seen;
}
`

func main() {
	inst, err := arthas.New("kvstore", source, arthas.Config{
		RecoverFn: "recover_",
		StepLimit: 200_000, // quick hang detection
	})
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

	// Bucket 5 holds keys 5 and 21 (21 % 16 == 5).
	for k := int64(1); k <= 30; k++ {
		call("set", k, k*100)
	}
	fmt.Println("cache warm:", inst.Stats())

	// The soft bug: 255 holds wrap key 21's refcount to zero...
	for i := 0; i < 255; i++ {
		call("hold", 21)
	}
	// ...the next set's crawler frees the still-linked item, and the
	// same-bucket insert recycles its block: the chain self-links.
	call("set", 37, 3700) // 37 % 16 == 5

	_, trap := inst.Call("get", 5)
	fmt.Println("GET key 5:", trap) // hang (instruction budget exhausted)

	inst.Observe(trap)
	inst.Restart()
	_, trap2 := inst.Call("get", 5)
	_, hard := inst.Observe(trap2)
	fmt.Println("recurs across restart -> hard fault:", hard)

	rep, err := inst.Mitigate(func(on *arthas.Instance) *arthas.Trap {
		if tp := on.Restart(); tp != nil {
			return tp
		}
		_, tp := on.Call("get", 5)
		return tp
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mitigation: %v\n", rep)

	fmt.Println("key  5 =", call("get", 5))
	fmt.Println("key 13 =", call("get", 13), "(independent bucket, untouched)")
	fmt.Printf("discarded %.3f%% of checkpointed updates\n", rep.DataLossPct(inst.Log))
}
