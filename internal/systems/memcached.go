package systems

import "arthas"

// Memcached-like PM key-value cache.
//
// Mirrors the structures the paper's Memcached bugs live in: a chained
// hashtable (persisted, as in PMEM-Memcached where the whole item structure
// is persisted "for simplicity"), items with 8-bit reference counts, an LRU
// list with a crawler that frees refcount-0 items assuming they are already
// unlinked, a flush_all path with the classic oldest_live logic bug, value
// append with an unchecked length addition, and a rehash/expansion flag.
//
// Persistent layout (word offsets):
//
//	root:  0 TAB (bucket array)   1 NBUCKET     2 NITEMS    3 LRU_HEAD
//	       4 LRU_TAIL             5 OLDEST      6 EXPANDING 7 TAB2
//	       8 NBUCKET2             9 CLOCK
//	item:  0 KEY  1 VBUF  2 VLEN  3 REF  4 HNEXT  5 LNEXT  6 LPREV  7 CTIME
//
// The bugs (triggered only by specific inputs, like the real ones):
//
//	f1  mc_hold increments REF with an unchecked 8-bit wrap; mc_crawl frees
//	    REF==0 items without unlinking them from the hashtable.
//	f2  mc_flush applies a future flush time immediately.
//	f3  mc_set_racy updates the bucket head without holding the table lock.
//	f4  mc_append stores the unwrapped new length but sizes the buffer with
//	    an 8-bit wrap.
//	f5  (hardware) a bit flip in EXPANDING sends lookups to the empty
//	    secondary table.
const memcachedSource = `
// ---- Memcached (PM port) ----

var tablock;   // volatile lock cell for the hashtable (set paths)

fn mc_init() {
    var root = pmalloc(16);
    var nb = 64;
    var tab = pmalloc(nb);
    root[0] = tab;
    root[1] = nb;
    root[2] = 0;    // item count
    root[3] = 0;    // lru head
    root[4] = 0;    // lru tail
    root[5] = 0;    // oldest_live (flush_all)
    root[6] = 0;    // expanding flag
    root[7] = 0;    // secondary table
    root[8] = 0;
    root[9] = 1;    // logical clock
    persist(root, 10);
    persist(tab, 64);
    setroot(0, root);
    return 0;
}

fn mc_clock() {
    var root = getroot(0);
    var t = root[9] + 1;
    root[9] = t;
    persist(root + 9, 1);
    return t;
}

// mc_lookup walks the bucket chain; the f1 corruption turns this loop
// into the paper's "while (it) { ... it = it->h_next; }" infinite loop.
fn mc_lookup(k) {
    var root = getroot(0);
    var tab = root[0];
    var nb = root[1];
    if (root[6] != 0) {
        // Rehashing in progress: consult the expansion table.
        var tab2 = root[7];
        if (tab2 == 0) {
            return 0; // inconsistent: expansion table missing
        }
        tab = tab2;
        nb = root[8];
    }
    var it = tab[k % nb];
    while (it != 0) {
        if (it[0] == k) {
            return it;
        }
        it = it[4];
    }
    return 0;
}

// mc_crawl is the item crawler: it frees refcount-0 items, ASSUMING they
// were already unlinked from the hashtable (the f1 bug's second half).
fn mc_crawl() {
    var root = getroot(0);
    var it = root[3];
    while (it != 0) {
        var nxt = it[5];
        if (it[3] == 0) {
            mc_lru_unlink(it);
            if (it[1] != 0) {
                pfree(it[1]);
            }
            pfree(it);
            root[2] = root[2] - 1;
            persist(root + 2, 1);
        }
        it = nxt;
    }
    return 0;
}

fn mc_lru_unlink(it) {
    var root = getroot(0);
    var nxt = it[5];
    var prv = it[6];
    if (prv == 0) {
        root[3] = nxt;
        persist(root + 3, 1);
    } else {
        prv[5] = nxt;
        persist(prv + 5, 1);
    }
    if (nxt == 0) {
        root[4] = prv;
        persist(root + 4, 1);
    } else {
        nxt[6] = prv;
        persist(nxt + 6, 1);
    }
    return 0;
}

fn mc_lru_push(it) {
    var root = getroot(0);
    var head = root[3];
    it[5] = head;
    it[6] = 0;
    persist(it + 5, 2);
    if (head != 0) {
        head[6] = it;
        persist(head + 6, 1);
    } else {
        root[4] = it;
        persist(root + 4, 1);
    }
    root[3] = it;
    persist(root + 3, 1);
    return 0;
}

fn mc_fill_value(vbuf, n, v) {
    var i = 0;
    while (i < n) {
        vbuf[i] = v + i;
        i = i + 1;
    }
    persist(vbuf, n);
    return 0;
}

// mc_set inserts or updates key k with an n-word value seeded from v.
fn mc_set(k, v, n) {
    lock(lockcell());
    mc_crawl();
    var t = mc_clock();
    var root = getroot(0);
    var it = mc_lookup(k);
    if (it != 0) {
        var old = it[1];
        var vbuf = pmalloc(n);
        mc_fill_value(vbuf, n, v);
        it[1] = vbuf;
        it[2] = n;
        it[7] = t;
        persist(it, 8);
        if (old != 0) {
            pfree(old);
        }
        unlock(lockcell());
        return 1;
    }
    it = pmalloc(8);
    var vbuf2 = pmalloc(n);
    mc_fill_value(vbuf2, n, v);
    it[0] = k;
    it[1] = vbuf2;
    it[2] = n;
    it[3] = 1;
    it[7] = t;
    var tab = root[0];
    var b = k % root[1];
    it[4] = tab[b];
    persist(it, 8);
    tab[b] = it;
    persist(tab + b, 1);
    mc_lru_push(it);
    root[2] = root[2] + 1;
    persist(root + 2, 1);
    unlock(lockcell());
    return 0;
}

var lockaddr;  // lazily allocated volatile lock word
fn lockcell() {
    if (lockaddr == 0) {
        lockaddr = valloc(1);
    }
    return lockaddr;
}

// mc_set_racy is the f3 path: it updates the bucket head WITHOUT the table
// lock, with a scheduling point inside the read-modify-write window.
fn mc_set_racy(k, v, n) {
    var t = mc_clock();
    var root = getroot(0);
    var it = pmalloc(8);
    var vbuf = pmalloc(n);
    mc_fill_value(vbuf, n, v);
    it[0] = k;
    it[1] = vbuf;
    it[2] = n;
    it[3] = 1;
    it[7] = t;
    var tab = root[0];
    var b = k % root[1];
    var head = tab[b];    // read...
    yield();              // ...the race window...
    it[4] = head;         // ...write with a possibly stale head
    persist(it, 8);
    tab[b] = it;
    persist(tab + b, 1);
    mc_lru_push(it);
    var cnt = root[2];   // the same unlocked read-modify-write race
    yield();
    root[2] = cnt + 1;   // loses one increment when interleaved
    persist(root + 2, 1);
    return 0;
}

// mc_get returns the sum of the value words (so corrupt lengths walk the
// buffer like the real code walks its byte array), or -1 on miss.
fn mc_get(k) {
    var root = getroot(0);
    var it = mc_lookup(k);
    if (it == 0) {
        return -1;
    }
    if (root[5] != 0 && it[7] <= root[5]) {
        return -1;   // flushed by flush_all
    }
    var vbuf = it[1];
    var n = it[2];
    var s = 0;
    var i = 0;
    while (i < n) {
        s = s + vbuf[i];
        i = i + 1;
    }
    return s;
}

// mc_hold pins an item (connection holding a reference). The f1 bug: the
// increment wraps at 8 bits with no overflow check.
fn mc_hold(k) {
    var it = mc_lookup(k);
    if (it == 0) {
        return -1;
    }
    it[3] = (it[3] + 1) & 255;
    persist(it + 3, 1);
    return it[3];
}

fn mc_release(k) {
    var it = mc_lookup(k);
    if (it == 0) {
        return -1;
    }
    it[3] = (it[3] - 1) & 255;
    persist(it + 3, 1);
    return it[3];
}

fn mc_delete(k) {
    lock(lockcell());
    var root = getroot(0);
    var tab = root[0];
    var b = k % root[1];
    var it = tab[b];
    var prev = 0;
    while (it != 0) {
        if (it[0] == k) {
            if (prev == 0) {
                tab[b] = it[4];
                persist(tab + b, 1);
            } else {
                prev[4] = it[4];
                persist(prev + 4, 1);
            }
            mc_lru_unlink(it);
            if (it[1] != 0) {
                pfree(it[1]);
            }
            pfree(it);
            root[2] = root[2] - 1;
            persist(root + 2, 1);
            unlock(lockcell());
            return 1;
        }
        prev = it;
        it = it[4];
    }
    unlock(lockcell());
    return 0;
}

// mc_append extends k's value by n words seeded from v. The f4 bug: the
// buffer is sized with an 8-bit wrap of the new length, but the stored
// length is the unwrapped sum.
fn mc_append(k, n, v) {
    var it = mc_lookup(k);
    if (it == 0) {
        return -1;
    }
    var oldlen = it[2];
    var newlen = oldlen + n;
    var cap = newlen & 255;   // slab-class size computation wraps
    if (cap < 1) {
        cap = 1;
    }
    var nbuf = pmalloc(cap);
    var old = it[1];
    var i = 0;
    while (i < oldlen && i < cap) {
        nbuf[i] = old[i];
        i = i + 1;
    }
    while (i < cap) {
        nbuf[i] = v;
        i = i + 1;
    }
    persist(nbuf, cap);
    it[1] = nbuf;
    it[2] = newlen;    // BUG: unwrapped length persisted
    persist(it, 8);
    pfree(old);
    return newlen;
}

// mc_flush is flush_all(when). The f2 bug: a future "when" is applied
// immediately instead of being scheduled.
fn mc_flush(when) {
    var root = getroot(0);
    root[5] = when - 1;
    persist(root + 5, 1);
    return 0;
}

// mc_expand doubles the hashtable — the rehashing whose in-progress flag
// f5's bit flip corrupts. The migration publishes the secondary table and
// the flag first, relinks every item, then atomically swaps the tables and
// clears the flag.
fn mc_expand() {
    lock(lockcell());
    var root = getroot(0);
    var nb = root[1];
    var nb2 = nb * 2;
    var tab2 = pmalloc(nb2);
    persist(tab2, nb2);
    root[7] = tab2;
    root[8] = nb2;
    root[6] = 1;           // rehashing in progress
    persist(root + 6, 3);
    var tab = root[0];
    var b = 0;
    while (b < nb) {
        var it = tab[b];
        while (it != 0) {
            var nxt = it[4];
            var b2 = it[0] % nb2;
            it[4] = tab2[b2];
            persist(it + 4, 1);
            tab2[b2] = it;
            persist(tab2 + b2, 1);
            it = nxt;
        }
        b = b + 1;
    }
    root[0] = tab2;
    root[1] = nb2;
    root[6] = 0;
    root[7] = 0;
    root[8] = 0;
    persist(root, 9);
    unlock(lockcell());
    return nb2;
}

// mc_count returns the maintained item counter.
fn mc_count() {
    var root = getroot(0);
    return root[2];
}

// mc_walk_count recounts items by walking every bucket chain (bounded by
// the maintained count so corrupted chains cannot hang the invariant check).
fn mc_walk_count() {
    var root = getroot(0);
    var tab = root[0];
    var nb = root[1];
    var limit = root[2] + root[2] + 16;
    var total = 0;
    var b = 0;
    while (b < nb) {
        var it = tab[b];
        while (it != 0 && total <= limit) {
            total = total + 1;
            it = it[4];
        }
        b = b + 1;
    }
    return total;
}

fn mc_recover() {
    recover_begin();
    var root = getroot(0);
    var tab = root[0];
    var nb = root[1];
    var limit = root[2] + root[2] + 16;
    var seen = 0;
    var b = 0;
    while (b < nb) {
        var it = tab[b];
        while (it != 0 && seen <= limit) {
            var vbuf = it[1];
            if (vbuf != 0) {
                var x = vbuf[0];
            }
            seen = seen + 1;
            it = it[4];
        }
        b = b + 1;
    }
    recover_end();
    return seen;
}

// mc_race launches two unlocked concurrent inserts (the f3 trigger) and
// waits for both.
fn mc_race(k1, v1, k2, v2) {
    spawn mc_set_racy(k1, v1, 2);
    spawn mc_set_racy(k2, v2, 2);
    var spin = 0;
    while (spin < 2000) {
        yield();
        spin = spin + 1;
    }
    return 0;
}
`

// Memcached returns the deployable Memcached-like system.
func Memcached() *System {
	return &System{
		Name:      "memcached",
		Source:    memcachedSource,
		PoolWords: 1 << 16,
		InitFn:    "mc_init",
		RecoverFn: "mc_recover",
	}
}

// MC wraps a Memcached deployment with typed operations.
type MC struct{ *arthas.Instance }

// NewMC deploys the Memcached system.
func NewMC(cfg arthas.Config) (*MC, error) {
	d, err := Deploy(Memcached(), cfg)
	if err != nil {
		return nil, err
	}
	return &MC{d}, nil
}

// Set stores key k with an n-word value seeded from v.
func (m *MC) Set(k, v, n int64) error { return callErr(m.Instance, "mc_set", k, v, n) }

// Get returns the value sum for k, or -1 on miss.
func (m *MC) Get(k int64) (int64, error) {
	v, trap := m.Call("mc_get", k)
	if trap != nil {
		return 0, trap
	}
	return v, nil
}

// Delete removes k.
func (m *MC) Delete(k int64) error { return callErr(m.Instance, "mc_delete", k) }

// Count returns the maintained item counter.
func (m *MC) Count() (int64, error) {
	v, trap := m.Call("mc_count")
	if trap != nil {
		return 0, trap
	}
	return v, nil
}
