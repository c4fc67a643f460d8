package systems

import "arthas"

// CCEH-like extendible hash table for PM.
//
// Hosts the f9 case: directory doubling modifies several pieces of
// metadata; an untimely crash before the global depth is updated leaves the
// directory and depth inconsistent, and subsequent insertions spin forever
// (the RECIPE-reported CCEH bug).
//
// Persistent layout (word offsets):
//
//	root:    0 DIR (array of segment ptrs)  1 GDEPTH  2 NKEYS
//	segment: 0 LDEPTH  1 NUSED  2.. 2+2*SEGCAP slot pairs (key, value);
//	         key slot 0 means empty (keys must be nonzero)
//
// Segment capacity is 8 pairs. The directory has 2^GDEPTH entries; segment
// index = key & (2^GDEPTH - 1) folded over the directory.
const ccehSource = `
// ---- CCEH (write-optimized dynamic hashing for PM) ----

// Injected-crash rendezvous: the f9 experiment arms this to make the
// doubling path "crash" between installing the new directory and updating
// the global depth (the paper's untimely crash).
var crashpoint;

fn cc_init() {
    var root = pmalloc(4);
    var g = 2;
    var dirsize = 1 << g;
    var dir = pmalloc(dirsize);
    var i = 0;
    while (i < dirsize) {
        var seg = cc_newseg(g);
        dir[i] = seg;
        i = i + 1;
    }
    persist(dir, dirsize);
    root[0] = dir;
    root[1] = g;
    root[2] = 0;
    persist(root, 3);
    setroot(0, root);
    return 0;
}

fn cc_newseg(ldepth) {
    var seg = pmalloc(2 + 16);
    seg[0] = ldepth;
    seg[1] = 0;
    persist(seg, 18);
    return seg;
}

fn cc_segidx(k, g) {
    return k & ((1 << g) - 1);
}

// cc_insert adds (k, v); keys must be nonzero. Returns 0 on success.
fn cc_insert(k, v) {
    var root = getroot(0);
    var tries = 0;
    while (tries < 64) {
        var dir = root[0];
        var g = root[1];
        // The f9 consistency check: a doubled directory with a stale
        // global depth makes the code believe another doubling is in
        // flight, so it waits — forever, since nobody completes it.
        if (pmsize(dir) != (1 << g)) {
            yield();
            tries = tries + 0;   // spin without progress (hang)
            continue;
        }
        var idx = cc_segidx(k, g);
        var seg = dir[idx];
        var slot = cc_seg_put(seg, k, v);
        if (slot >= 0) {
            root[2] = root[2] + 1;
            persist(root + 2, 1);
            return 0;
        }
        // Segment full: split (or double the directory first).
        if (seg[0] == g) {
            cc_double();
        } else {
            cc_split(idx);
        }
        tries = tries + 1;
    }
    return -1;
}

// cc_seg_put places k in seg; updates in place if present. Returns the
// slot index or -1 when full.
fn cc_seg_put(seg, k, v) {
    var i = 0;
    while (i < 8) {
        var off = 2 + i * 2;
        if (seg[off] == k) {
            seg[off + 1] = v;
            persist(seg + off, 2);
            return i;
        }
        if (seg[off] == 0) {
            seg[off] = k;
            seg[off + 1] = v;
            seg[1] = seg[1] + 1;
            persist(seg + off, 2);
            persist(seg + 1, 1);
            return i;
        }
        i = i + 1;
    }
    return -1;
}

// cc_double doubles the directory: new dir, copied pointers, THEN the
// global depth. The f9 crash is injected between those two persists.
fn cc_double() {
    var root = getroot(0);
    var dir = root[0];
    var g = root[1];
    var oldsize = 1 << g;
    var ndir = pmalloc(oldsize * 2);
    var i = 0;
    while (i < oldsize) {
        ndir[i] = dir[i];
        ndir[i + oldsize] = dir[i];
        i = i + 1;
    }
    persist(ndir, oldsize * 2);
    root[0] = ndir;
    persist(root, 1);
    if (crashpoint != 0) {
        fail(9999);   // the injected untimely crash (f9)
    }
    root[1] = g + 1;
    persist(root + 1, 1);
    pfree(dir);
    return 0;
}

// cc_split splits the segment at directory index idx into two with a
// deeper local depth, redistributing its keys.
fn cc_split(idx) {
    var root = getroot(0);
    var dir = root[0];
    var g = root[1];
    var seg = dir[idx];
    var l = seg[0];
    var s0 = cc_newseg(l + 1);
    var s1 = cc_newseg(l + 1);
    var i = 0;
    while (i < 8) {
        var off = 2 + i * 2;
        var k = seg[off];
        if (k != 0) {
            var tgt = s0;
            if ((k >> l) & 1) {
                tgt = s1;
            }
            cc_seg_put(tgt, k, seg[off + 1]);
        }
        i = i + 1;
    }
    // Update every directory entry that pointed at seg.
    var dirsize = 1 << g;
    var d = 0;
    while (d < dirsize) {
        if (dir[d] == seg) {
            if ((d >> l) & 1) {
                dir[d] = s1;
            } else {
                dir[d] = s0;
            }
            persist(dir + d, 1);
        }
        d = d + 1;
    }
    pfree(seg);
    return 0;
}

fn cc_get(k) {
    var root = getroot(0);
    var dir = root[0];
    var g = root[1];
    var idx = cc_segidx(k, g);
    var seg = dir[idx];
    var i = 0;
    while (i < 8) {
        var off = 2 + i * 2;
        if (seg[off] == k) {
            return seg[off + 1];
        }
        i = i + 1;
    }
    return -1;
}

fn cc_count() {
    var root = getroot(0);
    return root[2];
}

fn cc_arm_crash() {
    crashpoint = 1;
    return 0;
}

fn cc_recover() {
    recover_begin();
    var root = getroot(0);
    var dir = root[0];
    var g = root[1];
    var dirsize = pmsize(dir);
    var i = 0;
    while (i < dirsize) {
        var seg = dir[i];
        if (seg != 0) {
            var l = seg[0];
        }
        i = i + 1;
    }
    recover_end();
    return g;
}
`

// CCEH returns the deployable CCEH-like system.
func CCEH() *System {
	return &System{
		Name:      "cceh",
		Source:    ccehSource,
		PoolWords: 1 << 16,
		InitFn:    "cc_init",
		RecoverFn: "cc_recover",
	}
}

// CC wraps a CCEH deployment with typed operations.
type CC struct{ *arthas.Instance }

// NewCC deploys the CCEH system.
func NewCC(cfg arthas.Config) (*CC, error) {
	d, err := Deploy(CCEH(), cfg)
	if err != nil {
		return nil, err
	}
	return &CC{d}, nil
}

// Insert adds a nonzero key.
func (c *CC) Insert(k, v int64) error { return callErr(c.Instance, "cc_insert", k, v) }

// Get looks up k (-1 on miss).
func (c *CC) Get(k int64) (int64, error) {
	v, trap := c.Call("cc_get", k)
	if trap != nil {
		return 0, trap
	}
	return v, nil
}
