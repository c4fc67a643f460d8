package systems

import "arthas"

// Pelikan-like PM cache server.
//
// Hosts f10 (value length overflow: a large set wraps the slab item's
// length field computation, persisting a length far beyond the buffer —
// the read path then walks off the pool) and f11 (null stats response: a
// stats-reset path persists a null metrics pointer that the stats command
// dereferences without a check).
//
// Persistent layout (word offsets):
//
//	root:  0 TAB  1 NBUCKET  2 NITEMS  3 METRICS (stats block ptr)
//	item:  0 KEY  1 VBUF  2 VLEN  3 HNEXT
//	metrics: 0 HITS  1 MISSES  2 SETS
const pelikanSource = `
// ---- Pelikan ----

fn pk_init() {
    var root = pmalloc(8);
    var nb = 64;
    var tab = pmalloc(nb);
    var metrics = pmalloc(4);
    persist(metrics, 3);
    root[0] = tab;
    root[1] = nb;
    root[2] = 0;
    root[3] = metrics;
    persist(root, 4);
    persist(tab, 64);
    setroot(0, root);
    return 0;
}

fn pk_find(k) {
    var root = getroot(0);
    var tab = root[0];
    var it = tab[k % root[1]];
    while (it != 0) {
        if (it[0] == k) {
            return it;
        }
        it = it[3];
    }
    return 0;
}

// pk_set stores an n-word value. The f10 bug: the item length field is
// computed through a 12-bit slab-size encoding that wraps for large
// values, but the raw requested length is what gets persisted.
fn pk_set(k, v, n) {
    pk_stat_bump(2);
    var root = getroot(0);
    var cap = n & 4095;     // slab-class size wraps at 4096 words
    if (cap < 1) {
        cap = 1;
    }
    var it = pk_find(k);
    if (it == 0) {
        it = pmalloc(4);
        it[0] = k;
        var tab = root[0];
        var b = k % root[1];
        it[3] = tab[b];
        persist(it, 4);
        tab[b] = it;
        persist(tab + b, 1);
        root[2] = root[2] + 1;
        persist(root + 2, 1);
    } else {
        if (it[1] != 0) {
            pfree(it[1]);
        }
    }
    var vbuf = pmalloc(cap);
    var i = 0;
    while (i < cap) {
        vbuf[i] = v + i;
        i = i + 1;
    }
    persist(vbuf, cap);
    it[1] = vbuf;
    it[2] = n;              // BUG: unwrapped length persisted
    persist(it, 4);
    return 0;
}

// pk_get sums the stored value words (walks VLEN words).
fn pk_get(k) {
    var it = pk_find(k);
    if (it == 0) {
        pk_stat_bump(1);
        return -1;
    }
    pk_stat_bump(0);
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

fn pk_stat_bump(which) {
    var root = getroot(0);
    var m = root[3];
    if (m == 0) {
        return 0;   // stats disabled (or broken: see pk_stats)
    }
    m[which] = m[which] + 1;
    persist(m + which, 1);
    return 0;
}

// pk_stats_reset rotates the metrics block. The f11 bug: the new block is
// installed only AFTER the old pointer is nulled and persisted; a crash in
// between leaves a persistent null metrics pointer.
var pk_crashpoint;
fn pk_stats_reset() {
    var root = getroot(0);
    var old = root[3];
    root[3] = 0;
    persist(root + 3, 1);
    if (pk_crashpoint != 0) {
        fail(1111);   // the untimely crash
    }
    var m = pmalloc(4);
    persist(m, 3);
    root[3] = m;
    persist(root + 3, 1);
    if (old != 0) {
        pfree(old);
    }
    return 0;
}

fn pk_arm_crash() {
    pk_crashpoint = 1;
    return 0;
}

// pk_stats renders the stats response; it dereferences the metrics block
// without a null check (f11's segfault).
fn pk_stats() {
    var root = getroot(0);
    var m = root[3];
    return m[0] * 1000000 + m[1] * 1000 + m[2];
}

fn pk_count() {
    var root = getroot(0);
    return root[2];
}

fn pk_recover() {
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
            it = it[3];
        }
        b = b + 1;
    }
    var m = root[3];
    if (m != 0) {
        var h = m[0];
    }
    recover_end();
    return seen;
}
`

// Pelikan returns the deployable Pelikan-like system.
func Pelikan() *System {
	return &System{
		Name:      "pelikan",
		Source:    pelikanSource,
		PoolWords: 1 << 16,
		InitFn:    "pk_init",
		RecoverFn: "pk_recover",
	}
}

// PK wraps a Pelikan deployment with typed operations.
type PK struct{ *arthas.Instance }

// NewPK deploys the Pelikan system.
func NewPK(cfg arthas.Config) (*PK, error) {
	d, err := Deploy(Pelikan(), cfg)
	if err != nil {
		return nil, err
	}
	return &PK{d}, nil
}

// Set stores an n-word value for k seeded from v.
func (p *PK) Set(k, v, n int64) error { return callErr(p.Instance, "pk_set", k, v, n) }

// Get sums k's value words (-1 on miss).
func (p *PK) Get(k int64) (int64, error) {
	v, trap := p.Call("pk_get", k)
	if trap != nil {
		return 0, trap
	}
	return v, nil
}
