package systems

import "arthas"

// Redis-like PM store.
//
// Hosts the paper's three Redis cases: the listpack encoding bug that
// corrupts the stored size for large packs (f6, crash in lpNext), a shared-
// object refcount logic error that frees an object still referenced by the
// dict (f7, server panic), and the slowlog trim path that forgets to free
// evicted entries (f8, persistent leak).
//
// Persistent layout (word offsets):
//
//	root:  0 DICT (bucket array)  1 NBUCKET  2 NKEYS  3 SLOWHEAD
//	       4 SLOWLEN              5 SHARED (shared integer object)
//	entry: 0 KEY  1 OBJ  2 HNEXT
//	obj:   0 TYPE(1=int,2=listpack)  1 REFCOUNT  2 PAYLOAD (value or lp ptr)
//	listpack: 0 TOTALWORDS  1 COUNT  2.. elements
//	slowlog entry: 0 ID  1 DURATION  2 NEXT
const redisSource = `
// ---- Redis (PM port) ----

fn rd_init() {
    var root = pmalloc(8);
    var nb = 64;
    var dict = pmalloc(nb);
    root[0] = dict;
    root[1] = nb;
    root[2] = 0;
    root[3] = 0;   // slowlog head
    root[4] = 0;   // slowlog length
    // The shared integer object (like Redis' shared.integers).
    var shared = pmalloc(4);
    shared[0] = 1;   // type int
    shared[1] = 1;   // refcount
    shared[2] = 0;
    persist(shared, 3);
    root[5] = shared;
    persist(root, 6);
    persist(dict, 64);
    setroot(0, root);
    return 0;
}

fn rd_find(k) {
    var root = getroot(0);
    var dict = root[0];
    var e = dict[k % root[1]];
    while (e != 0) {
        if (e[0] == k) {
            return e;
        }
        e = e[2];
    }
    return 0;
}

// rd_set stores an integer object for k.
fn rd_set(k, v) {
    rd_slowlog(k);
    var root = getroot(0);
    var e = rd_find(k);
    if (e != 0) {
        var obj = e[1];
        obj[2] = v;
        persist(obj + 2, 1);
        return 1;
    }
    var obj2 = pmalloc(4);
    obj2[0] = 1;
    obj2[1] = 1;
    obj2[2] = v;
    persist(obj2, 3);
    e = pmalloc(4);
    e[0] = k;
    e[1] = obj2;
    var dict = root[0];
    var b = k % root[1];
    e[2] = dict[b];
    persist(e, 3);
    dict[b] = e;
    persist(dict + b, 1);
    root[2] = root[2] + 1;
    persist(root + 2, 1);
    return 0;
}

fn rd_get(k) {
    var e = rd_find(k);
    if (e == 0) {
        return -1;
    }
    var obj = e[1];
    // Sanity check the object header the way Redis asserts object types:
    // a freed/recycled object trips this (f7's panic).
    if (obj[0] != 1 && obj[0] != 2) {
        fail(71);
    }
    if (obj[0] == 1) {
        return obj[2];
    }
    return lp_sum(obj[2]);
}

// --- listpack ---

// rd_lp_new creates an empty listpack object under key k.
fn rd_lp_new(k, cap) {
    rd_slowlog(k);
    var root = getroot(0);
    var lp = pmalloc(cap + 2);
    lp[0] = 2;     // header words used so far
    lp[1] = 0;     // element count
    persist(lp, 2);
    var obj = pmalloc(4);
    obj[0] = 2;
    obj[1] = 1;
    obj[2] = lp;
    persist(obj, 3);
    var e = pmalloc(4);
    e[0] = k;
    e[1] = obj;
    var dict = root[0];
    var b = k % root[1];
    e[2] = dict[b];
    persist(e, 3);
    dict[b] = e;
    persist(dict + b, 1);
    root[2] = root[2] + 1;
    persist(root + 2, 1);
    return 0;
}

// rd_lp_append encodes v onto k's listpack. The f6 bug: for packs past the
// 96-word encoding boundary the updated total is written through a wrapped
// 7-bit "backlen" encoding, corrupting the stored size.
fn rd_lp_append(k, v) {
    var e = rd_find(k);
    if (e == 0) {
        return -1;
    }
    var obj = e[1];
    if (obj[0] != 2) {
        return -2;
    }
    var lp = obj[2];
    var used = lp[0];
    if (pmsize(lp) <= used) {
        return -3;  // full
    }
    lp[used] = v;
    var newused = used + 1;
    if (newused > 96) {
        // BUG: large-pack encoding corrupts the size field.
        newused = ((newused & 127) << 12) + 4095;
    }
    lp[0] = newused;
    lp[1] = lp[1] + 1;
    persist(lp, 2);
    persist(lp + used, 1);
    return lp[1];
}

// lp_sum walks the listpack elements by the stored size (the lpNext walk
// that segfaults on a corrupt header).
fn lp_sum(lp) {
    var used = lp[0];
    var s = 0;
    var i = 2;
    while (i < used) {
        s = s + lp[i];
        i = i + 1;
    }
    return s;
}

// --- shared object refcounts (f7) ---

// rd_share hands out the shared object to key k (incrRefCount).
fn rd_share(k) {
    var root = getroot(0);
    var shared = root[5];
    shared[1] = shared[1] + 1;
    persist(shared + 1, 1);
    var e = rd_find(k);
    if (e != 0) {
        e[1] = shared;
        persist(e + 1, 1);
        return 1;
    }
    e = pmalloc(4);
    e[0] = k;
    e[1] = shared;
    var dict = root[0];
    var b = k % root[1];
    e[2] = dict[b];
    persist(e, 3);
    dict[b] = e;
    persist(dict + b, 1);
    root[2] = root[2] + 1;
    persist(root + 2, 1);
    return 0;
}

// rd_unshare releases k's reference. The f7 bug: an extra decrement on the
// error path drops the refcount to zero while the dict still references
// the object, so it is freed and its header scribbled.
fn rd_unshare(k, twice) {
    var root = getroot(0);
    var shared = root[5];
    shared[1] = shared[1] - 1;
    persist(shared + 1, 1);
    if (twice != 0) {
        // BUG: logic error path decrements again.
        shared[1] = shared[1] - 1;
        persist(shared + 1, 1);
    }
    if (shared[1] <= 0) {
        shared[0] = 0;  // poison the header, then free (like zfree)
        persist(shared, 1);
        pfree(shared);
    }
    return shared[1];
}

// --- slowlog (f8) ---

// rd_slowlog records a command in the slowlog ring when the persistent
// config flag root[6] is set. The f8 bug: trimming unlinks old entries but
// never frees them — a persistent leak.
fn rd_slowlog(id) {
    var root = getroot(0);
    if (root[6] == 0) {
        return 0;
    }
    // Entries carry the command's argument payload too (8 words), like
    // real slowlog entries keep argv copies.
    var se = pmalloc(8);
    se[0] = id;
    se[1] = id & 1023;
    se[2] = root[3];
    persist(se, 3);
    root[3] = se;
    root[4] = root[4] + 1;
    persist(root + 3, 2);
    if (root[4] > 8) {
        // Trim the tail: walk to the 8th entry and cut the chain.
        var cur = root[3];
        var i = 1;
        while (i < 8) {
            cur = cur[2];
            i = i + 1;
        }
        cur[2] = 0;           // BUG: the cut-off entries are never pfree'd
        persist(cur + 2, 1);
        root[4] = 8;
        persist(root + 4, 1);
    }
    return 0;
}

fn rd_slowlog_on() {
    var root = getroot(0);
    root[6] = 1;
    persist(root + 6, 1);
    return 0;
}

fn rd_count() {
    var root = getroot(0);
    return root[2];
}

fn rd_walk_count() {
    var root = getroot(0);
    var dict = root[0];
    var nb = root[1];
    var limit = root[2] + root[2] + 16;
    var total = 0;
    var b = 0;
    while (b < nb) {
        var e = dict[b];
        while (e != 0 && total <= limit) {
            total = total + 1;
            e = e[2];
        }
        b = b + 1;
    }
    return total;
}

fn rd_recover() {
    recover_begin();
    var root = getroot(0);
    var dict = root[0];
    var nb = root[1];
    var limit = root[2] + root[2] + 16;
    var seen = 0;
    var b = 0;
    while (b < nb) {
        var e = dict[b];
        while (e != 0 && seen <= limit) {
            var obj = e[1];
            if (obj != 0) {
                var ty = obj[0];
                if (ty == 2) {
                    var lp = obj[2];
                    var hdr = lp[0];
                }
            }
            seen = seen + 1;
            e = e[2];
        }
        b = b + 1;
    }
    // Walk the live slowlog entries too: they are reachable state.
    var se = root[3];
    var n = 0;
    while (se != 0 && n <= root[4]) {
        var x = se[0];
        se = se[2];
        n = n + 1;
    }
    recover_end();
    return seen;
}
`

// Redis returns the deployable Redis-like system.
func Redis() *System {
	return &System{
		Name:      "redis",
		Source:    redisSource,
		PoolWords: 1 << 16,
		InitFn:    "rd_init",
		RecoverFn: "rd_recover",
	}
}

// RD wraps a Redis deployment with typed operations.
type RD struct{ *arthas.Instance }

// NewRD deploys the Redis system.
func NewRD(cfg arthas.Config) (*RD, error) {
	d, err := Deploy(Redis(), cfg)
	if err != nil {
		return nil, err
	}
	return &RD{d}, nil
}

// Set stores integer v at key k.
func (r *RD) Set(k, v int64) error { return callErr(r.Instance, "rd_set", k, v) }

// Get fetches k's value (or listpack sum), -1 on miss.
func (r *RD) Get(k int64) (int64, error) {
	v, trap := r.Call("rd_get", k)
	if trap != nil {
		return 0, trap
	}
	return v, nil
}
