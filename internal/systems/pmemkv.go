package systems

import "arthas"

// PMEMKV-like PM key-value database.
//
// Hosts the f12 case: delete unlinks the key from the index immediately
// and hands the object to an asynchronous worker for freeing later; a
// crash before the worker runs leaks the object permanently (the reported
// PMEMKV lazy-free issue).
//
// Persistent layout (word offsets):
//
//	root:  0 TAB (bucket array)  1 NBUCKET  2 NKEYS
//	node:  0 KEY  1 VALUE  2 HNEXT
const pmemkvSource = `
// ---- PMEMKV ----

fn kv_init() {
    var root = pmalloc(4);
    var nb = 128;
    var tab = pmalloc(nb);
    root[0] = tab;
    root[1] = nb;
    root[2] = 0;
    persist(root, 3);
    persist(tab, 128);
    setroot(0, root);
    return 0;
}

fn kv_find(k) {
    var root = getroot(0);
    var tab = root[0];
    var n = tab[k % root[1]];
    while (n != 0) {
        if (n[0] == k) {
            return n;
        }
        n = n[2];
    }
    return 0;
}

fn kv_put(k, v) {
    var root = getroot(0);
    var n = kv_find(k);
    if (n != 0) {
        n[1] = v;
        persist(n + 1, 1);
        return 1;
    }
    n = pmalloc(3);
    n[0] = k;
    n[1] = v;
    var tab = root[0];
    var b = k % root[1];
    n[2] = tab[b];
    persist(n, 3);
    tab[b] = n;
    persist(tab + b, 1);
    root[2] = root[2] + 1;
    persist(root + 2, 1);
    return 0;
}

fn kv_get(k) {
    var n = kv_find(k);
    if (n == 0) {
        return -1;
    }
    return n[1];
}

// kv_free_worker is the asynchronous lazy-free thread: it frees the node
// some time after the unlink. If the process dies first, the node leaks.
fn kv_free_worker(n) {
    yield();
    pfree(n);
    return 0;
}

// kv_del unlinks k and schedules the free asynchronously (the f12 path).
fn kv_del(k) {
    var root = getroot(0);
    var tab = root[0];
    var b = k % root[1];
    var n = tab[b];
    var prev = 0;
    while (n != 0) {
        if (n[0] == k) {
            if (prev == 0) {
                tab[b] = n[2];
                persist(tab + b, 1);
            } else {
                prev[2] = n[2];
                persist(prev + 2, 1);
            }
            root[2] = root[2] - 1;
            persist(root + 2, 1);
            spawn kv_free_worker(n);
            return 1;
        }
        prev = n;
        n = n[2];
    }
    return 0;
}

fn kv_count() {
    var root = getroot(0);
    return root[2];
}

fn kv_recover() {
    recover_begin();
    var root = getroot(0);
    var tab = root[0];
    var nb = root[1];
    var limit = root[2] + root[2] + 16;
    var seen = 0;
    var b = 0;
    while (b < nb) {
        var n = tab[b];
        while (n != 0 && seen <= limit) {
            var v = n[1];
            seen = seen + 1;
            n = n[2];
        }
        b = b + 1;
    }
    recover_end();
    return seen;
}
`

// PMEMKV returns the deployable PMEMKV-like system.
func PMEMKV() *System {
	return &System{
		Name:      "pmemkv",
		Source:    pmemkvSource,
		PoolWords: 1 << 16,
		InitFn:    "kv_init",
		RecoverFn: "kv_recover",
	}
}

// KV wraps a PMEMKV deployment with typed operations.
type KV struct{ *arthas.Instance }

// NewKV deploys the PMEMKV system.
func NewKV(cfg arthas.Config) (*KV, error) {
	d, err := Deploy(PMEMKV(), cfg)
	if err != nil {
		return nil, err
	}
	return &KV{d}, nil
}

// Put stores (k, v).
func (s *KV) Put(k, v int64) error { return callErr(s.Instance, "kv_put", k, v) }

// Get fetches k's value (-1 on miss).
func (s *KV) Get(k int64) (int64, error) {
	v, trap := s.Call("kv_get", k)
	if trap != nil {
		return 0, trap
	}
	return v, nil
}

// Del removes k, scheduling the free on the async worker.
func (s *KV) Del(k int64) error { return callErr(s.Instance, "kv_del", k) }
