package reactor

import (
	"sync"
	"testing"

	"arthas/internal/checkpoint"
	"arthas/internal/pmem"
	"arthas/internal/trace"
)

// Two simultaneous mitigations through one server must not interfere: the
// server fills the cached analysis into a per-call copy of the Context
// (never the caller's), so concurrent requests for distinct deployments
// are safe. Run under -race; a shared-Context regression shows up both as
// a detector report and as caller-visible mutation, checked below.
func TestServerConcurrentMitigations(t *testing.T) {
	srv := NewServer()
	// Two deployments of the SAME compiled module — the situation the
	// server's per-target analysis cache exists for.
	r0 := newRig(t, miniKV)
	r1 := &rig{mod: r0.mod, res: r0.res, pool: pmem.New(1 << 14), log: checkpoint.NewLog(3), tr: trace.New()}
	r1.pool.SetHooks(r1.log.Hooks())
	r1.boot()
	rigs := [2]*rig{r0, r1}
	srv.Precompute("minikv", r0.mod)
	// Analysis instruments the module in place; block until it settles
	// before executing that module (in production the server precomputes
	// before the target starts serving).
	if _, err := srv.Analysis("minikv"); err != nil {
		t.Fatal(err)
	}

	var ctxs [2]*Context
	for k, r := range rigs {
		r.m.Call("init_")
		r.m.Call("put", 0, 100+int64(k))
		r.m.Call("evil", 777)
		_, trap := r.m.Call("get", 0)
		if trap == nil {
			t.Fatalf("rig %d did not fail", k)
		}
		ctxs[k] = r.context(trap, calls("get", 0))
		ctxs[k].Analysis = nil // the server fills it in
	}

	var wg sync.WaitGroup
	var reps [2]*Report
	var errs [2]error
	for k := range rigs {
		k := k
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[k], errs[k] = srv.Mitigate("minikv", DefaultConfig(), ctxs[k])
		}()
	}
	wg.Wait()
	for k := range rigs {
		if errs[k] != nil {
			t.Fatalf("rig %d: %v", k, errs[k])
		}
		if !reps[k].Recovered {
			t.Fatalf("rig %d not recovered: %v", k, reps[k])
		}
		if ctxs[k].Analysis != nil {
			t.Fatalf("rig %d: server mutated the caller's Context", k)
		}
	}
}
