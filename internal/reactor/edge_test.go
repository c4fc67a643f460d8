package reactor

import (
	"reflect"
	"slices"
	"testing"

	"arthas/internal/vm"
)

// Edge-case parity: mitigation must produce the SAME well-formed report at
// any worker count — empty candidate plans, single-candidate bisects, and
// runs where every probe fails must charge attempts identically whether the
// search ran sequentially or speculatively on forks.

// normalize strips the fields that legitimately differ across runs
// (wall-clock, trap pointers) so reports compare with reflect.DeepEqual.
func normalize(rep *Report) *Report {
	n := *rep
	n.Duration = 0
	n.LastTrap = nil
	n.TotalVersions = 0 // parallel probes may version fork-local state
	if n.AttemptsByMode == nil {
		n.AttemptsByMode = map[string]int{}
	}
	return &n
}

// failingRig builds the miniKV rig in its post-failure state and returns the
// context pieces mitigation needs.
func failingRig(t *testing.T) (*rig, *vm.Trap) {
	t.Helper()
	r := newRig(t, miniKV)
	if _, trap := r.m.Call("init_"); trap != nil {
		t.Fatal(trap)
	}
	for i := int64(0); i < 10; i++ {
		if _, trap := r.m.Call("put", i, 100+i); trap != nil {
			t.Fatal(trap)
		}
	}
	if _, trap := r.m.Call("evil", 777); trap != nil {
		t.Fatal(trap)
	}
	_, trap := r.m.Call("get", 0)
	if trap == nil {
		t.Fatal("no failure")
	}
	return r, trap
}

func TestEmptyPlanRestartOnlyParity(t *testing.T) {
	for _, healthy := range []bool{true, false} {
		var reports []*Report
		for _, workers := range []int{1, 8} {
			r, _ := failingRig(t)
			reexecs := 0
			ctx := &Context{
				Analysis: r.res, Trace: r.tr, Log: r.log, Pool: r.pool,
				// No fault instructions at all: the plan is empty and the
				// reactor must fall back to plain restart (§4.5).
				ReExec: func() *vm.Trap {
					reexecs++
					if healthy {
						return nil
					}
					return &vm.Trap{Kind: vm.TrapSegfault}
				},
				ForkSession: r.forkSessions(calls("get", 0)),
			}
			cfg := DefaultConfig()
			cfg.Workers = workers
			rep := Mitigate(cfg, ctx)
			if !rep.RestartOnly {
				t.Fatalf("workers=%d healthy=%v: RestartOnly not set", workers, healthy)
			}
			if rep.Recovered != healthy {
				t.Fatalf("workers=%d healthy=%v: Recovered=%v", workers, healthy, rep.Recovered)
			}
			if rep.Attempts != 1 || rep.AttemptsByMode["restart"] != 1 {
				t.Fatalf("workers=%d: attempts=%d byMode=%v, want exactly one restart",
					workers, rep.Attempts, rep.AttemptsByMode)
			}
			if reexecs != 1 {
				t.Fatalf("workers=%d: %d re-executions, want 1", workers, reexecs)
			}
			if len(rep.RevertedSeqs) != 0 || rep.RevertedVersions != 0 {
				t.Fatalf("workers=%d: empty plan reverted data: %+v", workers, rep)
			}
			reports = append(reports, normalize(rep))
		}
		if !reflect.DeepEqual(reports[0], reports[1]) {
			t.Fatalf("healthy=%v: restart-only reports differ:\n  w1: %+v\n  w8: %+v",
				healthy, reports[0], reports[1])
		}
	}
}

func TestSingleCandidateBisectParity(t *testing.T) {
	// A plan with exactly ONE candidate forced down the bisect path: the
	// degenerate lo==hi==1 search must terminate with no off-by-one (probe
	// prefix 1, then apply + confirm) and report byte-identically at any
	// worker count.
	var reports []*Report
	for _, workers := range []int{1, 8} {
		r, trap := failingRig(t)
		cfg := DefaultConfig()
		cfg.CumulativeOnly = true // skip isolated trials: bisect does the work
		cfg.Bisect = true
		cfg.Workers = workers
		cfg.Plan.MaxCandidates = 1
		ctx := r.context(trap, calls("get", 0))
		ctx.AddrFault = true
		rep := Mitigate(cfg, ctx)
		if rep.CandidateCount != 1 {
			t.Fatalf("workers=%d: plan has %d candidates, want 1", workers, rep.CandidateCount)
		}
		if !rep.Recovered {
			t.Fatalf("workers=%d: single-candidate bisect failed: %v", workers, rep)
		}
		if len(rep.RevertedSeqs) != 1 {
			t.Fatalf("workers=%d: reverted seqs %v, want exactly the one candidate",
				workers, rep.RevertedSeqs)
		}
		reports = append(reports, normalize(rep))
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("single-candidate bisect reports differ:\n  w1: %+v\n  w8: %+v",
			reports[0], reports[1])
	}
}

func TestMultiCandidateBisectOutcomeParity(t *testing.T) {
	// With several candidates and workers the bisect legitimately probes
	// more points per round (deterministic per worker count), but the
	// OUTCOME — what healed, what was reverted, which mode — must match the
	// one-worker binary search, and charging must stay well-formed.
	var outcomes []*Report
	for _, workers := range []int{1, 8} {
		r, trap := failingRig(t)
		cfg := DefaultConfig()
		cfg.CumulativeOnly = true
		cfg.Bisect = true
		cfg.Workers = workers
		ctx := r.context(trap, calls("get", 0))
		ctx.AddrFault = true
		rep := Mitigate(cfg, ctx)
		if !rep.Recovered {
			t.Fatalf("workers=%d: bisect mitigation failed: %v", workers, rep)
		}
		total := 0
		for _, n := range rep.AttemptsByMode {
			total += n
		}
		if total != rep.Attempts {
			t.Fatalf("workers=%d: AttemptsByMode sums to %d, Attempts=%d",
				workers, total, rep.Attempts)
		}
		outcomes = append(outcomes, rep)
	}
	w1, w8 := outcomes[0], outcomes[1]
	if !reflect.DeepEqual(w1.RevertedSeqs, w8.RevertedSeqs) {
		t.Fatalf("bisect reverted different seqs: w1=%v w8=%v", w1.RevertedSeqs, w8.RevertedSeqs)
	}
	if w1.ModeUsed != w8.ModeUsed || w1.FellBack != w8.FellBack ||
		w1.RevertedVersions != w8.RevertedVersions {
		t.Fatalf("bisect outcomes differ:\n  w1: %+v\n  w8: %+v", w1, w8)
	}
}

func TestIsolatedRoundParity(t *testing.T) {
	// The default (isolated-round) search: same report at 1 and 8 workers.
	var reports []*Report
	for _, workers := range []int{1, 8} {
		r, trap := failingRig(t)
		cfg := DefaultConfig()
		cfg.Workers = workers
		ctx := r.context(trap, calls("get", 0))
		ctx.AddrFault = true
		rep := Mitigate(cfg, ctx)
		if !rep.Recovered {
			t.Fatalf("workers=%d: mitigation failed: %v", workers, rep)
		}
		reports = append(reports, normalize(rep))
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("reports differ across workers:\n  w1: %+v\n  w8: %+v",
			reports[0], reports[1])
	}
}

func TestAllProbesFailChargingParity(t *testing.T) {
	// Every probe fails — on the base AND on every fork. Attempt charging
	// (total and per-mode, including the rollback fallback budget) must be
	// identical at any worker count, and the attempt total must respect
	// MaxAttempts per mode.
	var reports []*Report
	for _, workers := range []int{1, 8} {
		r, trap := failingRig(t)
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Bisect = true
		cfg.MaxAttempts = 7 // small budget: exercises exhaustion exactly
		permafail := &vm.Trap{Kind: vm.TrapSegfault, Instr: trap.Instr}
		ctx := r.context(trap, func(*vm.Machine) *vm.Trap { return permafail })
		ctx.AddrFault = true
		rep := Mitigate(cfg, ctx)
		if rep.Recovered {
			t.Fatalf("workers=%d: recovered with a permafailing probe", workers)
		}
		if !rep.FellBack {
			t.Fatalf("workers=%d: purge exhaustion did not fall back to rollback", workers)
		}
		// Each mode gets its own MaxAttempts budget; neither may exceed it.
		for mode, n := range rep.AttemptsByMode {
			if n > cfg.MaxAttempts {
				t.Fatalf("workers=%d: mode %s charged %d > MaxAttempts %d",
					workers, mode, n, cfg.MaxAttempts)
			}
		}
		total := 0
		for _, n := range rep.AttemptsByMode {
			total += n
		}
		if total != rep.Attempts {
			t.Fatalf("workers=%d: AttemptsByMode sums to %d, Attempts=%d",
				workers, total, rep.Attempts)
		}
		reports = append(reports, normalize(rep))
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("exhaustion reports differ across workers:\n  w1: %+v\n  w8: %+v",
			reports[0], reports[1])
	}
}

func TestForkSessionErrorFailsCleanly(t *testing.T) {
	// Every trial runs on a fork: a factory that refuses them all must not
	// crash or charge anything, and the heal fails with the live state as
	// it found it.
	r, trap := failingRig(t)
	image, state := r.pool.DurableImage(), cursors(r)
	cfg := DefaultConfig()
	cfg.Workers = 8
	ctx := r.context(trap, calls("get", 0))
	ctx.AddrFault = true
	ctx.ForkSession = func() (*Session, error) { return nil, errForkRefused }
	rep := Mitigate(cfg, ctx)
	if rep.Recovered || rep.Attempts != 0 {
		t.Fatalf("mitigation without forks: %v", rep)
	}
	if !slices.Equal(r.pool.DurableImage(), image) || !reflect.DeepEqual(cursors(r), state) {
		t.Fatal("a heal that ran no trial changed the live pool or log")
	}
}

// cursors is every checkpoint entry's reversion cursor: its live version's
// sequence number, 0 when the entry is dead.
func cursors(r *rig) []uint64 {
	var out []uint64
	for _, e := range r.log.Entries() {
		var seq uint64
		if v := e.LiveVersion(); v != nil {
			seq = v.Seq
		}
		out = append(out, seq)
	}
	return out
}

func TestExhaustedHealLeavesLiveStateUntouched(t *testing.T) {
	// Trials run on forks and only a healed one is promoted: a heal that
	// exhausts every budget — purge, the rollback fallback, bisect and the
	// cumulative rounds — leaves the durable image and every log cursor as
	// it found them, at any worker count.
	for _, workers := range []int{1, 4} {
		r, trap := failingRig(t)
		image, state := r.pool.DurableImage(), cursors(r)
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Bisect = true
		ctx := r.context(trap, func(*vm.Machine) *vm.Trap { return trap })
		ctx.AddrFault = true
		if rep := Mitigate(cfg, ctx); rep.Recovered || !rep.FellBack || rep.Attempts == 0 {
			t.Fatalf("workers=%d: %v, want an exhausted heal that fell back", workers, rep)
		}
		if !slices.Equal(r.pool.DurableImage(), image) {
			t.Errorf("workers=%d: an exhausted heal changed the live durable image", workers)
		}
		if got := cursors(r); !reflect.DeepEqual(got, state) {
			t.Errorf("workers=%d: an exhausted heal moved log cursors:\n got %v\nwant %v", workers, got, state)
		}
	}
}

var errForkRefused = &forkRefusedError{}

type forkRefusedError struct{}

func (*forkRefusedError) Error() string { return "fork refused" }
