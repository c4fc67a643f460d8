package faults

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"arthas"
	"arthas/internal/analysis"
	"arthas/internal/checkpoint"
	"arthas/internal/fleet"
	"arthas/internal/ir"
	"arthas/internal/reactor"
	"arthas/internal/trace"
	"arthas/internal/vm"
)

// seqsCoveringOracle is the per-address scan checkpoint.Log.SeqsCovering's
// one batched pass replaced: every version of every entry covering addr,
// ascending.
func seqsCoveringOracle(log *checkpoint.Log, addr uint64) []uint64 {
	var out []uint64
	for _, e := range log.Entries() {
		if addr < e.Addr || addr >= e.Addr+uint64(e.Words) {
			continue
		}
		for _, v := range e.Versions {
			out = append(out, v.Seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// planOracle is the candidate list as reactor.ComputePlan derived it, under
// the reactor's default policy, before it fetched each node's addresses once
// and asked the log once: fan-out from one recency query per node, the walk
// from a second, and one covering scan per address.
func planOracle(res *analysis.Result, tr *trace.Trace, log *checkpoint.Log,
	faults []*ir.Instr, addrFault bool) []reactor.Candidate {

	type nodeInfo struct{ guid, dist, fanout int }
	var merged []nodeInfo
	seenNode := map[*ir.Instr]int{}
	for _, fault := range faults {
		if fault == nil {
			continue
		}
		slice := res.PDG.BackwardSliceOpts(fault, analysis.SliceOpts{AddrFault: addrFault})
		for _, n := range slice.PMSlice().Nodes {
			if i, ok := seenNode[n.Instr]; ok {
				if n.Dist < merged[i].dist {
					merged[i].dist = n.Dist
				}
				continue
			}
			seenNode[n.Instr] = len(merged)
			merged = append(merged, nodeInfo{n.Instr.GUID, n.Dist, len(tr.AddrsByRecency([]int{n.Instr.GUID})[0])})
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		if merged[i].fanout != merged[j].fanout {
			return merged[i].fanout < merged[j].fanout
		}
		return merged[i].dist < merged[j].dist
	})
	var out []reactor.Candidate
	seen := map[uint64]bool{}
	for _, node := range merged {
		for _, addr := range tr.AddrsByRecency([]int{node.guid})[0] {
			covering := seqsCoveringOracle(log, addr)
			for i := len(covering) - 1; i >= 0; i-- {
				if s := covering[i]; !seen[s] {
					seen[s] = true
					out = append(out, reactor.Candidate{Seq: s, GUID: node.guid, Dist: node.dist, Addr: addr})
				}
			}
		}
	}
	return out
}

// checkPlan asserts that ComputePlan's candidate list under the reactor's
// default plan policy equals the oracle's, in order, and returns its length.
func checkPlan(t *testing.T, inst *arthas.Instance, faults []*ir.Instr, addrFault bool) int {
	t.Helper()
	cfg := reactor.PlanConfig{AddrFault: addrFault} // the reactor's default policy
	got := reactor.ComputePlan(inst.Analysis, inst.Trace, inst.Log, faults, cfg).Candidates
	want := planOracle(inst.Analysis, inst.Trace, inst.Log, faults, addrFault)
	if !reflect.DeepEqual(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("ComputePlan gave %d candidates, the per-address oracle %d; first difference at %d",
			len(got), len(want), i)
	}
	return len(got)
}

// The batched plan is the per-address plan: on every fault case's observed
// trap, the candidate list is identical, in order. Leak cases the monitor
// catches without a trap have no plan to compare.
func TestPlanMatchesPerAddressOracle(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			t.Parallel()
			cfg := RunConfig{}.withDefaults(b.Meta)
			c, err := b.New(arthas.Config{MaxVersions: cfg.MaxVersions, Reactor: cfg.Reactor})
			if err != nil {
				t.Fatal(err)
			}
			trap, _ := runToFailure(c, cfg, nil, nil)
			if trap == nil {
				if !b.IsLeak {
					t.Fatal("no failure observed")
				}
				return
			}
			if checkPlan(t, c.D, c.FaultInstrs(trap), c.AddrFault) == 0 && !b.IsLeak {
				t.Fatal("empty plan")
			}
		})
	}
}

// The same on a fleet shard's program after a long mixed history, where
// every key's item has several versions and freed items were reused, with
// the hard fault the fleet's drill injects.
func TestPlanMatchesPerAddressOracleOnAgedShard(t *testing.T) {
	inst, err := arthas.New("shard", fleet.KVSource, arthas.Config{RecoverFn: "recover_"})
	if err != nil {
		t.Fatal(err)
	}
	if _, trap := inst.Call("init_"); trap != nil {
		t.Fatal(trap)
	}
	rng := rand.New(rand.NewSource(1))
	const keys = 64
	for i := 0; i < 3000; i++ {
		k := int64(rng.Intn(keys))
		var trap *vm.Trap
		switch r := rng.Intn(10); {
		case r < 5:
			_, trap = inst.Call("put", k, int64(i))
		case r < 7:
			_, trap = inst.Call("del", k)
		default:
			_, trap = inst.Call("get", k)
		}
		if trap != nil {
			t.Fatalf("op %d: %v", i, trap)
		}
	}
	const key = 7
	if _, trap := inst.Call("put", key, 4242); trap != nil {
		t.Fatal(trap)
	}
	addr, trap := inst.Call("locate", key)
	if trap != nil || addr == 0 {
		t.Fatalf("locate(%d) = %d, %v", key, addr, trap)
	}
	if err := inst.InjectBitFlip(uint64(addr)+1, 3); err != nil {
		t.Fatal(err)
	}
	_, trap = inst.Call("get", key)
	if trap == nil {
		t.Fatal("get of the corrupted key did not trap")
	}
	if n := checkPlan(t, inst, []*ir.Instr{trap.Instr}, trap.Kind == vm.TrapSegfault); n == 0 {
		t.Fatal("empty plan for the injected fault")
	}
}
