// Package reactor implements the Arthas reactor (paper §4.4–§4.7): given a
// fault instruction, it derives a reversion plan by slicing the static PDG,
// joining slice nodes with the dynamic PM address trace, and mapping the
// addresses to checkpoint-log sequence numbers; it then executes the plan by
// reverting entries and re-executing the target system until the failure
// disappears.
package reactor

import (
	"sort"

	"arthas/internal/analysis"
	"arthas/internal/checkpoint"
	"arthas/internal/ir"
	"arthas/internal/trace"
)

// Candidate is one revertible checkpoint sequence number, annotated with the
// slice node that produced it.
type Candidate struct {
	Seq  uint64
	GUID int
	Dist int // slice distance of the producing node
	Addr uint64
}

// Plan is the ordered candidate list of §4.5. Order: nearest slice nodes
// first (dependency order), newest sequence numbers first within a node —
// so reversion walks backward along the dependency chain, most recent
// contamination first. Multiple fault instructions (Figure 4's "fault
// instruction(s)") contribute merged candidates.
type Plan struct {
	Faults     []*ir.Instr
	Slices     []*analysis.Slice
	Candidates []Candidate
}

// Empty reports whether the plan has nothing to revert — the "false alarm"
// signal that makes the reactor fall back to a plain restart (§4.5).
func (p *Plan) Empty() bool { return len(p.Candidates) == 0 }

// Seqs returns the candidate sequence numbers in plan order.
func (p *Plan) Seqs() []uint64 {
	out := make([]uint64, len(p.Candidates))
	for i, c := range p.Candidates {
		out[i] = c.Seq
	}
	return out
}

// PlanConfig tunes plan derivation.
type PlanConfig struct {
	// MaxDist caps the slice distance considered (0 = unlimited): the
	// "enforce a maximum distance with the fault instruction" policy.
	MaxDist int
	// MaxCandidates caps the final list size (0 = unlimited).
	MaxCandidates int
	// AddrFault marks the fault as an invalid-address trap, which makes
	// the slicer follow the fault's pointer dependencies rather than the
	// contents of the (unreachable) memory location.
	AddrFault bool
	// NaiveOrder disables the fan-out/recency candidate ordering and sorts
	// candidates purely by descending sequence number — the paper's
	// "default policy function sorts and de-duplicates" baseline. Used by
	// the ordering ablation benchmarks.
	NaiveOrder bool
}

// ComputePlan derives the reversion plan for one or more fault instructions.
func ComputePlan(res *analysis.Result, tr *trace.Trace, log *checkpoint.Log,
	faults []*ir.Instr, cfg PlanConfig) *Plan {

	plan := &Plan{Faults: faults}

	// Merge slice nodes across faults, keeping each instruction's minimum
	// distance to any fault. All nodes' traced addresses are then fetched
	// in one query, in last-touch order: a list's length is its node's
	// fan-out, and the list itself is the node's candidate walk below.
	type nodeInfo struct {
		guid  int
		dist  int
		addrs []uint64 // distinct dynamic addresses, most recent first
	}
	var merged []nodeInfo
	seenNode := map[*ir.Instr]int{} // instr -> index in merged
	for _, fault := range faults {
		if fault == nil {
			continue
		}
		slice := res.PDG.BackwardSliceOpts(fault, analysis.SliceOpts{AddrFault: cfg.AddrFault})
		if cfg.MaxDist > 0 {
			slice = slice.MaxDist(cfg.MaxDist)
		}
		pmSlice := slice.PMSlice()
		plan.Slices = append(plan.Slices, pmSlice)
		for _, n := range pmSlice.Nodes {
			if i, ok := seenNode[n.Instr]; ok {
				if n.Dist < merged[i].dist {
					merged[i].dist = n.Dist
				}
				continue
			}
			seenNode[n.Instr] = len(merged)
			merged = append(merged, nodeInfo{guid: n.Instr.GUID, dist: n.Dist})
		}
	}
	guids := make([]int, len(merged))
	for i, node := range merged {
		guids[i] = node.guid
	}
	var touched []uint64 // every node's addresses, for one covering query
	for i, addrs := range tr.AddrsByRecency(guids) {
		merged[i].addrs = addrs
		touched = append(touched, addrs...)
	}
	// Order: most-specific nodes first. A slice node "may be invoked many
	// times while only some invocations are bad" (paper §6.4) — an
	// instruction that touched one address (a one-shot config write, a
	// special command) is a far more specific suspect than a hot-path
	// access aliasing hundreds of checkpoint entries, so low trace fan-out
	// (over ALL traced accesses, reads included) leads; slice distance
	// breaks ties (nearest dependencies first).
	sort.SliceStable(merged, func(i, j int) bool {
		if len(merged[i].addrs) != len(merged[j].addrs) {
			return len(merged[i].addrs) < len(merged[j].addrs)
		}
		return merged[i].dist < merged[j].dist
	})

	covering := log.SeqsCovering(touched)
	seen := map[uint64]bool{}
	for _, node := range merged {
		// Walk this node's addresses in last-touch order (the failing
		// execution touched the contaminated state last), then each
		// address's checkpoint sequence numbers, newest first.
		for _, addr := range node.addrs {
			seqs := covering[addr]
			for i := len(seqs) - 1; i >= 0; i-- {
				s := seqs[i]
				if !seen[s] {
					seen[s] = true
					plan.Candidates = append(plan.Candidates,
						Candidate{Seq: s, GUID: node.guid, Dist: node.dist, Addr: addr})
				}
			}
		}
	}
	if cfg.NaiveOrder {
		sort.SliceStable(plan.Candidates, func(i, j int) bool {
			return plan.Candidates[i].Seq > plan.Candidates[j].Seq
		})
	}
	if cfg.MaxCandidates > 0 && len(plan.Candidates) > cfg.MaxCandidates {
		plan.Candidates = plan.Candidates[:cfg.MaxCandidates]
	}
	return plan
}
