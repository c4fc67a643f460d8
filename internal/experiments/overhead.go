package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"arthas"
	"arthas/internal/baseline"
	"arthas/internal/systems"
	"arthas/internal/workload"
)

// Runtime overhead experiments (paper §6.7, Figure 12 and Table 8): the
// five target systems run identical deterministic workloads under four
// build/attachment variants — vanilla, full Arthas (checkpoint +
// instrumentation trace), checkpoint-only, and instrumentation-only — plus
// vanilla with pmCRIU's periodic snapshots. Throughput is real measured
// operations per second of the interpreted systems; what transfers from
// the paper is the *relative* cost of each attachment.

// OverheadConfig sizes the measurement.
type OverheadConfig struct {
	// YCSBOps for Memcached/Redis (50/50 read-write zipfian; paper: 3M).
	YCSBOps int
	// InsertOps for PMEMKV/Pelikan (paper: 6M) and CCEH (paper: 1M).
	InsertOps int
	// SnapshotEvery for the pmCRIU variant (ops per snapshot).
	SnapshotEvery int
	Seed          uint64
}

func (c OverheadConfig) withDefaults() OverheadConfig {
	if c.YCSBOps == 0 {
		c.YCSBOps = 30_000
	}
	if c.InsertOps == 0 {
		c.InsertOps = 30_000
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = c.YCSBOps / 5
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// Variant names the measured attachment combinations.
type Variant string

// Variants.
const (
	Vanilla        Variant = "vanilla"
	WithArthas     Variant = "arthas"
	WithCheckpoint Variant = "checkpoint" // checkpoint log only (Table 8)
	WithInstr      Variant = "instr"      // address tracing only (Table 8)
	WithPmCRIU     Variant = "pmcriu"
)

// Throughput is one measured cell.
type Throughput struct {
	System  string
	Variant Variant
	Ops     int
	Elapsed time.Duration
}

// OpsPerSec returns the throughput.
func (t Throughput) OpsPerSec() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Ops) / t.Elapsed.Seconds()
}

// OverheadResults collects the full grid.
type OverheadResults struct {
	Cells []Throughput
}

// Get returns the cell for (system, variant).
func (r *OverheadResults) Get(system string, v Variant) (Throughput, bool) {
	for _, c := range r.Cells {
		if c.System == system && c.Variant == v {
			return c, true
		}
	}
	return Throughput{}, false
}

// Relative returns variant throughput relative to vanilla (1.0 = equal).
func (r *OverheadResults) Relative(system string, v Variant) float64 {
	base, ok1 := r.Get(system, Vanilla)
	cell, ok2 := r.Get(system, v)
	if !ok1 || !ok2 || base.OpsPerSec() == 0 {
		return 0
	}
	return cell.OpsPerSec() / base.OpsPerSec()
}

// detached is what each variant leaves out of the toolchain.
var detached = map[Variant]arthas.Layers{
	Vanilla:        arthas.AllLayers,
	WithPmCRIU:     arthas.AllLayers,
	WithArthas:     0,
	WithCheckpoint: arthas.LayerAnalysis | arthas.LayerTrace,
	WithInstr:      arthas.LayerCheckpoint,
}

// deploySystem deploys a paper system for throughput measurement. Pool
// sizing is generous so allocator churn does not dominate, and the step
// limit never fires.
func deploySystem(sysName string, cfg arthas.Config) (*arthas.Instance, error) {
	sys, err := systems.ByName(sysName)
	if err != nil {
		return nil, err
	}
	sys.PoolWords = 1 << 21
	cfg.StepLimit = 1 << 40
	return systems.Deploy(sys, cfg)
}

// deployFor builds a system deployment for a variant.
func deployFor(sysName string, v Variant) (*arthas.Instance, *baseline.PmCRIU, error) {
	d, err := deploySystem(sysName, arthas.Config{Detach: detached[v]})
	if err != nil {
		return nil, nil, err
	}
	var criu *baseline.PmCRIU
	if v == WithPmCRIU {
		criu = baseline.NewPmCRIU(d.Pool, 1) // interval set by caller ticks
	}
	return d, criu, nil
}

// runnerFor adapts a system's request functions to the workload runner.
func runnerFor(sysName string, d *arthas.Instance) *workload.Runner {
	call := func(fn string, args ...int64) error {
		if _, trap := d.Call(fn, args...); trap != nil {
			return trap
		}
		return nil
	}
	switch sysName {
	case "memcached":
		return &workload.Runner{
			Read:   func(k int64) error { return call("mc_get", k) },
			Update: func(k, v int64) error { return call("mc_set", k, v, 2) },
			Insert: func(k, v int64) error { return call("mc_set", k, v, 2) },
			Delete: func(k int64) error { return call("mc_delete", k) },
		}
	case "redis":
		return &workload.Runner{
			Read:   func(k int64) error { return call("rd_get", k) },
			Update: func(k, v int64) error { return call("rd_set", k, v) },
			Insert: func(k, v int64) error { return call("rd_set", k, v) },
		}
	case "pelikan":
		return &workload.Runner{
			Read:   func(k int64) error { return call("pk_get", k) },
			Update: func(k, v int64) error { return call("pk_set", k, v, 2) },
			Insert: func(k, v int64) error { return call("pk_set", k, v, 2) },
		}
	case "pmemkv":
		return &workload.Runner{
			Read:   func(k int64) error { return call("kv_get", k) },
			Update: func(k, v int64) error { return call("kv_put", k, v) },
			Insert: func(k, v int64) error { return call("kv_put", k, v) },
		}
	case "cceh":
		return &workload.Runner{
			Read:   func(k int64) error { return call("cc_get", k) },
			Update: func(k, v int64) error { return call("cc_insert", k, v) },
			Insert: func(k, v int64) error { return call("cc_insert", k, v) },
		}
	}
	return nil
}

// workloadFor returns each system's benchmark stream (paper §6.7: YCSB for
// Redis and Memcached; custom insert benchmarks for the rest).
func workloadFor(sysName string, cfg OverheadConfig) []workload.Op {
	switch sysName {
	case "memcached", "redis":
		return workload.Generate(workload.WorkloadA(cfg.YCSBOps, 1000, cfg.Seed))
	default:
		return workload.Generate(workload.InsertOnly(cfg.InsertOps, cfg.Seed))
	}
}

// OverheadSystems lists the measured systems in paper order.
var OverheadSystems = []string{"memcached", "redis", "pelikan", "pmemkv", "cceh"}

// MeasureOverhead runs the full grid.
//
// Within a system, the variants execute the workload in interleaved
// round-robin chunks (not one sequential block per variant) and each
// variant accumulates only its own chunks' wall time. What the experiment
// reports is *relative* throughput, and on a busy host a CPU burst or GC
// cycle landing inside one variant's multi-second block would skew exactly
// that ratio; interleaving spreads such windows across all variants, so
// the ratios stay meaningful even when other test binaries share the
// machine. Totals are unchanged: same ops, same per-variant deployment.
func MeasureOverhead(cfg OverheadConfig, variants []Variant) (*OverheadResults, error) {
	cfg = cfg.withDefaults()
	res := &OverheadResults{}
	for _, sysName := range OverheadSystems {
		ops := workloadFor(sysName, cfg)
		type cell struct {
			runner  *workload.Runner
			criu    *baseline.PmCRIU
			elapsed time.Duration
		}
		cells := make([]cell, len(variants))
		for i, v := range variants {
			d, criu, err := deployFor(sysName, v)
			if err != nil {
				return nil, err
			}
			if criu != nil {
				criu.Interval = uint64(cfg.SnapshotEvery)
			}
			cells[i] = cell{runner: runnerFor(sysName, d), criu: criu}
		}
		// Chunk size = the snapshot interval, so the pmCRIU variant takes
		// exactly one snapshot per round, as before.
		for done := 0; done < len(ops); done += cfg.SnapshotEvery {
			end := done + cfg.SnapshotEvery
			if end > len(ops) {
				end = len(ops)
			}
			for i := range cells {
				c := &cells[i]
				start := time.Now()
				if _, err := c.runner.Run(ops[done:end]); err != nil {
					return nil, fmt.Errorf("%s/%s: %w", sysName, variants[i], err)
				}
				if c.criu != nil {
					c.criu.SnapshotNow()
				}
				c.elapsed += time.Since(start)
			}
		}
		for i, v := range variants {
			res.Cells = append(res.Cells, Throughput{
				System: sysName, Variant: v, Ops: len(ops), Elapsed: cells[i].elapsed,
			})
		}
	}
	return res, nil
}

// MarshalJSON flattens the grid, annotating each cell with its
// vanilla-relative throughput.
func (r *OverheadResults) MarshalJSON() ([]byte, error) {
	type jsonThroughput struct {
		System            string  `json:"system"`
		Variant           string  `json:"variant"`
		Ops               int     `json:"ops"`
		ElapsedMS         float64 `json:"elapsed_ms"`
		OpsPerSec         float64 `json:"ops_per_sec"`
		RelativeToVanilla float64 `json:"relative_to_vanilla"`
	}
	out := make([]jsonThroughput, 0, len(r.Cells))
	for _, c := range r.Cells {
		out = append(out, jsonThroughput{
			System:            c.System,
			Variant:           string(c.Variant),
			Ops:               c.Ops,
			ElapsedMS:         ms(c.Elapsed),
			OpsPerSec:         c.OpsPerSec(),
			RelativeToVanilla: r.Relative(c.System, c.Variant),
		})
	}
	return json.Marshal(out)
}

// Fig12 renders relative throughput (paper Figure 12).
func (r *OverheadResults) Fig12() string {
	var sb strings.Builder
	sb.WriteString("Figure 12. System throughput (op/s) relative to Vanilla\n")
	fmt.Fprintf(&sb, "  %-10s %10s %12s %12s\n", "System", "Vanilla", "w/ Arthas", "w/ pmCRIU")
	for _, sysName := range OverheadSystems {
		base, _ := r.Get(sysName, Vanilla)
		fmt.Fprintf(&sb, "  %-10s %9.0f/s %11.3fx %11.3fx\n",
			sysName, base.OpsPerSec(),
			r.Relative(sysName, WithArthas), r.Relative(sysName, WithPmCRIU))
	}
	return sb.String()
}

// Table8 renders the overhead split (paper Table 8).
func (r *OverheadResults) Table8() string {
	var sb strings.Builder
	sb.WriteString("Table 8. Average throughput (op/s): checkpointing vs instrumentation\n")
	fmt.Fprintf(&sb, "  %-14s", "Variant")
	for _, sysName := range OverheadSystems {
		fmt.Fprintf(&sb, " %10s", sysName)
	}
	sb.WriteString("\n")
	for _, v := range []Variant{Vanilla, WithCheckpoint, WithInstr} {
		label := map[Variant]string{
			Vanilla: "Vanilla", WithCheckpoint: "w/ Checkpoint", WithInstr: "w/ Instru.",
		}[v]
		fmt.Fprintf(&sb, "  %-14s", label)
		for _, sysName := range OverheadSystems {
			cell, ok := r.Get(sysName, v)
			if !ok {
				fmt.Fprintf(&sb, " %10s", "n/a")
				continue
			}
			fmt.Fprintf(&sb, " %9.0fK", cell.OpsPerSec()/1000)
		}
		sb.WriteString("\n")
	}
	return sb.String()
}
