package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"arthas"
	"arthas/internal/ir"
	"arthas/internal/opt"
	"arthas/internal/systems"
	"arthas/internal/workload"
)

// Flush/fence-elimination evaluation (arthas-bench -exp optimize): each
// program runs the same workload twice — unoptimized and under the
// internal/opt pass — with the provenance index attached, so the rows
// report the pass's static rewrites next to what they buy dynamically:
// persist-op counts, persisted words, the redundant-persist ratio
// (provenance's headroom metric, which the pass must strictly lower
// wherever it is nonzero), and throughput.

// OptimizeConfig sizes the measurement.
type OptimizeConfig struct {
	// Rounds is the per-fixture workload length (default 64).
	Rounds int
	// Ops is the per-system workload length (default 2000).
	Ops int
	// Seed drives the system workload streams (default 1).
	Seed uint64
	// FixtureDir locates the repo's .pml fixtures (default "testdata" —
	// arthas-bench runs from the repo root; tests pass "../../testdata").
	FixtureDir string
}

func (c OptimizeConfig) withDefaults() OptimizeConfig {
	if c.Rounds == 0 {
		c.Rounds = 64
	}
	if c.Ops == 0 {
		c.Ops = 2000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.FixtureDir == "" {
		c.FixtureDir = "testdata"
	}
	return c
}

// OptimizeRow is one program's before/after measurement.
type OptimizeRow struct {
	Program string `json:"program"`
	// Static is what the pass removed from the module.
	Static opt.Stats `json:"static"`
	// Dynamic persist traffic, one uninstrumented-workload run per build.
	PersistOpsBefore     uint64  `json:"persist_ops_before"`
	PersistOpsAfter      uint64  `json:"persist_ops_after"`
	PersistedWordsBefore uint64  `json:"persisted_words_before"`
	PersistedWordsAfter  uint64  `json:"persisted_words_after"`
	RedundantBefore      uint64  `json:"redundant_before"`
	RedundantAfter       uint64  `json:"redundant_after"`
	RatioBefore          float64 `json:"ratio_before"`
	RatioAfter           float64 `json:"ratio_after"`
	OpsPerSecBefore      float64 `json:"ops_per_sec_before"`
	OpsPerSecAfter       float64 `json:"ops_per_sec_after"`
}

// OptimizeResults is the full -exp optimize output.
type OptimizeResults struct {
	Rows []OptimizeRow `json:"programs"`
}

// optFixtures drives each PML fixture's workload against an arthas.Instance.
// Scripts are closed-form so both builds execute the identical call stream.
var optFixtures = []struct {
	name  string
	calls func(rounds int) [][2]interface{} // (fn, args)
}{
	{"counter", func(r int) [][2]interface{} {
		out := [][2]interface{}{{"init_", []int64{}}}
		for i := 0; i < r; i++ {
			out = append(out, [2]interface{}{"bump", []int64{}})
		}
		return out
	}},
	{"checksum", func(r int) [][2]interface{} {
		out := [][2]interface{}{{"init_", []int64{}}}
		for i := 0; i < r; i++ {
			out = append(out, [2]interface{}{"set", []int64{int64(1 + i%7), int64(i)}})
		}
		return out
	}},
	{"linkedset", func(r int) [][2]interface{} {
		out := [][2]interface{}{{"init_", []int64{}}}
		for i := 0; i < r; i++ {
			out = append(out, [2]interface{}{"insert", []int64{int64(i)}})
		}
		return out
	}},
	{"ringlog", func(r int) [][2]interface{} {
		out := [][2]interface{}{{"init_", []int64{16}}}
		for i := 0; i < r; i++ {
			out = append(out, [2]interface{}{"append_", []int64{int64(i)}})
		}
		return out
	}},
	{"native", func(r int) [][2]interface{} {
		out := [][2]interface{}{{"init_", []int64{}}}
		for i := 0; i < r; i++ {
			if i%7 == 6 {
				out = append(out, [2]interface{}{"reset_", []int64{}})
			} else {
				out = append(out, [2]interface{}{"append_", []int64{int64(i)}})
			}
		}
		return out
	}},
}

// staticStats runs the pass on a fresh compile of the program and returns
// what it rewrote.
func staticStats(name, source string) (opt.Stats, error) {
	mod, err := ir.CompileSource(name, source)
	if err != nil {
		return opt.Stats{}, err
	}
	st, err := opt.Optimize(mod)
	if err != nil {
		return opt.Stats{}, err
	}
	return *st, nil
}

// runFixture measures one fixture under one build.
func runFixture(name, source string, calls [][2]interface{}, optimize bool, row *OptimizeRow) error {
	inst, err := arthas.New(name, source, arthas.Config{
		Provenance: true,
		Optimize:   optimize,
	})
	if err != nil {
		return err
	}
	start := time.Now()
	for _, c := range calls {
		if _, trap := inst.Call(c[0].(string), c[1].([]int64)...); trap != nil {
			return fmt.Errorf("%s: %s trapped: %v", name, c[0], trap)
		}
	}
	secs := time.Since(start).Seconds()
	st := inst.Prov.Stats()
	fill(row, optimize, st.PersistOps, st.PersistedWords, st.RedundantPersists,
		st.RedundantRatio, float64(len(calls)), secs)
	return nil
}

// runSystem measures one paper system under one build: deploy (InitFn runs
// inside), then the system's insert/update stream.
func runSystem(sysName string, cfg OptimizeConfig, optimize bool, row *OptimizeRow) error {
	d, err := deploySystem(sysName, arthas.Config{Provenance: true, Optimize: optimize,
		Detach: arthas.LayerCheckpoint | arthas.LayerTrace})
	if err != nil {
		return err
	}
	runner := runnerFor(sysName, d)
	ops := workload.Generate(workload.InsertOnly(cfg.Ops, cfg.Seed))
	start := time.Now()
	if _, err := runner.Run(ops); err != nil {
		return fmt.Errorf("%s: %w", sysName, err)
	}
	secs := time.Since(start).Seconds()
	st := d.Prov.Stats()
	fill(row, optimize, st.PersistOps, st.PersistedWords, st.RedundantPersists,
		st.RedundantRatio, float64(len(ops)), secs)
	return nil
}

func fill(row *OptimizeRow, optimize bool, persistOps, words, redundant uint64, ratio, nops, secs float64) {
	ops := 0.0
	if secs > 0 {
		ops = nops / secs
	}
	if optimize {
		row.PersistOpsAfter = persistOps
		row.PersistedWordsAfter = words
		row.RedundantAfter = redundant
		row.RatioAfter = ratio
		row.OpsPerSecAfter = ops
	} else {
		row.PersistOpsBefore = persistOps
		row.PersistedWordsBefore = words
		row.RedundantBefore = redundant
		row.RatioBefore = ratio
		row.OpsPerSecBefore = ops
	}
}

// RunOptimize measures the pass over every fixture and paper system.
func RunOptimize(cfg OptimizeConfig) (*OptimizeResults, error) {
	cfg = cfg.withDefaults()
	res := &OptimizeResults{}

	for _, fx := range optFixtures {
		data, err := os.ReadFile(filepath.Join(cfg.FixtureDir, fx.name+".pml"))
		if err != nil {
			return nil, fmt.Errorf("optimize: fixture %s: %w", fx.name, err)
		}
		src := string(data)
		row := OptimizeRow{Program: fx.name}
		if row.Static, err = staticStats(fx.name, src); err != nil {
			return nil, err
		}
		calls := fx.calls(cfg.Rounds)
		if err := runFixture(fx.name, src, calls, false, &row); err != nil {
			return nil, err
		}
		if err := runFixture(fx.name, src, calls, true, &row); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}

	for _, sysName := range OverheadSystems {
		sys, err := systems.ByName(sysName)
		if err != nil {
			return nil, err
		}
		row := OptimizeRow{Program: sysName}
		if row.Static, err = staticStats(sysName, sys.Source); err != nil {
			return nil, err
		}
		if err := runSystem(sysName, cfg, false, &row); err != nil {
			return nil, err
		}
		if err := runSystem(sysName, cfg, true, &row); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Text renders the results (arthas-bench -exp optimize).
func (r *OptimizeResults) Text() string {
	var sb strings.Builder
	sb.WriteString("Flush/fence elimination (internal/opt): static rewrites and dynamic persist traffic\n")
	fmt.Fprintf(&sb, "  %-10s %28s | %22s | %18s | %s\n",
		"program", "static (pass stats)", "persist ops", "redundant ratio", "ops/s speedup")
	for _, row := range r.Rows {
		speedup := 1.0
		if row.OpsPerSecBefore > 0 {
			speedup = row.OpsPerSecAfter / row.OpsPerSecBefore
		}
		fmt.Fprintf(&sb, "  %-10s %28s | %9d -> %9d | %7.4f -> %7.4f | %.2fx\n",
			row.Program, row.Static.String(),
			row.PersistOpsBefore, row.PersistOpsAfter,
			row.RatioBefore, row.RatioAfter, speedup)
	}
	sb.WriteString("  (ratio = redundant word-persists / persisted words; the pass must never raise it)\n")
	return sb.String()
}

// JSON flattens for JSONReport.Optimize.
func (r *OptimizeResults) JSON() *JSONOptimize {
	return &JSONOptimize{Programs: r.Rows}
}

// WriteJSON writes a standalone optimize-only bench document (the CI
// optimizer job's artifact).
func (r *OptimizeResults) WriteJSON(w io.Writer) error {
	doc := struct {
		Schema   string        `json:"schema"`
		Optimize *JSONOptimize `json:"optimize"`
	}{Schema: JSONSchema, Optimize: r.JSON()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// JSONOptimize is the machine-readable optimize section (schema
// arthas-bench/v1).
type JSONOptimize struct {
	Programs []OptimizeRow `json:"programs"`
}
