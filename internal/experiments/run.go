package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"arthas/internal/faults"
	"arthas/internal/study"
)

// The assembler: every measurement is declared once below as a unit — one
// run, the text views that render its result, its section of the
// arthas-bench/v1 document (a Report field), and the arthas-bench flags it
// reads. Run executes a selection once; text and JSON both render from the
// one Report it returns.

// JSONSchema versions the Report's JSON layout.
const JSONSchema = "arthas-bench/v1"

// Config sizes a Run: one field per arthas-bench flag; zero selects each
// unit's default. Which unit reads which field is declared in units.
type Config struct {
	Ops     int // -ops: fault-case workload ops; per-client ops (fleet, repl); per-system ops (optimize)
	YCSB    int // -ycsb: YCSB ops per overhead run
	Inserts int // -inserts: insert ops per overhead run
	Seeds   int // -seeds: seeds for the probabilistic pmCRIU cases
	Workers int // -workers: reversion trials run at a time; > 1 adds parallel to all
	Clients int // -clients: closed-loop clients (fleet, repl)
}

func (c Config) faultRun() faults.RunConfig {
	run := faults.RunConfig{WorkloadOps: c.Ops}
	run.Reactor.Workers = c.Workers
	return run
}

// Report holds the result of every unit one Run executed. Its fields are
// the document's sections in order; a unit that did not run leaves its
// field empty, so the document holds exactly the sections that ran.
type Report struct {
	Schema     string              `json:"schema"`
	Study      *Study              `json:"study,omitempty"`
	Matrix     *Matrix             `json:"matrix,omitempty"`
	Batch      *BatchResults       `json:"batch,omitempty"`
	Detection  []Detection         `json:"detection,omitempty"`
	Overhead   *OverheadResults    `json:"overhead,omitempty"`
	Static     []StaticTiming      `json:"static,omitempty"`
	Scrub      *ScrubResults       `json:"scrub,omitempty"`
	Provenance *ProvenanceResults  `json:"provenance,omitempty"`
	Fleet      *FleetResults       `json:"fleet,omitempty"`
	Repl       *ReplResults        `json:"repl,omitempty"`
	Optimize   *OptimizeResults    `json:"optimize,omitempty"`
	Workers    int                 `json:"workers,omitempty"`
	Parallel   *ParallelComparison `json:"parallel,omitempty"`

	units []*unit // what ran, in order
	view  string  // the one view selected; "" renders every view under banners
}

// Study is the §2 dataset's distributions (Table 1, Figures 2-3, §2.6).
type Study struct {
	BySystem      []study.Count `json:"by_system"`
	ByRootCause   []study.Count `json:"by_root_cause"`
	ByConsequence []study.Count `json:"by_consequence"`
	ByType        []study.Count `json:"by_type"`
}

// unit is one measurement. run (nil for a static rendering) fills the
// unit's Report field; views render it.
type unit struct {
	name  string
	title string // section banner in the all text
	flags string // arthas-bench flags run reads, space-separated
	solo  bool   // selectable by name only, not part of "all"
	run   func(*Report, Config) error
	views []view
}

type view struct {
	name   string
	render func(*Report) string
}

// units lists every measurement in "all" order (parallel joins all only
// when Workers > 1).
var units = []*unit{
	{name: "study", title: "Empirical study (paper §2)",
		run: func(r *Report, _ Config) error {
			r.Study = &Study{study.BySystem(), study.ByRootCause(), study.ByConsequence(), study.ByType()}
			return nil
		},
		views: []view{
			{"table1", func(*Report) string { return Table1() }},
			{"fig2", func(*Report) string { return Fig2() }},
			{"fig3", func(*Report) string { return Fig3() }},
			{"types", func(*Report) string { return PropagationTypes() }},
		}},
	{name: "dataset", title: "Fault dataset (paper §6.1)",
		views: []view{{"table2", func(*Report) string { return Table2() }}}},
	{name: "matrix", title: "Recoverability matrix (paper §6.2-§6.4)", flags: "ops seeds workers",
		run: func(r *Report, c Config) (err error) {
			r.Matrix, err = RunMatrix(MatrixConfig{Run: c.faultRun(), Seeds: c.Seeds})
			return err
		},
		views: []view{
			{"table3", func(r *Report) string { return r.Matrix.Table3() }},
			{"table4", func(r *Report) string { return r.Matrix.Table4() }},
			{"table5", func(r *Report) string { return r.Matrix.Table5() }},
			{"fig8", func(r *Report) string { return r.Matrix.Fig8() }},
			{"fig9", func(r *Report) string { return r.Matrix.Fig9() }},
			{"fig11", func(r *Report) string { return r.Matrix.Fig11() }},
		}},
	{name: "batch", title: "Reversion strategies (paper §6.5)", flags: "workers",
		run: func(r *Report, c Config) (err error) {
			r.Batch, err = RunBatchComparison(faults.RunConfig{Reactor: c.faultRun().Reactor})
			return err
		},
		views: []view{
			{"fig10", func(r *Report) string { return r.Batch.Fig10() }},
			{"table6", func(r *Report) string { return r.Batch.Table6() }},
		}},
	{name: "detection", title: "Checksum and invariant approaches (paper §6.6)", flags: "ops",
		run: func(r *Report, c Config) (err error) {
			r.Detection, err = RunDetection(c.faultRun())
			return err
		},
		views: []view{{"table7", func(r *Report) string { return Table7(r.Detection) }}}},
	{name: "overhead", title: "Overhead (paper §6.7)", flags: "ycsb inserts",
		run: func(r *Report, c Config) (err error) {
			r.Overhead, err = MeasureOverhead(OverheadConfig{YCSBOps: c.YCSB, InsertOps: c.Inserts},
				[]Variant{Vanilla, WithArthas, WithCheckpoint, WithInstr, WithPmCRIU})
			return err
		},
		views: []view{
			{"fig12", func(r *Report) string { return r.Overhead.Fig12() }},
			{"table8", func(r *Report) string { return r.Overhead.Table8() }},
		}},
	{name: "static", title: "Static analysis performance (paper §6.8)",
		run: func(r *Report, _ Config) (err error) {
			r.Static, err = MeasureStatic()
			return err
		},
		views: []view{{"table9", func(r *Report) string { return Table9(r.Static) }}}},
	{name: "scrub", title: "Media resilience cost (docs/MEDIA_FAULTS.md)",
		run: func(r *Report, _ Config) (err error) {
			r.Scrub, err = RunScrub(ScrubConfig{})
			return err
		},
		views: []view{{"scrub", func(r *Report) string { return r.Scrub.Text() }}}},
	{name: "provenance", title: "Write-lineage cost (docs/OBSERVABILITY.md)",
		run: func(r *Report, _ Config) (err error) {
			r.Provenance, err = RunProvenance(ProvenanceConfig{})
			return err
		},
		views: []view{{"provenance", func(r *Report) string { return r.Provenance.Text() }}}},
	{name: "parallel", title: "Speculative mitigation (docs/PARALLEL_MITIGATION.md)", flags: "ops workers",
		run: func(r *Report, c Config) (err error) {
			r.Workers = c.Workers
			if r.Workers < 2 {
				r.Workers = 4
			}
			r.Parallel, err = RunParallelComparison(c.faultRun(), r.Workers)
			return err
		},
		views: []view{{"parallel", func(r *Report) string { return r.Parallel.Text() }}}},
	{name: "fleet", flags: "ops clients workers", solo: true,
		run: func(r *Report, c Config) (err error) {
			r.Fleet, err = RunFleet(FleetConfig{Clients: c.Clients, OpsPerClient: c.Ops, Workers: c.Workers})
			return err
		},
		views: []view{{"fleet", func(r *Report) string { return r.Fleet.Text() }}}},
	{name: "repl", flags: "ops clients", solo: true,
		run: func(r *Report, c Config) (err error) {
			r.Repl, err = RunRepl(ReplConfig{Clients: c.Clients, OpsPerClient: c.Ops})
			return err
		},
		views: []view{{"repl", func(r *Report) string { return r.Repl.Text() }}}},
	{name: "optimize", flags: "ops", solo: true,
		run: func(r *Report, c Config) (err error) {
			r.Optimize, err = RunOptimize(OptimizeConfig{Ops: c.Ops})
			return err
		},
		views: []view{{"optimize", func(r *Report) string { return r.Optimize.Text() }}}},
}

// selectUnits resolves an -exp name: "all" selects every non-solo unit with
// all its views; any other name selects the one unit holding that view.
func selectUnits(exp string, workers int) ([]*unit, string, error) {
	if exp == "all" {
		var sel []*unit
		for _, u := range units {
			if !u.solo && (u.name != "parallel" || workers > 1) {
				sel = append(sel, u)
			}
		}
		return sel, "", nil
	}
	for _, u := range units {
		for _, v := range u.views {
			if v.name == exp {
				return []*unit{u}, exp, nil
			}
		}
	}
	return nil, "", fmt.Errorf("unknown experiment %q", exp)
}

// Flags returns the arthas-bench flags the units exp selects read. "all"
// reads -workers (it decides whether parallel runs).
func Flags(exp string) (map[string]bool, error) {
	sel, _, err := selectUnits(exp, 2)
	if err != nil {
		return nil, err
	}
	reads := map[string]bool{}
	for _, u := range sel {
		for _, f := range strings.Fields(u.flags) {
			reads[f] = true
		}
	}
	return reads, nil
}

// Run executes each unit exp selects once and returns their results.
func Run(exp string, cfg Config) (*Report, error) {
	sel, v, err := selectUnits(exp, cfg.Workers)
	if err != nil {
		return nil, err
	}
	r := &Report{Schema: JSONSchema, units: sel, view: v}
	for _, u := range sel {
		if u.run == nil {
			continue
		}
		if err := u.run(r, cfg); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Text renders the selected view, or, for "all", every view of every unit
// under its section banner, in paper order.
func (r *Report) Text() string {
	var sb strings.Builder
	for _, u := range r.units {
		if r.view == "" {
			fmt.Fprintf(&sb, "==== %s ====\n\n", u.title)
		}
		for _, v := range u.views {
			if r.view == "" {
				sb.WriteString(v.render(r) + "\n")
			} else if v.name == r.view {
				sb.WriteString(v.render(r))
			}
		}
	}
	return sb.String()
}

// Write renders the report as the indented arthas-bench/v1 JSON document.
func (r *Report) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Study renderers (paper §2): Table 1, Figures 2 and 3, and the §2.6
// propagation-type distribution, all from the internal/study dataset.

// Table1 renders the collected-bugs table.
func Table1() string {
	var sb strings.Builder
	sb.WriteString("Table 1. Collected hard fault bugs in new and ported PM systems\n")
	counts := study.BySystem()
	fmt.Fprintf(&sb, "  %-8s", "")
	for _, c := range counts {
		fmt.Fprintf(&sb, " %-10s", c.Label)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "  %-8s", "Cases")
	for _, c := range counts {
		fmt.Fprintf(&sb, " %-10d", c.N)
	}
	sb.WriteString("\n")
	fmt.Fprintf(&sb, "  %-8s", "Type")
	for _, c := range counts {
		fmt.Fprintf(&sb, " %-10s", study.OriginOf(c.Label))
	}
	sb.WriteString("\n")
	return sb.String()
}

// Fig2 renders the root-cause distribution.
func Fig2() string {
	return study.FormatCounts("Figure 2. Root cause of studied persistent failures", study.ByRootCause())
}

// Fig3 renders the consequence distribution.
func Fig3() string {
	return study.FormatCounts("Figure 3. Consequence of studied persistent failures", study.ByConsequence())
}

// PropagationTypes renders the §2.6 distribution.
func PropagationTypes() string {
	return study.FormatCounts("Fault propagation patterns (paper §2.6)", study.ByType())
}
