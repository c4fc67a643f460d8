package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// ledgerDoc is one entry of the performance ledger: every metric of every
// workload on one commit, with enough about the run to repeat it.
type ledgerDoc struct {
	Schema     string  `json:"schema"` // arthas-perf/v1
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs"`
	// Metrics defines every metric once: what it is measured in, which way is
	// better, its bound, the layer it belongs to and the end-to-end metric it
	// should move, on which workload.
	Metrics   map[string]ledgerMetricDef `json:"metrics"`
	Workloads map[string]ledgerWorkload  `json:"workloads"`
}

type ledgerMetricDef struct {
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	Layer  string  `json:"layer"`
	Moves  string  `json:"moves,omitempty"`
	Exact  bool    `json:"exact,omitempty"`
}

type ledgerWorkload struct {
	Why       string `json:"why"`
	Idles     string `json:"idles"`
	Clients   int    `json:"clients"`
	Shards    int    `json:"shards"`
	Keys      int    `json:"keys"`
	Ops       int    `json:"ops"`        // measured phase, per run
	TracedOps int    `json:"traced_ops"` // traced rig phase, per run
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// EndToEnd is measured with tracing off; PerLayer by the traced run.
	EndToEnd map[string]ledgerMetric `json:"end_to_end"`
	PerLayer map[string]ledgerMetric `json:"per_layer"`
}

type ledgerMetric struct {
	N      int       `json:"n,omitempty"` // samples behind each value
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

const ledgerSchema = "arthas-perf/v1"

func commitID() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeLedger runs every workload `runs` times untraced and traced — run i
// on seed+i — and writes the document.
func writeLedger(path string, o options, runs int) error {
	doc := ledgerDoc{
		Schema: ledgerSchema, Commit: commitID(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Runs: runs,
		Metrics: map[string]ledgerMetricDef{}, Workloads: map[string]ledgerWorkload{},
	}
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range set {
			doc.Metrics[m.name] = ledgerMetricDef{m.unit, m.better, m.bound, m.layer, m.moves, m.exact}
		}
	}
	incorrect := false
	for i := range workloads {
		spec := &workloads[i]
		lw := ledgerWorkload{
			Why: spec.why, Idles: spec.idles, Clients: spec.clients, Shards: spec.shards, Keys: spec.keys,
			Ops:       int(float64(spec.opsPerSecond) * o.seconds),
			TracedOps: int(float64(spec.tracedOpsPerSecond) * o.seconds),
		}
		for _, traced := range []bool{false, true} {
			var all []*result
			for r := 0; r < runs; r++ {
				ro := o
				ro.seed = o.seed + uint64(r)
				res, err := runOne(spec, ro, traced)
				if err != nil {
					return fmt.Errorf("%s: %w", spec.name, err)
				}
				printHuman(os.Stderr, spec.name, res)
				lw.Attempted += res.attempted
				lw.Failed += res.failed
				incorrect = incorrect || !res.correct()
				all = append(all, res)
			}
			if traced {
				lw.PerLayer = foldRuns(all)
			} else {
				lw.EndToEnd = foldRuns(all)
			}
		}
		doc.Workloads[spec.name] = lw
		printSummary(os.Stderr, spec.name, "end-to-end", lw.EndToEnd)
		printSummary(os.Stderr, spec.name, "per-layer", lw.PerLayer)
	}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	if incorrect {
		return fmt.Errorf("a run produced a wrong answer; see the VIOLATION lines above")
	}
	return nil
}

func foldRuns(runs []*result) map[string]ledgerMetric {
	out := map[string]ledgerMetric{}
	for name := range runs[0].metrics {
		m := ledgerMetric{N: runs[0].samples[name]}
		for _, r := range runs {
			m.Values = append(m.Values, r.metrics[name])
		}
		m.Median = median(m.Values)
		m.Q1, m.Q3 = quartiles(m.Values)
		out[name] = m
	}
	return out
}

// printSummary lists a workload's metrics over its runs: median and
// quartiles, with the sample count behind each run's value.
func printSummary(w io.Writer, workload, what string, metrics map[string]ledgerMetric) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s, %s: median [q1, q3] over %d runs\n", workload, what, len(metrics[names[0]].Values))
	for _, name := range names {
		m := metrics[name]
		line := fmt.Sprintf("%-14s %-32s %14.4f [%.4f, %.4f] %s", workload, name, m.Median, m.Q1, m.Q3, unitOf(name))
		if m.N > 0 {
			line += fmt.Sprintf("  (n=%d)", m.N)
		}
		fmt.Fprintln(w, line)
	}
}

func readLedger(path string) (*ledgerDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc ledgerDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != ledgerSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, ledgerSchema)
	}
	return &doc, nil
}

// verdict compares metric m's values in B against A under its bound.
//
//	worse       B's median is worse than A's by more than the bound
//	better      it is better by more than the bound
//	unresolved  the run-to-run spread (quartile distance over median, on
//	            either side) is wider than the bound, so a difference of
//	            that size could not be seen — unless every run of one side
//	            beats every run of the other, which settles it
//	same        otherwise
func verdict(m *metricSpec, a, b ledgerMetric) string {
	sign := 1.0 // positive delta = worse
	if m.better == "higher" {
		sign = -1
	}
	if m.bound == 0 { // no increase allowed, no tolerance (failed_share)
		switch d := sign * (b.Median - a.Median); {
		case d > 0:
			return "worse"
		case d < 0:
			return "better"
		}
		return "same"
	}
	if a.Median == 0 {
		return "unresolved"
	}
	delta := sign * (b.Median - a.Median) / math.Abs(a.Median)
	aLo, aHi := slices.Min(a.Values), slices.Max(a.Values)
	bLo, bHi := slices.Min(b.Values), slices.Max(b.Values)
	bAllWorse := sign*(bLo-aHi) > 0 && sign*(bHi-aLo) > 0
	bAllBetter := sign*(bLo-aHi) < 0 && sign*(bHi-aLo) < 0
	spread := math.Max((a.Q3-a.Q1)/math.Abs(a.Median), (b.Q3-b.Q1)/math.Abs(b.Median))
	switch {
	case spread > m.bound && !bAllWorse && !bAllBetter:
		return "unresolved"
	case delta > m.bound:
		return "worse"
	case delta < -m.bound:
		return "better"
	}
	return "same"
}

// compareLedgers prints one row per (workload, bounded end-to-end metric)
// and one per exact count that changed, and reports whether anything is
// worse.
func compareLedgers(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A: %s (%s, seed %d)   B: %s (%s, seed %d)\n", pathA, a.Commit, a.Seed, pathB, b.Commit, b.Seed)
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "delta", "bound", "verdict")
	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, wl := range names {
		wa, wb := a.Workloads[wl], b.Workloads[wl]
		for i := range endToEnd {
			m := &endToEnd[i]
			ma, okA := wa.EndToEnd[m.name]
			mb, okB := wb.EndToEnd[m.name]
			if !okA || !okB || (m.bound == 0 && m.name != "failed_share") {
				continue
			}
			v := verdict(m, ma, mb)
			worse = worse || v == "worse"
			delta := 0.0
			if ma.Median != 0 {
				delta = 100 * (mb.Median - ma.Median) / math.Abs(ma.Median)
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %+7.1f%% %6.0f%%  %s\n",
				wl, m.name, ma.Median, mb.Median, delta, 100*m.bound, v)
		}
		if a.Seed != b.Seed || a.Seconds != b.Seconds {
			continue // exact counts are only comparable on equal inputs
		}
		for i := range perLayer {
			m := &perLayer[i]
			ma, mb := wa.PerLayer[m.name], wb.PerLayer[m.name]
			if m.exact && fmt.Sprint(ma.Values) != fmt.Sprint(mb.Values) {
				fmt.Fprintf(w, "%-14s %-32s exact count changed: %v -> %v\n", wl, m.name, ma.Values, mb.Values)
			}
		}
	}
	return worse, nil
}
