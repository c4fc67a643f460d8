package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"arthas/internal/analysis"
	"arthas/internal/ir"
	"arthas/internal/systems"
)

// Static pipeline timings (paper Table 9): analysis, instrumentation, and
// slicing time per target system. The paper measures seconds on hundreds of
// thousands of LLVM IR instructions; our PML systems are smaller, so the
// absolute values are milliseconds — the shape to preserve is that analysis
// dominates, instrumentation is cheap, and slicing (the only component on
// the mitigation critical path, thanks to the reactor server) is fastest.

// StaticTiming is one system's Table 9 row.
type StaticTiming struct {
	System       string
	Functions    int
	Instructions int
	PMInstrs     int
	PDGEdges     int
	Analysis     time.Duration // pointer analysis + PDG
	Instrument   time.Duration // PM closure + GUID assignment
	Slicing      time.Duration // one representative backward slice
}

// MeasureStatic runs the analyzer over all five systems.
func MeasureStatic() ([]StaticTiming, error) {
	var out []StaticTiming
	for _, sys := range systems.All() {
		mod, err := ir.CompileSource(sys.Name, sys.Source)
		if err != nil {
			return nil, err
		}
		res := analysis.Analyze(mod)
		st := res.Stats()
		t := StaticTiming{
			System:       sys.Name,
			Functions:    st.Functions,
			Instructions: st.Instructions,
			PMInstrs:     st.PMInstrs,
			PDGEdges:     st.PDGEdges,
			Analysis:     res.PointsToTime + res.PDGTime,
			Instrument:   res.InstrTime,
		}
		// Representative slice: the last PM instruction of the module.
		var fault *ir.Instr
		for _, f := range mod.Funcs {
			f.Instrs(func(in *ir.Instr) {
				if in.GUID != 0 {
					fault = in
				}
			})
		}
		if fault != nil {
			start := time.Now()
			res.PDG.BackwardSlice(fault)
			t.Slicing = time.Since(start)
		}
		out = append(out, t)
	}
	return out, nil
}

// MarshalJSON renders the row with millisecond timings.
func (t StaticTiming) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		System       string  `json:"system"`
		Functions    int     `json:"functions"`
		Instructions int     `json:"instructions"`
		PMInstrs     int     `json:"pm_instrs"`
		PDGEdges     int     `json:"pdg_edges"`
		AnalysisMS   float64 `json:"analysis_ms"`
		InstrumentMS float64 `json:"instrument_ms"`
		SlicingMS    float64 `json:"slicing_ms"`
	}{t.System, t.Functions, t.Instructions, t.PMInstrs, t.PDGEdges,
		ms(t.Analysis), ms(t.Instrument), ms(t.Slicing)})
}

// Table9 renders the timings.
func Table9(ts []StaticTiming) string {
	var sb strings.Builder
	sb.WriteString("Table 9. Time for Arthas to analyze and instrument the systems\n")
	fmt.Fprintf(&sb, "  %-10s %6s %7s %5s %7s %12s %12s %12s\n",
		"System", "Funcs", "Instrs", "PM", "Edges", "Analysis", "Instrument", "Slicing")
	for _, t := range ts {
		fmt.Fprintf(&sb, "  %-10s %6d %7d %5d %7d %12v %12v %12v\n",
			t.System, t.Functions, t.Instructions, t.PMInstrs, t.PDGEdges,
			t.Analysis.Round(time.Microsecond), t.Instrument.Round(time.Microsecond),
			t.Slicing.Round(time.Microsecond))
	}
	return sb.String()
}
