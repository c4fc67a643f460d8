package experiments

import (
	"encoding/json"
	"fmt"
	"strings"

	"arthas/internal/faults"
)

// Sequential-vs-parallel mitigation comparison (docs/PARALLEL_MITIGATION.md):
// every non-leak case is mitigated twice — once with one trial at a time
// and once with the requested number of workers — and the report
// records the wall-time speedup plus whether the mitigation outcomes match
// (they must; divergence is a bug, not a measurement).

// ParallelCase is one case's sequential-vs-parallel measurement.
type ParallelCase struct {
	Meta         faults.Meta
	Sequential   *faults.Outcome
	Parallel     *faults.Outcome
	OutcomeMatch bool
}

// ParallelComparison is the full sweep at one worker count.
type ParallelComparison struct {
	Workers int
	Cases   []ParallelCase
}

// RunParallelComparison mitigates every non-leak case sequentially and with
// `workers` speculative workers. Leak cases are skipped: their mitigation
// (§4.7) performs no candidate search, so there is nothing to parallelize.
func RunParallelComparison(run faults.RunConfig, workers int) (*ParallelComparison, error) {
	if workers < 2 {
		return nil, fmt.Errorf("experiments: parallel comparison needs workers >= 2, got %d", workers)
	}
	pc := &ParallelComparison{Workers: workers}
	for _, b := range faults.All() {
		if b.IsLeak {
			continue
		}
		runAt := func(w int) (*faults.Outcome, error) {
			cfg := run
			cfg.Reactor.Workers = w
			return faults.RunArthas(b, cfg)
		}
		seq, err := runAt(1)
		if err != nil {
			return nil, err
		}
		par, err := runAt(workers)
		if err != nil {
			return nil, err
		}
		pc.Cases = append(pc.Cases, ParallelCase{
			Meta:         b.Meta,
			Sequential:   seq,
			Parallel:     par,
			OutcomeMatch: outcomesMatch(seq, par),
		})
	}
	return pc, nil
}

// outcomesMatch compares the deterministic mitigation outcome of two runs
// (the same contract as the faults package's determinism regression test;
// telemetry-derived tallies and wall times are excluded).
func outcomesMatch(a, b *faults.Outcome) bool {
	if a.Recovered != b.Recovered {
		return false
	}
	ra, rb := a.Report, b.Report
	if (ra == nil) != (rb == nil) {
		return false
	}
	if ra == nil {
		return true
	}
	if ra.Recovered != rb.Recovered || ra.RestartOnly != rb.RestartOnly ||
		ra.Attempts != rb.Attempts || ra.CandidateCount != rb.CandidateCount ||
		ra.ModeUsed != rb.ModeUsed || ra.FellBack != rb.FellBack ||
		ra.Replans != rb.Replans || len(ra.RevertedSeqs) != len(rb.RevertedSeqs) {
		return false
	}
	for i := range ra.RevertedSeqs {
		if ra.RevertedSeqs[i] != rb.RevertedSeqs[i] {
			return false
		}
	}
	return true
}

// Speedup returns sequential wall time over parallel wall time.
func (c *ParallelCase) Speedup() float64 {
	if c.Parallel.MitigationTime <= 0 {
		return 0
	}
	return float64(c.Sequential.MitigationTime) / float64(c.Parallel.MitigationTime)
}

// MarshalJSON flattens the comparison to one row per case.
func (pc *ParallelComparison) MarshalJSON() ([]byte, error) {
	type jsonParallelCase struct {
		ID           string  `json:"id"`
		System       string  `json:"system"`
		SequentialMS float64 `json:"sequential_ms"`
		ParallelMS   float64 `json:"parallel_ms"`
		Speedup      float64 `json:"speedup"`
		OutcomeMatch bool    `json:"outcome_match"`
	}
	out := make([]jsonParallelCase, 0, len(pc.Cases))
	for i := range pc.Cases {
		c := &pc.Cases[i]
		out = append(out, jsonParallelCase{
			ID:           c.Meta.ID,
			System:       c.Meta.System,
			SequentialMS: ms(c.Sequential.MitigationTime),
			ParallelMS:   ms(c.Parallel.MitigationTime),
			Speedup:      c.Speedup(),
			OutcomeMatch: c.OutcomeMatch,
		})
	}
	return json.Marshal(out)
}

// Text renders the comparison as an aligned table.
func (pc *ParallelComparison) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Speculative mitigation speedup (-workers %d vs sequential)\n", pc.Workers)
	fmt.Fprintf(&sb, "%-5s %-10s %12s %12s %8s %s\n",
		"case", "system", "seq-ms", "par-ms", "speedup", "outcome")
	for i := range pc.Cases {
		c := &pc.Cases[i]
		match := "match"
		if !c.OutcomeMatch {
			match = "DIVERGED"
		}
		fmt.Fprintf(&sb, "%-5s %-10s %12.3f %12.3f %7.2fx %s\n",
			c.Meta.ID, c.Meta.System,
			ms(c.Sequential.MitigationTime), ms(c.Parallel.MitigationTime),
			c.Speedup(), match)
	}
	return sb.String()
}
