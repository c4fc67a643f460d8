package experiments

import (
	"fmt"
	"strings"

	"arthas/internal/faults"
	"arthas/internal/reactor"
)

// Batch-vs-one-by-one reversion (paper §6.5, Figure 10 and Table 6): key
// Memcached/Redis bugs under a reduced workload (the paper reduces the
// workload "to avoid influence from having slice nodes that alias to
// multiple sequence numbers"), reverted one sequence number at a time vs
// five per re-execution.

// BatchCell is one (fault, strategy) measurement.
type BatchCell struct {
	ID        string
	Batch     int
	Recovered bool
	Attempts  int
	Reverted  int
	TimeMS    float64
}

// BatchResults pairs the two strategies per fault.
type BatchResults struct {
	OneByOne []BatchCell `json:"one_by_one"`
	Batch5   []BatchCell `json:"batch5"`
}

// batchCases are the paper's "several key bugs from Memcached and Redis".
func batchCases() []faults.Builder {
	return []faults.Builder{
		faults.F1(), faults.F2(), faults.F4(), faults.F6(), faults.F7(),
	}
}

// RunBatchComparison measures both strategies over the reduced workload.
func RunBatchComparison(base faults.RunConfig) (*BatchResults, error) {
	if base.WorkloadOps == 0 {
		base.WorkloadOps = 150 // reduced workload
	}
	out := &BatchResults{}
	for _, b := range batchCases() {
		for _, batch := range []int{1, 5} {
			cfg := base
			cfg.Reactor = reactor.DefaultConfig()
			cfg.Reactor.Batch = batch
			o, err := faults.RunArthas(b, cfg)
			if err != nil {
				return nil, fmt.Errorf("%s batch=%d: %w", b.ID, batch, err)
			}
			cell := BatchCell{
				ID: b.ID, Batch: batch, Recovered: o.Recovered,
				Attempts: o.Attempts, Reverted: o.RevertedItems,
				TimeMS: ms(o.MitigationTime),
			}
			if batch == 1 {
				out.OneByOne = append(out.OneByOne, cell)
			} else {
				out.Batch5 = append(out.Batch5, cell)
			}
		}
	}
	return out, nil
}

// Fig10 renders mitigation time per strategy (paper Figure 10).
func (r *BatchResults) Fig10() string {
	var sb strings.Builder
	sb.WriteString("Figure 10. Mitigation time: batch vs one-by-one reversion (ms)\n")
	fmt.Fprintf(&sb, "  %-5s %10s %10s %14s %14s\n", "Fault", "Batch(5)", "Single", "Batch attempts", "Single attempts")
	for i := range r.OneByOne {
		one, five := r.OneByOne[i], r.Batch5[i]
		fmt.Fprintf(&sb, "  %-5s %10.2f %10.2f %14d %14d\n",
			one.ID, five.TimeMS, one.TimeMS, five.Attempts, one.Attempts)
	}
	return sb.String()
}

// Table6 renders discarded items per strategy (paper Table 6).
func (r *BatchResults) Table6() string {
	var sb strings.Builder
	sb.WriteString("Table 6. Discarded items: batch vs one-by-one reversion\n")
	fmt.Fprintf(&sb, "  %-5s %10s %12s\n", "Fault", "Batch(5)", "One-by-one")
	for i := range r.OneByOne {
		one, five := r.OneByOne[i], r.Batch5[i]
		fmt.Fprintf(&sb, "  %-5s %10d %12d\n", one.ID, five.Reverted, one.Reverted)
	}
	return sb.String()
}
