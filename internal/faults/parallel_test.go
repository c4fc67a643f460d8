package faults

import (
	"reflect"
	"testing"

	"arthas/internal/reactor"
)

// Parallel speculative mitigation must be an implementation detail: for any
// worker count the reactor's Report outcome is identical to the sequential
// search's (docs/PARALLEL_MITIGATION.md, "Determinism"). Outcome.Attempts is
// deliberately excluded — it is telemetry-derived and counts speculative
// re-executions on losing forks too.
func TestParallelMitigationDeterminism(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			t.Parallel()
			run := func(workers int) *Outcome {
				cfg := RunConfig{}
				cfg.Reactor = reactor.DefaultConfig()
				cfg.Reactor.Workers = workers
				out, err := RunArthas(b, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			seq := run(1)
			par := run(8)
			if seq.Recovered != par.Recovered {
				t.Fatalf("recovered: sequential=%v parallel=%v", seq.Recovered, par.Recovered)
			}
			if b.IsLeak {
				// Leak mitigation has no speculative path; just confirm
				// both runs freed the same number of blocks.
				if seq.Freed != par.Freed {
					t.Fatalf("freed: sequential=%d parallel=%d", seq.Freed, par.Freed)
				}
				return
			}
			sr, pr := seq.Report, par.Report
			if sr == nil || pr == nil {
				t.Fatalf("missing reactor report: sequential=%v parallel=%v", sr != nil, pr != nil)
			}
			// TotalVersions is deliberately absent: it is the log's
			// LIFETIME version history, and probes that write (f9's
			// insert, f10's get-side repair) record that history on
			// whichever log they ran against — private fork logs under
			// speculation, the main log sequentially. The mitigation
			// outcome below is the determinism contract.
			type outcome struct {
				Recovered      bool
				RestartOnly    bool
				Attempts       int
				AttemptsByMode map[string]int
				Reverted       int
				RevertedSeqs   []uint64
				Candidates     int
				Mode           reactor.Mode
				FellBack       bool
				Replans        int
			}
			key := func(r *reactor.Report) outcome {
				return outcome{
					Recovered:      r.Recovered,
					RestartOnly:    r.RestartOnly,
					Attempts:       r.Attempts,
					AttemptsByMode: r.AttemptsByMode,
					Reverted:       r.RevertedVersions,
					RevertedSeqs:   r.RevertedSeqs,
					Candidates:     r.CandidateCount,
					Mode:           r.ModeUsed,
					FellBack:       r.FellBack,
					Replans:        r.Replans,
				}
			}
			if sk, pk := key(sr), key(pr); !reflect.DeepEqual(sk, pk) {
				t.Fatalf("report diverged across worker counts:\n  workers=1: %+v\n  workers=8: %+v", sk, pk)
			}
		})
	}
}

// The evaluation's tallies are read from the Outcome, so it is held to the
// same contract as the Report: every non-leak case reaches the same
// attempts, reverted versions and data loss at any worker count.
func TestOutcomeIndependentOfWorkers(t *testing.T) {
	for _, b := range All() {
		if b.IsLeak {
			continue
		}
		b := b
		t.Run(b.ID, func(t *testing.T) {
			t.Parallel()
			type tallies struct {
				Recovered, TimedOut bool
				Attempts, Reverted  int
				DataLossPct         float64
			}
			run := func(workers int) tallies {
				cfg := RunConfig{}
				cfg.Reactor = reactor.DefaultConfig()
				cfg.Reactor.Workers = workers
				out, err := RunArthas(b, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return tallies{out.Recovered, out.TimedOut, out.Attempts, out.RevertedItems, out.DataLossPct}
			}
			if seq, par := run(1), run(4); seq != par {
				t.Fatalf("outcome diverged across worker counts:\n  workers=1: %+v\n  workers=4: %+v", seq, par)
			}
		})
	}
}
