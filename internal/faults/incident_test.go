package faults

import (
	"bytes"
	"testing"

	"arthas/internal/provenance"
	"arthas/internal/reactor"
)

// Every fault family that reaches mitigation must yield an incident report
// that (a) is byte-identical run-to-run and across worker counts, (b) decodes
// under the arthas-incident/v1 schema, and (c) names the true root-cause
// write site — instruction, transaction, and checkpoint version — for the
// first reverted entry (ISSUE 6 acceptance).
func TestIncidentDeterminismAndRootCause(t *testing.T) {
	for _, b := range All() {
		if b.IsLeak {
			continue // leak mitigation never builds an incident
		}
		b := b
		t.Run(b.ID, func(t *testing.T) {
			t.Parallel()
			run := func(workers int) *Outcome {
				cfg := RunConfig{Provenance: true}
				cfg.Reactor = reactor.DefaultConfig()
				cfg.Reactor.Workers = workers
				out, err := RunArthas(b, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if out.Incident == nil {
					t.Fatal("no incident assembled")
				}
				return out
			}
			seq := run(1)
			seq2 := run(1)
			par := run(4)

			j1, j2, jp := seq.Incident.JSON(), seq2.Incident.JSON(), par.Incident.JSON()
			if !bytes.Equal(j1, j2) {
				t.Fatalf("incident not reproducible at workers=1:\n--- run1\n%s\n--- run2\n%s", j1, j2)
			}
			if !bytes.Equal(j1, jp) {
				t.Fatalf("incident differs across worker counts:\n--- workers=1\n%s\n--- workers=4\n%s", j1, jp)
			}

			inc, err := provenance.DecodeIncident(j1)
			if err != nil {
				t.Fatalf("incident does not round-trip: %v", err)
			}
			if inc.Case != b.ID || inc.Schema != provenance.IncidentSchema {
				t.Fatalf("incident identity = %s/%s", inc.Schema, inc.Case)
			}
			if inc.Signature.Kind == "" {
				t.Fatal("incident lost the failure signature")
			}
			if seq.Recovered && inc.Outcome == "not-recovered" {
				t.Fatalf("outcome %q contradicts Recovered=true", inc.Outcome)
			}

			// Lineage addresses must come out sorted (determinism contract).
			for i := 1; i < len(inc.Lineage); i++ {
				if inc.Lineage[i-1].Addr >= inc.Lineage[i].Addr {
					t.Fatalf("lineage not strictly ascending at %d: %#x >= %#x",
						i, inc.Lineage[i-1].Addr, inc.Lineage[i].Addr)
				}
			}

			rep := seq.Report
			if rep == nil || len(rep.RevertedSeqs) == 0 {
				if inc.RootCause != nil {
					t.Fatal("root cause named without any reverted version")
				}
				return // restart-only / no-reversion family: nothing to attribute
			}

			rc := inc.RootCause
			if rc == nil {
				t.Fatal("reverted versions but no root cause")
			}
			if rc.Seq != rep.RevertedSeqs[0] {
				t.Fatalf("root cause seq = %d, want first reverted %d", rc.Seq, rep.RevertedSeqs[0])
			}
			if rc.GUID == 0 || rc.Site == nil || rc.Site.Fn == "" || rc.Site.Pos == "" {
				t.Fatalf("root cause site unresolved: %+v", rc)
			}
			// The named site must be the plan candidate actually reverted
			// first, and the entry/version must exist in the checkpoint log
			// (re-verified through the raw report, not the incident itself).
			found := false
			for _, ev := range inc.Plan {
				if ev.Seq == rc.Seq {
					found = true
					if ev.GUID != rc.GUID {
						t.Fatalf("root cause guid %d disagrees with plan candidate %d", rc.GUID, ev.GUID)
					}
					if !ev.Reverted {
						t.Fatal("root-cause candidate not marked reverted in the plan")
					}
				}
			}
			if !found {
				t.Fatalf("root cause seq %d absent from the plan", rc.Seq)
			}
			if rc.EntryAddr == 0 || rc.EntryWords == 0 || rc.VersionIndex < 0 {
				t.Fatalf("root cause missing checkpoint coordinates: %+v", rc)
			}
		})
	}
}

// The incident's human rendering must mention the headline facts so
// `arthas-inspect incident` post-mortems stand alone.
func TestIncidentTextRendering(t *testing.T) {
	cfg := RunConfig{Provenance: true}
	cfg.Reactor = reactor.DefaultConfig()
	b, err := ByID("f6")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunArthas(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Incident == nil {
		t.Fatal("no incident")
	}
	text := out.Incident.Text()
	for _, want := range []string{"incident (arthas-incident/v1)", "case f6", "signature:", "mitigation:", "outcome:"} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Fatalf("rendering missing %q:\n%s", want, text)
		}
	}
}
