package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunOptimize is the acceptance check behind -exp optimize: the pass
// must never raise dynamic persist traffic or the redundant-persist ratio,
// and must strictly lower the ratio wherever provenance found redundancy.
func TestRunOptimize(t *testing.T) {
	res, err := RunOptimize(OptimizeConfig{
		Rounds:     16,
		Ops:        200,
		FixtureDir: "../../testdata",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10 (5 fixtures + 5 systems)", len(res.Rows))
	}
	sawWin := false
	for _, row := range res.Rows {
		if row.PersistOpsAfter > row.PersistOpsBefore {
			t.Errorf("%s: persist ops rose %d -> %d", row.Program, row.PersistOpsBefore, row.PersistOpsAfter)
		}
		if row.PersistedWordsAfter > row.PersistedWordsBefore {
			t.Errorf("%s: persisted words rose %d -> %d", row.Program, row.PersistedWordsBefore, row.PersistedWordsAfter)
		}
		if row.RatioAfter > row.RatioBefore {
			t.Errorf("%s: redundant ratio rose %.4f -> %.4f", row.Program, row.RatioBefore, row.RatioAfter)
		}
		if row.RatioBefore > 0 && row.Static.Total() > 0 {
			if row.RatioAfter >= row.RatioBefore {
				t.Errorf("%s: pass rewrote the module but ratio did not drop (%.4f -> %.4f)",
					row.Program, row.RatioBefore, row.RatioAfter)
			}
			sawWin = true
		}
	}
	if !sawWin {
		t.Error("no program showed a redundant-ratio reduction")
	}

	// The document's optimize section must carry one entry per program.
	var buf bytes.Buffer
	if err := (&Report{Schema: JSONSchema, Optimize: res}).Write(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Schema   string `json:"schema"`
		Optimize *struct {
			Programs []OptimizeRow `json:"programs"`
		} `json:"optimize"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != JSONSchema || doc.Optimize == nil || len(doc.Optimize.Programs) != len(res.Rows) {
		t.Fatalf("bad JSON document: %s", buf.Bytes())
	}
	if !strings.Contains(res.Text(), "native") {
		t.Fatal("text rendering missing program rows")
	}
}
