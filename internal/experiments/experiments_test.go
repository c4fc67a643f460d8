package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arthas/internal/faults"
)

// The matrix, batch and detection runs are the expensive part of this
// package's suite; each runs once and is shared by the tests below.
var (
	smallMatrix     *Matrix
	sharedBatch     *BatchResults
	sharedDetection []Detection
)

func matrix(t *testing.T) *Matrix {
	t.Helper()
	if smallMatrix != nil {
		return smallMatrix
	}
	m, err := RunMatrix(MatrixConfig{Seeds: 10})
	if err != nil {
		t.Fatal(err)
	}
	smallMatrix = m
	return m
}

func batch(t *testing.T) *BatchResults {
	t.Helper()
	if sharedBatch != nil {
		return sharedBatch
	}
	br, err := RunBatchComparison(faults.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sharedBatch = br
	return br
}

func detection(t *testing.T) []Detection {
	t.Helper()
	if sharedDetection != nil {
		return sharedDetection
	}
	ds, err := RunDetection(faults.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sharedDetection = ds
	return ds
}

func TestTable3Shape(t *testing.T) {
	m := matrix(t)
	if len(m.Cases) != 12 {
		t.Fatalf("cases = %d", len(m.Cases))
	}
	// Headline: Arthas recovers all twelve.
	for _, c := range m.Cases {
		if !c.Arthas.Recovered {
			t.Errorf("%s: Arthas failed", c.Meta.ID)
		}
		if !c.ArthasRollback.Recovered {
			t.Errorf("%s: Arthas rollback mode failed", c.Meta.ID)
		}
	}
	// pmCRIU recovers most deterministic cases but NOT f3 (natural
	// pre-snapshot trigger) and only some f5/f8 seeds.
	byID := map[string]CaseResult{}
	for _, c := range m.Cases {
		byID[c.Meta.ID] = c
	}
	if ok, _ := byID["f3"].PmCRIUSuccesses(); ok != 0 {
		t.Errorf("pmCRIU recovered f3 (%d runs) — bad state predates every snapshot", ok)
	}
	if ok, total := byID["f5"].PmCRIUSuccesses(); ok == 0 || ok == total {
		t.Errorf("f5 pmCRIU = %d/%d, want probabilistic", ok, total)
	} else if ok != 1 {
		t.Logf("f5 pmCRIU = %d/%d (paper: 1/10)", ok, total)
	}
	if ok, total := byID["f8"].PmCRIUSuccesses(); ok == 0 || ok == total {
		t.Errorf("f8 pmCRIU = %d/%d, want probabilistic", ok, total)
	}
	for _, id := range []string{"f1", "f2", "f4", "f6", "f7", "f9", "f10", "f11", "f12"} {
		if ok, total := byID[id].PmCRIUSuccesses(); ok != total {
			t.Errorf("pmCRIU failed deterministic case %s (%d/%d)", id, ok, total)
		}
	}
	// ArCkpt: immediate-crash cases only.
	for _, id := range []string{"f4", "f10"} {
		if !byID[id].ArCkpt.Recovered {
			t.Errorf("ArCkpt failed immediate-crash case %s", id)
		}
	}
	arCkptWins := 0
	for _, c := range m.Cases {
		if c.ArCkpt.Recovered {
			arCkptWins++
		}
	}
	if arCkptWins > 5 {
		t.Errorf("ArCkpt recovered %d cases; expected only the immediate-crash minority", arCkptWins)
	}
}

func TestFig9Shape(t *testing.T) {
	m := matrix(t)
	// Arthas discards far less than pmCRIU on average (paper: 3.1% vs
	// 56.5%, a ~10x gap; we require a decisive factor).
	var aSum, pSum float64
	var n int
	for _, c := range m.Cases {
		recovered := false
		var ploss float64
		for _, o := range c.PmCRIU {
			if o.Recovered {
				recovered = true
				ploss = o.DataLossPct
				break
			}
		}
		if !recovered {
			continue
		}
		aSum += c.Arthas.DataLossPct
		pSum += ploss
		n++
	}
	if n == 0 {
		t.Fatal("no comparable cases")
	}
	aMean, pMean := aSum/float64(n), pSum/float64(n)
	if aMean*3 > pMean {
		t.Errorf("Arthas mean loss %.2f%% vs pmCRIU %.2f%%: want a large gap", aMean, pMean)
	}
}

func TestFig11Shape(t *testing.T) {
	m := matrix(t)
	var pg, rb float64
	for _, c := range m.Cases {
		if c.Meta.IsLeak {
			continue
		}
		pg += c.Arthas.DataLossPct
		rb += c.ArthasRollback.DataLossPct
	}
	if pg > rb {
		t.Errorf("purge mean loss %.2f > rollback %.2f", pg, rb)
	}
}

func TestTable4Shape(t *testing.T) {
	m := matrix(t)
	// Rollback mode must be consistent everywhere it recovered; purge is
	// allowed (expected, for f7) to show inconsistencies.
	for _, c := range m.Cases {
		if c.ArthasRollback.Recovered && c.ArthasRollback.Consistent != nil {
			t.Errorf("%s: rollback-mode inconsistency: %v", c.Meta.ID, c.ArthasRollback.Consistent)
		}
	}
	byID := map[string]CaseResult{}
	for _, c := range m.Cases {
		byID[c.Meta.ID] = c
	}
	if byID["f7"].Arthas.Consistent == nil {
		t.Log("f7 purge-mode recovered consistently (paper reports an inconsistency here)")
	}
}

// renderView renders one -exp view of r through the unit table.
func renderView(t *testing.T, r *Report, name string) string {
	t.Helper()
	sel, v, err := selectUnits(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	r.units, r.view = sel, v
	return r.Text()
}

// TestRenderings is the golden table: every deterministic view equals
// `arthas-bench -exp VIEW` as pinned in testdata/bench (two runs of the
// pinned build agreed byte for byte), and every timing view renders.
func TestRenderings(t *testing.T) {
	r := &Report{Matrix: matrix(t), Batch: batch(t), Detection: detection(t)}
	for _, name := range strings.Fields("table1 fig2 fig3 types table2 table3 table4 table5 fig9 fig11 table6 table7") {
		want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "bench", name+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		if got := renderView(t, r, name); got != string(want) {
			t.Errorf("%s differs from its golden:\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
	for _, name := range []string{"fig8", "fig10"} {
		if text := renderView(t, r, name); len(text) < 40 || !strings.Contains(text, "\n") {
			t.Errorf("%s rendering too small:\n%s", name, text)
		}
	}
}

func TestBatchComparison(t *testing.T) {
	br := batch(t)
	if len(br.OneByOne) != len(br.Batch5) || len(br.OneByOne) == 0 {
		t.Fatalf("cells: %d vs %d", len(br.OneByOne), len(br.Batch5))
	}
	for i := range br.OneByOne {
		if !br.OneByOne[i].Recovered || !br.Batch5[i].Recovered {
			t.Errorf("%s: not recovered under both strategies", br.OneByOne[i].ID)
		}
		// Batch reverts at least as much data per recovery as one-by-one.
		if br.Batch5[i].Reverted < br.OneByOne[i].Reverted {
			t.Errorf("%s: batch reverted %d < single %d",
				br.OneByOne[i].ID, br.Batch5[i].Reverted, br.OneByOne[i].Reverted)
		}
	}
	if br.Fig10() == "" || br.Table6() == "" {
		t.Fatal("empty renderings")
	}
}

func TestTable7Shape(t *testing.T) {
	text := Table7(detection(t))
	if !strings.Contains(text, "f1") || !strings.Contains(text, "f12") {
		t.Fatalf("table 7:\n%s", text)
	}
}

func TestOverheadSmall(t *testing.T) {
	// The assertions bound *relative wall-clock throughput* of variants
	// measured back to back, so a CPU-scheduling burst landing on one
	// variant (common when other test binaries share the host; `go test
	// ./...` runs packages concurrently) can fail a healthy build. A
	// genuine overhead regression fails every attempt, so retry the whole
	// measurement a couple of times before declaring failure.
	cfg := OverheadConfig{YCSBOps: 4000, InsertOps: 4000}
	const attempts = 3
	var lastErrs []string
	for try := 0; try < attempts; try++ {
		res, err := MeasureOverhead(cfg, []Variant{Vanilla, WithArthas, WithCheckpoint, WithInstr, WithPmCRIU})
		if err != nil {
			t.Fatal(err)
		}
		if res.Fig12() == "" || res.Table8() == "" {
			t.Fatal("empty overhead renderings")
		}
		lastErrs = nil
		for _, sysName := range OverheadSystems {
			rel := res.Relative(sysName, WithArthas)
			if rel <= 0 {
				t.Errorf("%s: missing measurement", sysName)
				continue
			}
			// Arthas overhead must be modest (paper: 2.9-4.8%; the
			// interpreted substrate is far noisier at small op counts, so
			// only exclude multi-x slowdowns here; EXPERIMENTS.md records
			// the large-run numbers).
			if rel < 0.45 {
				lastErrs = append(lastErrs,
					fmt.Sprintf("%s: Arthas relative throughput %.2f (overhead too large)", sysName, rel))
			}
			// Instrumentation alone costs no more than full Arthas, within noise.
			if ri := res.Relative(sysName, WithInstr); ri < rel-0.35 {
				lastErrs = append(lastErrs,
					fmt.Sprintf("%s: instr-only %.2f much slower than full Arthas %.2f", sysName, ri, rel))
			}
		}
		if len(lastErrs) == 0 {
			return
		}
		t.Logf("attempt %d/%d: %s", try+1, attempts, strings.Join(lastErrs, "; "))
	}
	for _, e := range lastErrs {
		t.Error(e)
	}
}

func TestStaticTimings(t *testing.T) {
	ts, err := MeasureStatic()
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 5 {
		t.Fatalf("systems = %d", len(ts))
	}
	for _, tm := range ts {
		if tm.Instructions == 0 || tm.PMInstrs == 0 || tm.PDGEdges == 0 {
			t.Errorf("%s: empty stats %+v", tm.System, tm)
		}
		// Slicing (the mitigation-critical-path piece) is fast relative to
		// whole-program analysis.
		if tm.Slicing > tm.Analysis*10 {
			t.Errorf("%s: slicing %v slower than analysis %v", tm.System, tm.Slicing, tm.Analysis)
		}
	}
	if !strings.Contains(Table9(ts), "memcached") {
		t.Fatal("table 9 rendering")
	}
}

func TestScrubCost(t *testing.T) {
	res, err := RunScrub(ScrubConfig{
		PersistOps: 4000, ScanPasses: 5, Cycles: 3, FaultBlocks: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllHealed {
		t.Fatal("a scrub-and-heal cycle failed to heal every corrupt block")
	}
	if res.RepairedWords == 0 {
		t.Fatal("repair cycles repaired no words")
	}
	if res.ScanWordsPerMS <= 0 {
		t.Fatalf("scan throughput %v", res.ScanWordsPerMS)
	}
	// The target is < 5% checksum overhead on the persist hot path; at
	// test-sized op counts the measurement is noise-dominated, so only
	// exclude gross regressions here (EXPERIMENTS.md records bench-sized
	// numbers).
	if res.OverheadPct > 50 {
		t.Errorf("persist-path checksum overhead %.1f%%", res.OverheadPct)
	}
	if !strings.Contains(res.Text(), "scrub-and-heal") {
		t.Fatal("scrub text rendering")
	}
}
