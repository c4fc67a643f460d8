package torture

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGoldenMediaReports regenerates the bounded sweeps the CI torture,
// media, optimizer and repl jobs run over the fixture workloads and compares
// them byte-for-byte against the checked-in goldens: the media reports in
// testdata/media and the crash, optimized-crash, replication and
// equivalence reports in testdata/sweeps. That pins both each sweep's
// determinism (the goldens are -workers 1 reports; the test runs at 4) and
// its verdicts (every trial in the goldens ends clean or healed). A
// mismatch means sweep behavior changed: if the change is intentional,
// regenerate with the CI invocation, e.g.
//
//	arthas-torture -media -seed 1 -points 24 [fixture flags] > testdata/media/<name>.json
//	arthas-torture -seed 1 -points 60 [fixture flags] > testdata/sweeps/crash-<name>.json
//	arthas-torture -repl -seed 1 -points 48 [fixture flags] > testdata/sweeps/repl-<name>.json
//
// The equivalence goldens are RunEquivalence's report for the CI -opt
// invocation (-seed 1 -points 60), which the command prints only on a
// mismatch.
func TestGoldenMediaReports(t *testing.T) {
	fixtures := []struct {
		golden    string // path under testdata
		mode      string // media | crash | opt | repl | equiv
		name      string
		recoverFn string
		probe     string
		script    string
	}{
		{"media/counter.json", "media", "counter", "recover_", "value", "init_; bump; bump; bump"},
		{"media/checksum.json", "media", "checksum", "", "check", "init_; set 1 5; set 2 7"},
		{"media/linkedset.json", "media", "linkedset", "recover_", "", "init_; insert 5; insert 3; insert 9"},
		{"media/ringlog.json", "media", "ringlog", "recover_", "", "init_ 4; append_ 1; append_ 2; append_ 3"},
		{"sweeps/crash-counter.json", "crash", "counter", "recover_", "", "init_; bump; bump; bump"},
		{"sweeps/crash-checksum.json", "crash", "checksum", "", "check", "init_; set 1 5; set 2 7"},
		{"sweeps/crash-linkedset.json", "crash", "linkedset", "recover_", "", "init_; insert 5; insert 3; insert 9"},
		{"sweeps/crash-ringlog.json", "crash", "ringlog", "recover_", "", "init_ 4; append_ 1; append_ 2; append_ 3"},
		{"sweeps/crash-native-opt.json", "opt", "native", "recover_", "", "init_; append_ 5; append_ 7; reset_; append_ 2"},
		{"sweeps/repl-counter.json", "repl", "counter", "recover_", "value", "init_; bump; bump; bump"},
		{"sweeps/repl-checksum.json", "repl", "checksum", "", "check", "init_; set 1 5; set 2 7"},
		{"sweeps/repl-linkedset.json", "repl", "linkedset", "recover_", "contains 5", "init_; insert 5; insert 3; insert 9"},
		{"sweeps/equiv-counter.json", "equiv", "counter", "recover_", "", "init_; bump; bump; bump"},
		{"sweeps/equiv-checksum.json", "equiv", "checksum", "", "check", "init_; set 1 5; set 2 7"},
		{"sweeps/equiv-linkedset.json", "equiv", "linkedset", "recover_", "", "init_; insert 5; insert 3; insert 9"},
		{"sweeps/equiv-ringlog.json", "equiv", "ringlog", "recover_", "", "init_ 4; append_ 1; append_ 2; append_ 3"},
		{"sweeps/equiv-native.json", "equiv", "native", "recover_", "", "init_; append_ 5; append_ 7; reset_; append_ 2"},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(strings.TrimSuffix(filepath.Base(fx.golden), ".json"), func(t *testing.T) {
			t.Parallel()
			golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", fx.golden))
			if err != nil {
				t.Fatal(err)
			}
			// The flag values arthas-torture passes for each mode.
			cfg := Config{
				Name:      "testdata/" + fx.name + ".pml",
				Source:    progSource(t, fx.name),
				Script:    fx.script,
				RecoverFn: fx.recoverFn,
				Probe:     fx.probe,
				Seed:      1,
				Points:    60,
				Workers:   4,
				Depth:     1,
				Torn:      true,
				Shrink:    true,
				Optimize:  fx.mode == "opt",
			}
			var js []byte
			bad := false
			switch fx.mode {
			case "media":
				cfg.Points = 24
				rep, err := RunMedia(cfg, "")
				if err != nil {
					t.Fatal(err)
				}
				js, err = rep.JSON()
				bad = err != nil || rep.Violated > 0
			case "crash", "opt":
				rep, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				js, err = rep.JSON()
				bad = err != nil || rep.Violated > 0
			case "repl":
				cfg.Points = 48
				rep, err := RunRepl(cfg)
				if err != nil {
					t.Fatal(err)
				}
				js, err = rep.JSON()
				bad = err != nil || rep.Violated > 0
			case "equiv":
				rep, err := RunEquivalence(cfg)
				if err != nil {
					t.Fatal(err)
				}
				js, err = rep.JSON()
				bad = err != nil || !rep.OK()
			}
			if bad {
				t.Fatalf("%s sweep reports violations:\n%s", fx.mode, js)
			}
			js = append(js, '\n')
			if !bytes.Equal(js, golden) {
				t.Fatalf("report diverged from golden testdata/%s;\nregenerate if intentional\ngot:\n%s", fx.golden, js)
			}
		})
	}
}
