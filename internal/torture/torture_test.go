package torture

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func progSource(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name+".pml"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func TestParseScript(t *testing.T) {
	calls, err := ParseScript("init_; set 1 0x10; check")
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 || calls[1].Fn != "set" || calls[1].Args[1] != 16 {
		t.Fatalf("parsed %v", calls)
	}
	if _, err := ParseScript("set one"); err == nil {
		t.Fatal("bad argument accepted")
	}
	if _, err := ParseScript(" ; ; "); err == nil {
		t.Fatal("empty script accepted")
	}
}

// TestMultiCallProbeRejected: every entry point parses the probe the same
// way, so a multi-call probe is an error everywhere — Replay included,
// rather than silently running its first call.
func TestMultiCallProbeRejected(t *testing.T) {
	cfg := Config{
		Name:      "counter",
		Source:    progSource(t, "counter"),
		Script:    "init_; bump",
		RecoverFn: "recover_",
		Probe:     "value; value",
		Points:    1,
	}
	seed := Seed{
		Program:   cfg.Name,
		Script:    cfg.Script,
		RecoverFn: cfg.RecoverFn,
		Probe:     cfg.Probe,
		Schedule:  Schedule{{Event: 0, Keep: -1}},
	}
	entry := map[string]func() error{
		"Run":            func() error { _, err := Run(cfg); return err },
		"RunMedia":       func() error { _, err := RunMedia(cfg, ""); return err },
		"RunRepl":        func() error { _, err := RunRepl(cfg); return err },
		"RunEquivalence": func() error { _, err := RunEquivalence(cfg); return err },
		"Replay":         func() error { _, err := Replay(cfg.Source, seed); return err },
	}
	for name, run := range entry {
		if err := run(); err == nil || !strings.Contains(err.Error(), "probe must be a single call") {
			t.Errorf("%s with probe %q: err = %v, want the single-call error", name, cfg.Probe, err)
		}
	}
}

// TestTortureQuick is the bounded smoke sweep: every crash point of a small
// counter workload must recover clean or healed.
func TestTortureQuick(t *testing.T) {
	rep, err := Run(Config{
		Name:      "counter",
		Source:    progSource(t, "counter"),
		Script:    "init_; bump; bump; bump",
		RecoverFn: "recover_",
		Torn:      true,
		Seed:      1,
		Points:    40,
		Workers:   4,
		Shrink:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Events == 0 || rep.Trials == 0 {
		t.Fatalf("no crash points enumerated: %+v", rep)
	}
	if rep.Violated != 0 {
		js, _ := rep.JSON()
		t.Fatalf("crash sweep found %d violations:\n%s", rep.Violated, js)
	}
}

// TestTortureTornChecksum covers torn multi-word persists (the 8-word array
// flush) with a content probe after every recovery.
func TestTortureTornChecksum(t *testing.T) {
	rep, err := Run(Config{
		Name:   "checksum",
		Source: progSource(t, "checksum"),
		Script: "init_; set 1 5; set 2 7",
		Probe:  "check",
		Torn:   true,
		Seed:   2,
		Points: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violated != 0 {
		js, _ := rep.JSON()
		t.Fatalf("torn-persist sweep found %d violations:\n%s", rep.Violated, js)
	}
}

// TestTortureRinglogTx covers transaction-commit crash points (each
// DurTxRange is a separate event) on the ring buffer.
func TestTortureRinglogTx(t *testing.T) {
	rep, err := Run(Config{
		Name:      "ringlog",
		Source:    progSource(t, "ringlog"),
		Script:    "init_ 4; append_ 1; append_ 2; append_ 3",
		RecoverFn: "recover_",
		Torn:      true,
		Seed:      3,
		Points:    30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violated != 0 {
		js, _ := rep.JSON()
		t.Fatalf("tx crash sweep found %d violations:\n%s", rep.Violated, js)
	}
}

// TestTortureDeterminism: byte-identical JSON for the same seed, across
// runs AND across worker counts.
func TestTortureDeterminism(t *testing.T) {
	cfg := Config{
		Name:      "linkedset",
		Source:    progSource(t, "linkedset"),
		Script:    "init_; insert 5; insert 3; insert 9",
		RecoverFn: "recover_",
		Torn:      true,
		Seed:      7,
		Points:    20,
		Depth:     2,
		Shrink:    true,
	}
	var outs [][]byte
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		rep, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, js)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("report differs across worker counts:\n--- w1:\n%s\n--- w4:\n%s", outs[0], outs[1])
	}
	// And across repeated runs at the same worker count.
	c := cfg
	c.Workers = 4
	rep, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	js, _ := rep.JSON()
	if !bytes.Equal(outs[1], js) {
		t.Fatal("report differs across runs with the same seed")
	}
}

// TestTortureFindsBrokenRecovery proves the harness catches the bug class
// it was built for: a recovery entry point that assumes initialization
// completed ("value" dereferences the root unguarded) is driven into an
// unhealable segfault by a crash before setroot, and the failing schedule
// shrinks to a minimal replayable seed.
func TestTortureFindsBrokenRecovery(t *testing.T) {
	src := progSource(t, "counter")
	rep, err := Run(Config{
		Name:      "counter",
		Source:    src,
		Script:    "init_; bump",
		RecoverFn: "value", // deliberately unguarded recovery path
		Seed:      4,
		Shrink:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violated == 0 {
		t.Fatal("unguarded recovery not caught by the sweep")
	}
	if len(rep.Shrunk) == 0 {
		t.Fatal("violations found but nothing shrunk")
	}
	for _, seed := range rep.Shrunk {
		if len(seed.Schedule) != 1 {
			t.Fatalf("seed %s not minimal", describeSeed(seed))
		}
		res, err := Replay(src, seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != "violated" {
			t.Fatalf("shrunk seed %s does not reproduce: %+v", describeSeed(seed), res)
		}
	}
}
