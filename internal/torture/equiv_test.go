package torture

import (
	"bytes"
	"testing"
)

// equivCases are the fixture workloads the durability-equivalence sweep
// must prove. native is the one the optimizer actually rewrites; the
// others pin that the sweep holds trivially when the pass is a no-op
// (ringlog is tx-tainted, counter/checksum/linkedset have no redundancy).
var equivCases = []struct {
	name, script, recover, probe string
}{
	{"counter", "init_; bump; bump; bump", "recover_", ""},
	{"checksum", "init_; set 1 5; set 2 7", "", "check"},
	{"linkedset", "init_; insert 5; insert 3; insert 9", "recover_", ""},
	{"ringlog", "init_ 4; append_ 1; append_ 2; append_ 3", "recover_", ""},
	{"native", "init_; append_ 5; append_ 7; reset_; append_ 2", "recover_", ""},
}

// TestEquivalenceSweep is the optimizer's acceptance gate: every enumerated
// crash point of the optimized build must recover to a pool byte-identical
// to what the unoptimized build recovers from the same image.
func TestEquivalenceSweep(t *testing.T) {
	for _, tc := range equivCases {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := RunEquivalence(Config{
				Name:      tc.name,
				Source:    progSource(t, tc.name),
				Script:    tc.script,
				RecoverFn: tc.recover,
				Probe:     tc.probe,
				Torn:      true,
				Seed:      7,
				Points:    60,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Trials == 0 || rep.EventsOptimized == 0 {
				t.Fatalf("no crash points swept: %+v", rep)
			}
			if !rep.OK() {
				js, _ := rep.JSON()
				t.Fatalf("equivalence violated:\n%s", js)
			}
			if rep.Matched+rep.Skipped != rep.Trials {
				t.Fatalf("trial accounting off: %d matched + %d skipped != %d trials",
					rep.Matched, rep.Skipped, rep.Trials)
			}
		})
	}
}

// TestEquivalenceNativeWins pins that the sweep is not vacuous on native:
// the pass rewrites the module AND the dynamic durability-event stream
// shrinks, yet every crash point still recovers identically.
func TestEquivalenceNativeWins(t *testing.T) {
	rep, err := RunEquivalence(Config{
		Name:      "native",
		Source:    progSource(t, "native"),
		Script:    "init_; append_ 5; append_ 7; reset_; append_ 2",
		RecoverFn: "recover_",
		Torn:      true,
		Seed:      7,
		Points:    60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OptStats == nil || rep.OptStats.Total() == 0 {
		t.Fatalf("optimizer did nothing to native: %+v", rep.OptStats)
	}
	if rep.EventsOptimized >= rep.EventsBaseline {
		t.Fatalf("optimized build should issue fewer durability events: %d vs baseline %d",
			rep.EventsOptimized, rep.EventsBaseline)
	}
	if !rep.OK() {
		js, _ := rep.JSON()
		t.Fatalf("equivalence violated:\n%s", js)
	}
}

// TestOptimizedSweepWorkerInvariant: a -opt torture sweep must produce a
// byte-identical report at any worker count — the optimized module is
// deterministic, so parallel trials cannot change what any schedule sees.
func TestOptimizedSweepWorkerInvariant(t *testing.T) {
	run := func(workers int) []byte {
		rep, err := Run(Config{
			Name:      "native",
			Source:    progSource(t, "native"),
			Script:    "init_; append_ 5; reset_; append_ 7",
			RecoverFn: "recover_",
			Torn:      true,
			Seed:      3,
			Points:    30,
			Workers:   workers,
			Optimize:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Violated != 0 {
			js, _ := rep.JSON()
			t.Fatalf("optimized sweep at %d workers found violations:\n%s", workers, js)
		}
		js, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return js
	}
	one, eight := run(1), run(8)
	if !bytes.Equal(one, eight) {
		t.Fatalf("-opt sweep report differs between 1 and 8 workers:\n%s\nvs\n%s", one, eight)
	}
}

// TestEquivalenceDeterministic: same seed, same report bytes, whether the
// crash points run on one worker or on the shared pool.
func TestEquivalenceDeterministic(t *testing.T) {
	cfg := Config{
		Name:      "native",
		Source:    progSource(t, "native"),
		Script:    "init_; append_ 5; reset_",
		RecoverFn: "recover_",
		Torn:      true,
		Seed:      11,
		Points:    30,
		Workers:   1,
	}
	a, err := RunEquivalence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	b, err := RunEquivalence(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := a.JSON()
	jb, _ := b.JSON()
	if !bytes.Equal(ja, jb) {
		t.Fatalf("equivalence report differs between 1 and 4 workers:\n%s\nvs\n%s", ja, jb)
	}
}
