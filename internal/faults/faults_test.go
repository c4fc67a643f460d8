package faults

import (
	"testing"

	"arthas"
	"arthas/internal/vm"
)

// driveToFailure builds b under the full toolchain and runs it to its
// failure with the default run configuration.
func driveToFailure(t *testing.T, b Builder) (*Case, *vm.Trap, bool) {
	t.Helper()
	c, err := b.New(arthas.Config{})
	if err != nil {
		t.Fatal(err)
	}
	trap, hard := runToFailure(c, RunConfig{}.withDefaults(b.Meta), nil, nil)
	return c, trap, hard
}

// TestArthasRecoversAllCases is the repository's Table 3 headline: Arthas
// mitigates every one of the twelve hard faults.
func TestArthasRecoversAllCases(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			t.Parallel()
			out, err := RunArthas(b, RunConfig{})
			if err != nil {
				t.Fatalf("%s: %v", b.ID, err)
			}
			if !out.Recovered {
				t.Fatalf("%s (%s %s): Arthas did not recover", b.ID, b.System, b.Fault)
			}
			if !out.HardFault {
				t.Errorf("%s: failure was not flagged as hard (did not recur?)", b.ID)
			}
		})
	}
}

func TestCaseRegistry(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("cases = %d, want 12", len(all))
	}
	seen := map[string]bool{}
	for i, b := range all {
		want := "f" + string(rune('1'+i))
		if i >= 9 {
			want = "f1" + string(rune('0'+i-9))
		}
		if b.ID != want {
			t.Errorf("case %d id = %s, want %s", i, b.ID, want)
		}
		if seen[b.ID] {
			t.Errorf("duplicate id %s", b.ID)
		}
		seen[b.ID] = true
		if b.System == "" || b.Fault == "" || b.Consequence == "" {
			t.Errorf("%s: incomplete metadata %+v", b.ID, b.Meta)
		}
	}
	if _, err := ByID("f7"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByID("f99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestFaultsAreHard: every case's failure recurs across restart before any
// mitigation — the soft-to-hard transformation itself.
func TestFaultsAreHard(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			t.Parallel()
			_, trap, hard := driveToFailure(t, b)
			if trap == nil {
				t.Fatalf("%s: failure did not manifest", b.ID)
			}
			if !hard {
				t.Fatalf("%s: failure did not recur across restart", b.ID)
			}
		})
	}
}

// TestPmCRIUShape: pmCRIU recovers trigger-after-snapshot cases and fails
// when the bad state predates every snapshot (the f3 natural-trigger case).
func TestPmCRIUShape(t *testing.T) {
	// f4 (immediate crash, trigger at 50%): snapshots 1-2 predate it.
	out, err := RunPmCRIU(F4(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Recovered {
		t.Fatalf("pmCRIU failed on f4: %+v", out)
	}
	// f5 with the trigger before the first snapshot: every image is
	// contaminated, pmCRIU cannot recover.
	out, err = RunPmCRIU(F5(), RunConfig{TriggerFrac: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if out.Recovered {
		t.Fatal("pmCRIU recovered f5 despite pre-snapshot trigger")
	}
	// f5 with the trigger after the first snapshot: recoverable.
	out, err = RunPmCRIU(F5(), RunConfig{TriggerFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Recovered {
		t.Fatalf("pmCRIU failed on post-snapshot f5: %+v", out)
	}
}

// TestArCkptShape: ArCkpt recovers immediate-crash bugs (f4, f10) and
// times out when the root cause is buried (f1).
func TestArCkptShape(t *testing.T) {
	for _, b := range []Builder{F4(), F10()} {
		out, err := RunArCkpt(b, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Recovered {
			t.Fatalf("ArCkpt failed on %s: %+v", b.ID, out)
		}
	}
	out, err := RunArCkpt(F1(), RunConfig{ArCkptAttempts: 20})
	if err != nil {
		t.Fatal(err)
	}
	if out.Recovered {
		t.Fatalf("ArCkpt recovered f1 (buried root cause) in %d attempts", out.Attempts)
	}
	if !out.TimedOut {
		t.Fatal("expected ArCkpt timeout on f1")
	}
}

// TestArthasFineGrainedLoss: the key Figure 9 property — Arthas discards a
// small fraction of updates on the propagation-heavy cases.
func TestArthasFineGrainedLoss(t *testing.T) {
	for _, b := range []Builder{F2(), F4(), F6()} {
		out, err := RunArthas(b, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Recovered {
			t.Fatalf("%s not recovered", b.ID)
		}
		if out.DataLossPct > 30 {
			t.Errorf("%s: Arthas discarded %.1f%% of updates (too coarse)", b.ID, out.DataLossPct)
		}
	}
}

// TestLeakCasesFreeOnlyLeaked: f8/f12 mitigation frees the leaked blocks
// and nothing else (paper: "does not discard any good item").
func TestLeakCasesFreeOnlyLeaked(t *testing.T) {
	for _, b := range []Builder{F8(), F12()} {
		out, err := RunArthas(b, RunConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if !out.Recovered {
			t.Fatalf("%s not recovered: %+v", b.ID, out)
		}
		if out.Freed == 0 {
			t.Fatalf("%s: nothing freed", b.ID)
		}
		if out.Consistent != nil {
			t.Fatalf("%s: post-recovery inconsistency: %v", b.ID, out.Consistent)
		}
	}
}

// TestInvariantDetectability reproduces Table 7: only f1, f4, f6, f10 are
// caught by common domain invariants.
func TestInvariantDetectability(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			t.Parallel()
			c, trap, _ := driveToFailure(t, b)
			if trap == nil {
				t.Fatal("no failure")
			}
			if c.RunInvariants == nil {
				t.Skip("no invariant battery")
			}
			got := c.RunInvariants()
			if got != c.InvariantDetectable {
				t.Errorf("%s: invariant detection = %v, paper expectation %v", b.ID, got, c.InvariantDetectable)
			}
		})
	}
}

// TestChecksumDetectsOnlyF5 reproduces §6.6.
func TestChecksumDetectsOnlyF5(t *testing.T) {
	c, trap, _ := driveToFailure(t, F5())
	if trap == nil {
		t.Fatal("no failure")
	}
	if c.RunChecksum == nil || !c.RunChecksum() {
		t.Fatal("checksum guard did not catch the f5 bit flip")
	}
	// No other case defines a checksum-catchable region.
	for _, b := range All() {
		if b.ID != "f5" && b.ChecksumDetectable {
			t.Errorf("%s unexpectedly marked checksum-detectable", b.ID)
		}
	}
}
