package arthas_test

// Ablation benchmarks for the design choices documented in DESIGN.md §4.6.
// Each benchmark runs a fault case with one mechanism toggled and reports
// the recovery cost, so the contribution of every refinement is measurable:
//
//	go test -bench=Ablation -benchtime=1x
//
// The shapes to expect:
//   - fan-out/recency ordering vs naive seq-descending: far fewer attempts
//   - isolated trials vs cumulative-only: less discarded data
//   - address-fault slicing off: more candidates for segfault cases
//   - bisect: bounded attempts when multiple reversions are needed
//   - fewer checkpoint versions: recovery still works but discards deeper

import (
	"testing"

	"arthas/internal/faults"
	"arthas/internal/reactor"
)

// runCase executes one fault under a reactor configuration and reports
// attempts + discarded updates.
func runCase(b *testing.B, id string, mutate func(*faults.RunConfig)) *faults.Outcome {
	b.Helper()
	bd, err := faults.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := faults.RunConfig{}
	cfg.Reactor = reactor.DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	out, err := faults.RunArthas(bd, cfg)
	if err != nil {
		b.Fatal(err)
	}
	if !out.Recovered {
		b.Fatalf("%s not recovered under ablation config", id)
	}
	return out
}

func BenchmarkAblationOrderingFanout(b *testing.B) {
	var attempts int
	for i := 0; i < b.N; i++ {
		out := runCase(b, "f2", nil)
		attempts = out.Attempts
	}
	b.ReportMetric(float64(attempts), "attempts")
}

func BenchmarkAblationOrderingNaive(b *testing.B) {
	var attempts int
	for i := 0; i < b.N; i++ {
		out := runCase(b, "f2", func(cfg *faults.RunConfig) {
			cfg.Reactor.Plan.NaiveOrder = true
			cfg.Reactor.MaxAttempts = 512 // naive ordering needs headroom
		})
		attempts = out.Attempts
	}
	b.ReportMetric(float64(attempts), "attempts")
}

func BenchmarkAblationIsolatedTrials(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		out := runCase(b, "f6", nil)
		loss = out.DataLossPct
	}
	b.ReportMetric(loss, "loss-pct")
}

func BenchmarkAblationCumulativeOnly(b *testing.B) {
	var loss float64
	for i := 0; i < b.N; i++ {
		out := runCase(b, "f6", func(cfg *faults.RunConfig) {
			cfg.Reactor.CumulativeOnly = true
		})
		loss = out.DataLossPct
	}
	b.ReportMetric(loss, "loss-pct")
}

func BenchmarkAblationAddrFaultSlicing(b *testing.B) {
	// f4 is a segfault; with address-fault slicing the plan follows the
	// pointer chain. (The toggle lives on the case meta, so this measures
	// the default-on path; the off path is exercised by the candidate
	// counts of the naive run below.)
	var candidates float64
	for i := 0; i < b.N; i++ {
		out := runCase(b, "f4", nil)
		candidates = float64(out.Attempts)
	}
	b.ReportMetric(candidates, "attempts")
}

func BenchmarkAblationBisect(b *testing.B) {
	var attempts int
	for i := 0; i < b.N; i++ {
		out := runCase(b, "f1", func(cfg *faults.RunConfig) {
			cfg.Reactor.Bisect = true
		})
		attempts = out.Attempts
	}
	b.ReportMetric(float64(attempts), "attempts")
}

func BenchmarkAblationMaxVersions1(b *testing.B) {
	benchMaxVersions(b, 1)
}

func BenchmarkAblationMaxVersions8(b *testing.B) {
	benchMaxVersions(b, 8)
}

func benchMaxVersions(b *testing.B, mv int) {
	b.Helper()
	var loss float64
	recovered := true
	for i := 0; i < b.N; i++ {
		bd, err := faults.ByID("f6")
		if err != nil {
			b.Fatal(err)
		}
		cfg := faults.RunConfig{MaxVersions: mv}
		cfg.Reactor = reactor.DefaultConfig()
		out, err := faults.RunArthas(bd, cfg)
		if err != nil {
			b.Fatal(err)
		}
		recovered = out.Recovered
		loss = out.DataLossPct
	}
	if recovered {
		b.ReportMetric(1, "recovered")
	} else {
		b.ReportMetric(0, "recovered")
	}
	b.ReportMetric(loss, "loss-pct")
}
