package arthas_test

// Benchmarks guarding the zero-cost-disabled observability claim: the same
// Figure-12-style workload (Memcached, YCSB-A) runs with no sink, with the
// explicit no-op sink, and with a live Recorder. The first two must be
// indistinguishable — every hot path branches on a cached enabled bool, so
// disabled observability costs one predicted branch per event site (<2% on
// BenchmarkFig12Overhead*). The Recorder leg shows what enabling costs.
//
//	go test -bench 'BenchmarkObs' -benchtime 3x .

import (
	"testing"

	"arthas"
	"arthas/internal/obs"
	"arthas/internal/systems"
	"arthas/internal/workload"
)

func benchObsWorkload(b *testing.B, sink obs.Sink) {
	b.Helper()
	sys := systems.Memcached()
	sys.PoolWords = 1 << 21
	ops := workload.Generate(workload.WorkloadA(10_000, 1000, 42))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := systems.Deploy(sys, arthas.Config{StepLimit: 1 << 40, Observer: sink})
		if err != nil {
			b.Fatal(err)
		}
		runner := &workload.Runner{
			Read:   func(k int64) error { _, tp := d.Call("mc_get", k); _ = tp; return nil },
			Update: func(k, v int64) error { _, tp := d.Call("mc_set", k, v, 2); _ = tp; return nil },
			Insert: func(k, v int64) error { _, tp := d.Call("mc_set", k, v, 2); _ = tp; return nil },
			Delete: func(k int64) error { _, tp := d.Call("mc_delete", k); _ = tp; return nil },
		}
		b.StartTimer()
		if _, err := runner.Run(ops); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ops)), "ops/iter")
}

func BenchmarkObsDisabled(b *testing.B) { benchObsWorkload(b, nil) }

func BenchmarkObsNopSink(b *testing.B) { benchObsWorkload(b, obs.Nop()) }

func BenchmarkObsRecording(b *testing.B) { benchObsWorkload(b, obs.NewRecorder()) }
