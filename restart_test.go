package arthas

// Restart and Fork pay for what they touch. Every reactor trial restarts the
// instance and the fork engine forks it first, so a fixed cost here is paid
// many times per heal: a program that never uses the volatile heap must not
// get one allocated, and a fork must not carry a read ring it can never write.

import (
	"runtime"
	"testing"
)

func newCounter(tb testing.TB) *Instance {
	tb.Helper()
	inst := loadFixture(tb, "counter.pml")
	if _, trap := inst.Call("init_"); trap != nil {
		tb.Fatal(trap)
	}
	return inst
}

// allocPerOp is the heap bytes one call of op allocates, averaged over n.
func allocPerOp(n int, op func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}

func TestRestartAndForkAllocateWhatTheyTouch(t *testing.T) {
	inst := newCounter(t)
	restart := allocPerOp(64, func() {
		if trap := inst.Restart(); trap != nil {
			t.Fatal(trap)
		}
	})
	if restart > 64<<10 {
		t.Errorf("Restart on counter.pml allocates %d B, want <= 64 KiB", restart)
	}
	if fork := allocPerOp(64, func() { inst.Fork() }); fork > 64<<10 {
		t.Errorf("Fork of counter.pml at empty history allocates %d B, want <= 64 KiB", fork)
	}
}

func BenchmarkRestart(b *testing.B) {
	inst := newCounter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if trap := inst.Restart(); trap != nil {
			b.Fatal(trap)
		}
	}
}

func BenchmarkFork(b *testing.B) {
	inst := newCounter(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Fork()
	}
}
