package arthas

// Restart and Fork pay for what they touch. Every reactor trial restarts the
// instance and the fork engine forks it first, so a fixed cost here is paid
// many times per heal: a program that never uses the volatile heap must not
// get one allocated, and a fork must not carry a read ring it can never write.

import (
	"fmt"
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
	// A fork shares the checkpoint log's history instead of copying it.
	shortInst, longInst := withHistory(t, 300), withHistory(t, 12_000)
	short := allocPerOp(64, func() { shortInst.Fork() })
	long := allocPerOp(64, func() { longInst.Fork() })
	if long > 2*short {
		t.Errorf("Fork of linkedset.pml allocates %d B at 12 000 versions, %d B at 300; want <= 2x", long, short)
	}
}

// withHistory is linkedset.pml after enough inserts that its checkpoint log
// has recorded at least versions versions. Inserts descend, so each lands
// at the head of the list and the history grows without the list walk.
func withHistory(tb testing.TB, versions uint64) *Instance {
	tb.Helper()
	inst := loadFixture(tb, "linkedset.pml")
	if _, trap := inst.Call("init_"); trap != nil {
		tb.Fatal(trap)
	}
	for v := int64(1 << 40); inst.Log.TotalVersions() < versions; v-- {
		if _, trap := inst.Call("insert", v); trap != nil {
			tb.Fatal(trap)
		}
	}
	return inst
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

// BenchmarkForkHistory is BenchmarkFork against a growing checkpoint log:
// a reactor trial pays it once, so it must not grow with the history.
func BenchmarkForkHistory(b *testing.B) {
	for _, versions := range []uint64{300, 3_000, 12_000} {
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			inst := withHistory(b, versions)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst.Fork()
			}
		})
	}
}
