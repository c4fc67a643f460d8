package arthas

// Fixture tests: every PML program under testdata/ must compile, analyze,
// run its workload, and survive crash/restart with the expected durable
// state. These double as end-to-end coverage for the public facade against
// external (file-based) sources, the same inputs the CLI tools take.

import (
	"os"
	"path/filepath"
	"testing"
)

func loadFixture(t testing.TB, name string) *Instance {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	inst, err := New(name, string(src), Config{RecoverFn: "recover_"})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return inst
}

func TestFixturesCompileAndAnalyze(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".pml" {
			continue
		}
		n++
		inst := loadFixture(t, e.Name())
		st := inst.Analysis.Stats()
		if st.PMInstrs == 0 {
			t.Errorf("%s: analyzer found no PM instructions", e.Name())
		}
	}
	if n < 3 {
		t.Fatalf("only %d fixtures found", n)
	}
}

func TestFixtureCounter(t *testing.T) {
	inst := loadFixture(t, "counter.pml")
	if _, trap := inst.Call("init_"); trap != nil {
		t.Fatal(trap)
	}
	for i := 0; i < 10; i++ {
		if _, trap := inst.Call("bump"); trap != nil {
			t.Fatal(trap)
		}
	}
	if trap := inst.Restart(); trap != nil {
		t.Fatal(trap)
	}
	v, trap := inst.Call("value")
	if trap != nil || v != 10 {
		t.Fatalf("counter after restart = %d (%v)", v, trap)
	}
}

func TestFixtureRinglog(t *testing.T) {
	inst := loadFixture(t, "ringlog.pml")
	if _, trap := inst.Call("init_", 8); trap != nil {
		t.Fatal(trap)
	}
	for i := int64(1); i <= 20; i++ {
		if _, trap := inst.Call("append_", i*11); trap != nil {
			t.Fatal(trap)
		}
	}
	inst.Restart()
	// Newest three records survive the crash (transactional appends).
	for i := int64(0); i < 3; i++ {
		v, trap := inst.Call("nth", i)
		if trap != nil {
			t.Fatal(trap)
		}
		if v != (20-i)*11 {
			t.Fatalf("nth(%d) = %d, want %d", i, v, (20-i)*11)
		}
	}
	if v, _ := inst.Call("total"); v != 20 {
		t.Fatalf("total = %d", v)
	}
	// Out-of-range reads miss cleanly.
	if v, _ := inst.Call("nth", 100); v != -1 {
		t.Fatalf("nth(100) = %d", v)
	}
}

func TestFixtureLinkedSet(t *testing.T) {
	inst := loadFixture(t, "linkedset.pml")
	if _, trap := inst.Call("init_"); trap != nil {
		t.Fatal(trap)
	}
	// Two threads fill disjoint ranges concurrently under the lock.
	n, trap := inst.Call("parallel_fill", 25)
	if trap != nil {
		t.Fatal(trap)
	}
	if n != 50 {
		t.Fatalf("parallel_fill -> size %d, want 50", n)
	}
	// Order invariant holds and survives restart.
	if _, trap := inst.Call("checksorted"); trap != nil {
		t.Fatal(trap)
	}
	inst.Restart()
	if _, trap := inst.Call("checksorted"); trap != nil {
		t.Fatalf("sortedness lost across restart: %v", trap)
	}
	for _, v := range []int64{0, 24, 25, 49} {
		got, _ := inst.Call("contains", v)
		if got != 1 {
			t.Fatalf("contains(%d) = %d", v, got)
		}
	}
	if got, _ := inst.Call("contains", 50); got != 0 {
		t.Fatalf("contains(50) = %d, want 0", got)
	}
	// Duplicate inserts are rejected.
	if got, _ := inst.Call("insert", 10); got != 0 {
		t.Fatal("duplicate insert accepted")
	}
}

func TestFixtureUnpersistedTailLost(t *testing.T) {
	// The counter's bump persists every step, but a manual store without
	// persist is lost on restart — fixtures obey the durability model.
	inst := loadFixture(t, "counter.pml")
	inst.Call("init_")
	inst.Call("bump")
	root, _ := inst.Pool.Root(0)
	inst.Pool.Store(root, 99) // unpersisted scribble
	inst.Restart()
	v, _ := inst.Call("value")
	if v != 1 {
		t.Fatalf("value = %d, want 1 (unpersisted store must vanish)", v)
	}
}
