package vm

import (
	"testing"

	"arthas/internal/ir"
	"arthas/internal/obs"
	"arthas/internal/obs/obstest"
	"arthas/internal/pmem"
)

const obsProg = `
fn setup() {
    var p = pmalloc(4);
    setroot(0, p);
    return 0;
}
fn touch(n) {
    var p = getroot(0);
    var i = 0;
    while (i < n) {
        p[i % 4] = p[i % 4] + 1;
        i = i + 1;
    }
    persist(p, 4);
    return n;
}
fn boom() { assert(0); return 0; }`

func newObsMachine(t *testing.T, sink obs.Sink) *Machine {
	t.Helper()
	m := New(ir.MustCompile("t", obsProg), pmem.New(1<<12), Config{})
	m.SetSink(sink)
	if _, trap := m.Call("setup"); trap != nil {
		t.Fatal(trap)
	}
	return m
}

// Calls that trap before a thread exists — unknown function, wrong arity —
// leave through the same exit as every other trap: counted, classified, and
// recorded on a vm.call span.
func TestEarlyTrapsAreObserved(t *testing.T) {
	rec := obs.NewRecorder()
	m := newObsMachine(t, rec)
	flushes := 0
	m.ObsFlush = func() { flushes++ }

	if _, trap := m.Call("nope"); trap == nil || trap.Kind != TrapInternal {
		t.Fatalf("unknown function: trap = %v", trap)
	}
	if _, trap := m.Call("touch"); trap == nil || trap.Kind != TrapInternal {
		t.Fatalf("wrong arity: trap = %v", trap)
	}
	if _, trap := m.Call("boom"); trap == nil || trap.Kind != TrapAssert {
		t.Fatalf("assert: trap = %v", trap)
	}
	if got := rec.CounterValue("vm.traps"); got != 3 {
		t.Errorf("vm.traps = %d, want 3", got)
	}
	if got := rec.CounterValue("vm.trap.internal"); got != 2 {
		t.Errorf("vm.trap.internal = %d, want 2", got)
	}
	if got := rec.CounterValue("vm.trap.assert"); got != 1 {
		t.Errorf("vm.trap.assert = %d, want 1", got)
	}
	if flushes != 3 {
		t.Errorf("ObsFlush ran %d times for 3 calls", flushes)
	}
	spans := rec.Spans()[1:] // setup's span first
	want := []struct{ fn, trap string }{{"nope", "internal"}, {"touch", "internal"}, {"boom", "assert"}}
	if len(spans) != len(want) {
		t.Fatalf("%d vm.call spans after setup, want %d", len(spans), len(want))
	}
	for i, s := range spans {
		attrs := map[string]any{}
		for _, a := range s.Attrs {
			attrs[a.Key] = a.Val
		}
		if s.Name != "vm.call" || !s.Ended || attrs["fn"] != want[i].fn || attrs["trap"] != want[i].trap {
			t.Errorf("span %d = %s ended=%v %v, want vm.call fn=%s trap=%s",
				i, s.Name, s.Ended, attrs, want[i].fn, want[i].trap)
		}
	}
}

// With a sink on, a call costs the machine no allocation beyond the ones it
// makes with the sink off: the fn attribute is cached per function and the
// counter names are precomputed.
func TestCallWithSinkAllocatesNoMore(t *testing.T) {
	allocs := func(sink obs.Sink) float64 {
		m := newObsMachine(t, sink)
		m.Call("touch", 8) // fills the attribute cache
		return testing.AllocsPerRun(200, func() {
			if _, trap := m.Call("touch", 8); trap != nil {
				t.Fatal(trap)
			}
		})
	}
	off, on := allocs(nil), allocs(&obstest.CallCounter{})
	if on != off {
		t.Fatalf("Call allocates %v times with a sink, %v without", on, off)
	}
}
