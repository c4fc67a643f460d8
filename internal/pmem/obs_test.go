package pmem

import (
	"testing"

	"arthas/internal/obs"
	"arthas/internal/obs/obstest"
)

// The per-word paths only tally; FlushObs publishes the tallies exactly.
func TestFlushObsPublishesTallies(t *testing.T) {
	rec := obs.NewRecorder()
	calls := &obstest.CallCounter{Inner: rec}
	p := New(1 << 10)
	p.SetSink(calls)

	a, _ := p.Alloc(8)
	b, _ := p.Alloc(3)
	for w := uint64(0); w < 8; w++ {
		p.Store(a+w, w)
		p.Load(a + w)
	}
	p.Persist(a, 5)
	p.Free(b)
	if n := calls.Calls(); n != 0 {
		t.Fatalf("alloc/store/load/persist/free made %d sink calls", n)
	}

	check := func() {
		t.Helper()
		st := p.Stats()
		for _, c := range []struct {
			name string
			want uint64
		}{
			{"pmem.load", st.Loads}, {"pmem.store", st.Stores}, {"pmem.persist", st.Persists},
			{"pmem.persisted_words", st.Words}, {"pmem.alloc", st.Allocs}, {"pmem.free", st.Frees},
		} {
			if got := rec.CounterValue(c.name); got != int64(c.want) {
				t.Errorf("%s = %d, Stats say %d", c.name, got, c.want)
			}
		}
		if got := rec.GaugeValue("pmem.dirty_words"); got != int64(p.DirtyWords()) {
			t.Errorf("pmem.dirty_words = %d, pool has %d", got, p.DirtyWords())
		}
		if got := rec.GaugeValue("pmem.live_words"); got != int64(p.LiveWords()) {
			t.Errorf("pmem.live_words = %d, pool has %d", got, p.LiveWords())
		}
	}
	p.FlushObs()
	check()
	if got := rec.CounterValue("pmem.alloc_words"); got != 11 {
		t.Errorf("pmem.alloc_words = %d, want 11", got)
	}
	if got := rec.CounterValue("pmem.freed_words"); got != 3 {
		t.Errorf("pmem.freed_words = %d, want 3", got)
	}

	// A flush with nothing new says nothing.
	before := calls.Calls()
	p.FlushObs()
	if calls.Calls() != before {
		t.Fatalf("idle flush made %d sink calls", calls.Calls()-before)
	}

	// Loads alone publish one counter and leave the gauges alone.
	p.Load(a)
	p.Load(a)
	p.FlushObs()
	if got := calls.Calls() - before; got != 1 {
		t.Fatalf("flush after two loads made %d sink calls, want 1", got)
	}
	check()
}

// Crash publishes what preceded it before its own events, so a flight tail
// reads in the order things happened.
func TestCrashFlushesFirst(t *testing.T) {
	fl := obs.NewFlight(64)
	p := New(256)
	p.SetSink(fl)
	a, _ := p.Alloc(2)
	p.Store(a, 1)
	p.Store(a+1, 2)
	p.Crash()
	store, crash := -1, -1
	for i, e := range fl.Events() {
		switch e.Name {
		case "pmem.store":
			store = i
			if e.Value != 2 {
				t.Errorf("pmem.store event carries %v, want the batch of 2", e.Value)
			}
		case "pmem.crash":
			crash = i
		}
	}
	if store < 0 || crash < 0 || store > crash {
		t.Fatalf("pmem.store at %d, pmem.crash at %d; want store first", store, crash)
	}
}

// A sink hears what happened while it was installed: the outgoing one is
// flushed, the incoming one starts from now.
func TestSetSinkSwapSplitsTallies(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(4)
	p.Store(a, 1) // before any sink: nobody hears it
	first, second := obs.NewRecorder(), obs.NewRecorder()
	p.SetSink(first)
	p.Store(a, 2)
	p.Store(a+1, 3)
	p.SetSink(second)
	p.Store(a+2, 4)
	p.SetSink(nil)
	p.Store(a+3, 5)
	if got := first.CounterValue("pmem.store"); got != 2 {
		t.Errorf("first sink heard %d stores, want 2", got)
	}
	if got := second.CounterValue("pmem.store"); got != 1 {
		t.Errorf("second sink heard %d stores, want 1", got)
	}
	if first.CounterValue("pmem.alloc") != 0 {
		t.Error("first sink heard an alloc that preceded it")
	}
}

// A fork runs dark; promoting it adopts its stats, and its activity is
// published as the base's own, so counters keep equal to the tallies.
func TestPromotePublishesForkActivity(t *testing.T) {
	rec := obs.NewRecorder()
	p := New(256)
	p.SetSink(rec)
	a, _ := p.Alloc(2)
	p.Store(a, 1)
	f := p.Fork()
	f.Store(a, 2)
	f.Store(a+1, 3)
	f.Load(a)
	if rec.CounterValue("pmem.load") != 0 {
		t.Fatal("fork load published before promotion")
	}
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	p.Store(a, 4)
	p.FlushObs()
	if got := rec.CounterValue("pmem.store"); got != 4 || p.Stats().Stores != 4 {
		t.Fatalf("pmem.store = %d, Stats().Stores = %d, want 4 (the fork's adopted)", got, p.Stats().Stores)
	}
	if got := rec.CounterValue("pmem.load"); got != 1 {
		t.Fatalf("pmem.load = %d, want the fork's 1", got)
	}
}
