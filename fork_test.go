package arthas_test

import (
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"arthas"
	"arthas/internal/fleet"
	"arthas/internal/obs"
	"arthas/internal/repl"
)

// A fork is where the reactor runs a probe speculatively, several at a time:
// whatever the probe does must stay in the fork. Run under -race.
func TestForkLeavesParentUntouched(t *testing.T) {
	const latency = 2 * time.Millisecond
	rec := obs.NewRecorder()
	ship := repl.NewShipper()
	var events []arthas.LifecycleEvent
	inst, err := arthas.New("kv", fleet.KVSource, arthas.Config{
		RecoverFn: "recover_", Provenance: true, Observer: rec, FlightEvents: 64,
		WrapHooks: ship.WrapHooks, RestartLatency: latency,
		OnLifecycle: func(ev arthas.LifecycleEvent) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	inst.Call("init_")
	for k := int64(0); k < 16; k++ {
		inst.Call("put", k, 100+k)
	}

	// Everything a fork could leak into: the address trace, the checkpoint
	// log, the lineage index, every counter and span, the flight ring, the
	// replication stream, lifecycle events, the durable image.
	type parentState struct {
		traceLen, reads, spans, lifecycle int
		versions, shipped, flight         uint64
		lineage                           any
		counters                          []obs.CounterSample
	}
	snapshot := func() (parentState, []uint64) {
		return parentState{
			traceLen: inst.Trace.Len(), reads: inst.Trace.Reads(), spans: len(rec.Spans()), lifecycle: len(events),
			versions: inst.Log.TotalVersions(), shipped: ship.Seq(), flight: inst.Flight.TotalEvents(),
			lineage: inst.Prov.Stats(), counters: rec.CountersInOrder(),
		}, inst.Pool.DurableImage()
	}
	before, durableBefore := snapshot()

	// A fork shares its parent's checkpoint history: every entry it has not
	// written is the parent's own, not a copy, and what it writes it copies
	// in place, keeping the parent's creation order.
	parentEntries := inst.Log.Entries()
	for i, e := range inst.Fork().Log.Entries() {
		if e != parentEntries[i] {
			t.Fatalf("an unwritten fork copies entry %d of its parent's log", i)
		}
	}

	var wg sync.WaitGroup
	for w := int64(0); w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := inst.Fork()
			for k := int64(0); k < 16; k++ {
				if _, trap := f.Call("put", k, 1000*w+k); trap != nil {
					t.Errorf("fork %d put(%d): %v", w, k, trap)
				}
			}
			// Every re-execution on a fork pays the restart a real one would.
			start := time.Now()
			if trap := f.Restart(); trap != nil {
				t.Errorf("fork %d restart: %v", w, trap)
			}
			if d := time.Since(start); d < latency {
				t.Errorf("fork %d restart took %v, RestartLatency is %v", w, d, latency)
			}
			if v, trap := f.Call("get", 5); trap != nil || v != 1000*w+5 {
				t.Errorf("fork %d get(5) = %d %v, want its own put %d", w, v, trap, 1000*w+5)
			}
			if f.Pool.HooksInstalled() != inst.Pool.HooksInstalled() || f.Machine.TraceSink != nil || f.Prov != nil || f.Flight != nil {
				t.Errorf("fork %d: checkpoint hooks %v, trace sink %v, lineage %v, flight %v; want a checkpointed, otherwise dark copy",
					w, f.Pool.HooksInstalled(), f.Machine.TraceSink != nil, f.Prov != nil, f.Flight != nil)
			}
			if f.Log.TotalVersions() <= before.versions {
				t.Errorf("fork %d: its log recorded none of its puts", w)
			}
			for i, e := range f.Log.Entries()[:len(parentEntries)] {
				if p := parentEntries[i]; e.Addr != p.Addr || e.Words != p.Words {
					t.Errorf("fork %d: entry %d is %#x/%d, its parent's %#x/%d", w, i, e.Addr, e.Words, p.Addr, p.Words)
				}
			}
		}()
	}
	wg.Wait()

	after, durableAfter := snapshot()
	if !reflect.DeepEqual(before, after) {
		t.Errorf("forks changed the parent:\nbefore %+v\nafter  %+v", before, after)
	}
	if !slices.Equal(durableBefore, durableAfter) {
		t.Error("forks changed the parent's durable image")
	}
	if v, trap := inst.Call("get", 5); trap != nil || v != 105 {
		t.Fatalf("parent get(5) = %d %v, want its own 105", v, trap)
	}
}
