package arthas_test

// Telemetry is published per request, not per word (docs/OBSERVABILITY.md,
// "Publication granularity"). These tests pin what that must not change:
// however an instance came up (New, systems.Deploy, OpenImage) and whichever
// layers it attaches, for every program we ship, the exported counters equal
// the layers' own tallies at every call boundary — across restarts, crashes,
// mitigation and observer swaps — and what a request costs in sink calls
// does not depend on how much work the request does.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"arthas"
	"arthas/internal/checkpoint"
	"arthas/internal/fleet"
	"arthas/internal/ir"
	"arthas/internal/obs"
	"arthas/internal/obs/obstest"
	"arthas/internal/pmem"
	"arthas/internal/provenance"
	"arthas/internal/systems"
	"arthas/internal/trace"
)

// obsStack is an instance as the totals tests drive it.
type obsStack struct {
	call    func(fn string, args ...int64) (int64, *arthas.Trap)
	restart func() *arthas.Trap
	setObs  func(obs.Sink)
	pool    *pmem.Pool
	log     *checkpoint.Log
	tr      *trace.Trace
	prov    *provenance.Index // nil without Config.Provenance
	inst    *arthas.Instance
}

func stackOf(inst *arthas.Instance) *obsStack {
	return &obsStack{
		call: inst.Call, restart: inst.Restart, setObs: inst.SetObserver,
		pool: inst.Pool, log: inst.Log, tr: inst.Trace, prov: inst.Prov, inst: inst,
	}
}

// layerTally is the layers' own account of their activity.
type layerTally struct {
	pmem                   pmem.Stats
	events, reads          int
	versions, lineageWords uint64
}

func (s *obsStack) tally() layerTally {
	t := layerTally{
		pmem: s.pool.Stats(), events: s.tr.Len(), reads: s.tr.Reads(),
		versions: s.log.TotalVersions(),
	}
	if s.prov != nil {
		t.lineageWords = s.prov.Stats().PersistedWords
	}
	return t
}

// checkTotals asserts rec's counters equal what the layers tallied since
// base (their state when rec was installed), and its gauges their current
// state.
func (s *obsStack) checkTotals(t *testing.T, when string, rec *obs.Recorder, base layerTally) {
	t.Helper()
	cur := s.tally()
	for _, c := range []struct {
		name      string
		cur, base uint64
	}{
		{"pmem.load", cur.pmem.Loads, base.pmem.Loads},
		{"pmem.store", cur.pmem.Stores, base.pmem.Stores},
		{"pmem.persist", cur.pmem.Persists, base.pmem.Persists},
		{"pmem.persisted_words", cur.pmem.Words, base.pmem.Words},
		{"pmem.alloc", cur.pmem.Allocs, base.pmem.Allocs},
		{"pmem.free", cur.pmem.Frees, base.pmem.Frees},
		{"pmem.crash", cur.pmem.Crashes, base.pmem.Crashes},
		{"trace.events", uint64(cur.events), uint64(base.events)},
		{"trace.read_events", uint64(cur.reads), uint64(base.reads)},
		{"ckpt.versions", cur.versions, base.versions},
		{"prov.lineage_records", cur.lineageWords, base.lineageWords},
	} {
		if got, want := rec.CounterValue(c.name), int64(c.cur-c.base); got != want {
			t.Errorf("%s: %s = %d, the layer tallied %d", when, c.name, got, want)
		}
	}
	// A gauge is sampled when something that moves it happened on rec's
	// watch; from then on it is the layer's current state.
	moved := func(counters ...string) bool {
		for _, name := range counters {
			if rec.CounterValue(name) != 0 {
				return true
			}
		}
		return false
	}
	for _, g := range []struct {
		name  string
		want  int
		moved bool
	}{
		{"pmem.dirty_words", s.pool.DirtyWords(), moved("pmem.store", "pmem.persist", "pmem.crash")},
		{"pmem.live_words", s.pool.LiveWords(), moved("pmem.alloc", "pmem.free")},
		{"ckpt.entries", len(s.log.Entries()), moved("ckpt.versions")},
		{"ckpt.total_versions", int(cur.versions), moved("ckpt.versions")},
	} {
		if got := rec.GaugeValue(g.name); g.moved && got != int64(g.want) {
			t.Errorf("%s: gauge %s = %d, the layer holds %d", when, g.name, got, g.want)
		}
	}
}

type obsCall struct {
	fn   string
	args []int64
}

func call(fn string, args ...int64) obsCall { return obsCall{fn, args} }

// obsPrograms is every program the repo ships a source for, with a short
// workload that reaches its load, store, persist, alloc, free and (where it
// has them) transaction and thread paths.
func obsPrograms(t *testing.T) []struct {
	name, source, recoverFn string
	calls                   []obsCall
} {
	fixture := func(name string) string {
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	return []struct {
		name, source, recoverFn string
		calls                   []obsCall
	}{
		{"fleet-kv", fleet.KVSource, "recover_", []obsCall{
			call("init_"), call("put", 1, 10), call("put", 65, 20), call("put", 129, 30), call("get", 1),
			call("put", 65, 21), call("del", 129), call("get", 129), call("sum"), call("count")}},
		{"counter.pml", fixture("counter.pml"), "recover_", []obsCall{
			call("init_"), call("bump"), call("bump"), call("bump"), call("value")}},
		{"ringlog.pml", fixture("ringlog.pml"), "recover_", []obsCall{
			call("init_", 4), call("append_", 11), call("append_", 22), call("append_", 33), call("append_", 44),
			call("append_", 55), call("nth", 0), call("total")}},
		{"linkedset.pml", fixture("linkedset.pml"), "recover_", []obsCall{
			call("init_"), call("insert", 5), call("insert", 3), call("parallel_fill", 6), call("contains", 3),
			call("checksorted"), call("size")}},
		{"native.pml", fixture("native.pml"), "recover_", []obsCall{
			call("init_"), call("append_", 7), call("append_", 8), call("head"), call("get", 0), call("reset_"), call("append_", 9)}},
		{"checksum.pml", fixture("checksum.pml"), "", []obsCall{
			call("init_"), call("set", 0, 5), call("set", 1, 6), call("check")}},
	}
}

// obsStacks is every way an instance comes up, and every attachment
// combination the experiments and baselines use (Table 8, pmCRIU, ArCkpt,
// -exp optimize). cfg is completed per program with RecoverFn and Observer.
var obsStacks = []struct {
	name string
	cfg  arthas.Config
	new  func(name, source string, cfg arthas.Config) (*arthas.Instance, error)
}{
	{"Instance", arthas.Config{Provenance: true}, arthas.New},
	{"Deployment", arthas.Config{Provenance: true}, deployStack},
	{"OpenImage", arthas.Config{Provenance: true}, reopenStack},
	{"bare", arthas.Config{Detach: arthas.AllLayers}, arthas.New},
	{"checkpoint-only", arthas.Config{Detach: arthas.LayerAnalysis | arthas.LayerTrace}, arthas.New},
	{"trace-only", arthas.Config{Detach: arthas.LayerCheckpoint}, arthas.New},
	{"provenance-only", arthas.Config{Detach: arthas.LayerCheckpoint | arthas.LayerTrace, Provenance: true}, arthas.New},
}

// deployStack is the path the fault cases and the overhead experiments take.
func deployStack(name, source string, cfg arthas.Config) (*arthas.Instance, error) {
	return systems.Deploy(&systems.System{Name: name, Source: source, PoolWords: 1 << 16, RecoverFn: cfg.RecoverFn}, cfg)
}

// reopenStack is the path a promoted fleet shard and `arthas-run -poolfile`
// take: an image saved by one instance, reopened under cfg.
func reopenStack(name, source string, cfg arthas.Config) (*arthas.Instance, error) {
	first, err := arthas.New(name, source, arthas.Config{RecoverFn: cfg.RecoverFn})
	if err != nil {
		return nil, err
	}
	var img bytes.Buffer
	if err := first.SaveImage(&img); err != nil {
		return nil, err
	}
	return arthas.OpenImage(name, source, cfg, &img)
}

func newInstanceStack(t *testing.T, name, source, recoverFn string, sink obs.Sink) *obsStack {
	t.Helper()
	inst, err := arthas.New(name, source, arthas.Config{RecoverFn: recoverFn, Provenance: true, Observer: sink})
	if err != nil {
		t.Fatal(err)
	}
	return stackOf(inst)
}

func TestObsTotalsEqualLayerTallies(t *testing.T) {
	for _, stack := range obsStacks {
		for _, prog := range obsPrograms(t) {
			t.Run(stack.name+"/"+prog.name, func(t *testing.T) {
				recA := obs.NewRecorder()
				cfg := stack.cfg
				cfg.RecoverFn, cfg.Observer = prog.recoverFn, recA
				inst, err := stack.new(prog.name, prog.source, cfg)
				if err != nil {
					t.Fatal(err)
				}
				s := stackOf(inst)
				var zero layerTally
				run := func(rec *obs.Recorder, base layerTally, calls []obsCall) {
					t.Helper()
					for _, cl := range calls {
						if _, trap := s.call(cl.fn, cl.args...); trap != nil {
							t.Fatalf("%s%v: %v", cl.fn, cl.args, trap)
						}
						s.checkTotals(t, "after "+cl.fn, rec, base)
					}
				}
				run(recA, zero, prog.calls)
				checkAttachment(t, inst, recA, cfg)

				if trap := s.restart(); trap != nil {
					t.Fatalf("restart: %v", trap)
				}
				s.checkTotals(t, "after restart", recA, zero)

				// The VM-less leg: Go code driving the layers directly, as a
				// native program would, then a crash. Nothing is lost or
				// reordered: the crash and the restart flush first.
				a, err := s.pool.Alloc(3)
				if err != nil {
					t.Fatal(err)
				}
				for w := uint64(0); w < 3; w++ {
					s.pool.Store(a+w, 40+w)
					s.tr.Record(1, a+w)
					s.pool.Load(a + w)
					s.tr.RecordRead(1, a+w)
				}
				s.pool.Persist(a, 2)
				s.pool.Crash()
				if trap := s.restart(); trap != nil {
					t.Fatalf("restart after native leg: %v", trap)
				}
				s.checkTotals(t, "after native leg + crash", recA, zero)

				// Swap observers: A keeps what happened on its watch, B hears
				// only what follows; with none installed nothing is owed later.
				tail := prog.calls[1:]
				atSwap := s.tally()
				recB := obs.NewRecorder()
				s.setObs(recB)
				s.checkTotals(t, "A at swap", recA, zero)
				frozenA := recA.CounterValue("pmem.load")
				run(recB, atSwap, tail)
				s.setObs(nil)
				for _, cl := range tail {
					s.call(cl.fn, cl.args...)
				}
				atC := s.tally()
				recC := obs.NewRecorder()
				s.setObs(recC)
				run(recC, atC, tail)
				if got := recA.CounterValue("pmem.load"); got != frozenA {
					t.Errorf("A heard %d loads after it was swapped out", got-frozenA)
				}
			})
		}
	}
}

// checkAttachment asserts, after a workload that stored, persisted and
// allocated, that every layer cfg keeps heard it and every layer cfg
// detaches is unwired, empty and silent — and that the operations which
// need a detached layer say so instead of running without it.
func checkAttachment(t *testing.T, inst *arthas.Instance, rec *obs.Recorder, cfg arthas.Config) {
	t.Helper()
	kept := func(l arthas.Layers) bool { return cfg.Detach&l == 0 }
	guids := false
	for _, f := range inst.Module.Funcs {
		f.Instrs(func(in *ir.Instr) { guids = guids || in.GUID != 0 })
	}
	for _, c := range []struct {
		what      string
		got, want bool
	}{
		{"analysis ran", inst.Analysis != nil, kept(arthas.LayerAnalysis)},
		{"module carries GUIDs", guids, kept(arthas.LayerAnalysis)},
		{"pool hooks installed", inst.Pool.HooksInstalled(), kept(arthas.LayerCheckpoint) || cfg.Provenance},
		{"checkpoint log has versions", inst.Log.TotalVersions() > 0, kept(arthas.LayerCheckpoint)},
		{"ckpt.versions counted", rec.CounterValue("ckpt.versions") > 0, kept(arthas.LayerCheckpoint)},
		{"machine has a trace sink", inst.Machine.TraceSink != nil, kept(arthas.LayerTrace)},
		{"trace has events", inst.Trace.Len() > 0, kept(arthas.LayerTrace) && kept(arthas.LayerAnalysis)},
		{"trace.events counted", rec.CounterValue("trace.events") > 0, kept(arthas.LayerTrace) && kept(arthas.LayerAnalysis)},
		{"lineage stamped", inst.Prov != nil && inst.Prov.Stats().PersistOps > 0, cfg.Provenance},
		{"prov.lineage_records counted", rec.CounterValue("prov.lineage_records") > 0, cfg.Provenance},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.what, c.got, c.want)
		}
	}
	if cfg.Provenance {
		// The detector resolves the last writer of a word the workload persisted.
		resolved := false
		for _, e := range inst.Log.Entries() {
			if _, ok := inst.Detector.Lineage(e.Addr); ok {
				resolved = true
				break
			}
		}
		if kept(arthas.LayerCheckpoint) && !resolved {
			t.Error("Detector.Lineage resolves no checkpointed word")
		}
	}

	// Mitigation needs all three layers, a full image the log and the trace:
	// without them they name what is missing instead of running.
	names := func(err error, layers arthas.Layers) bool {
		return err != nil && strings.Contains(err.Error(), layers.String())
	}
	reexec := func(*arthas.Instance) *arthas.Trap { return nil }
	if missing := cfg.Detach & arthas.AllLayers; missing != 0 {
		inst.Observe(&arthas.Trap{Kind: arthas.TrapAssert})
		_, err1 := inst.Mitigate(reexec)
		_, err2 := inst.MitigateCall("nope")
		_, err3 := inst.MitigateProbe(nil, false, reexec)
		for _, err := range []error{err1, err2, err3} {
			if !names(err, missing) {
				t.Errorf("mitigation without %q: err = %v", missing, err)
			}
		}
	}
	if missing := cfg.Detach & (arthas.LayerCheckpoint | arthas.LayerTrace); missing != 0 {
		if err := inst.SaveImage(&bytes.Buffer{}); !names(err, missing) {
			t.Errorf("SaveImage without %q: err = %v", missing, err)
		}
	}
}

// Mitigation reverts and re-executes on forks, promotes the winner and
// confirms it on the live instance; totals stay exact through it at any
// worker count.
func TestObsTotalsAcrossMitigation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			rec := obs.NewRecorder()
			cfg := arthas.Config{RecoverFn: "recover_", Provenance: true, Observer: rec}
			cfg.Reactor.Workers = workers
			inst, err := arthas.New("kv", fleet.KVSource, cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := stackOf(inst)
			var zero layerTally
			s.call("init_")
			for k := int64(0); k < 8; k++ {
				s.call("put", k, 100+k)
				s.call("put", k, 200+k)
			}
			it, trap := s.call("locate", 5)
			if trap != nil || it == 0 {
				t.Fatalf("locate: %d %v", it, trap)
			}
			if err := s.inst.InjectBitFlip(uint64(it)+1, 3); err != nil {
				t.Fatal(err)
			}
			for strike := 0; strike < 2; strike++ {
				_, trap := s.call("get", 5)
				if trap == nil {
					t.Fatal("corrupted item served")
				}
				s.inst.Observe(trap)
				s.checkTotals(t, "after strike", rec, zero)
				if strike == 0 {
					s.restart()
				}
			}
			rep, err := s.inst.MitigateCall("get", 5)
			if err != nil || !rep.Recovered {
				t.Fatalf("mitigation: %+v %v", rep, err)
			}
			s.checkTotals(t, "after mitigation", rec, zero)
			if v, trap := s.call("get", 5); trap != nil || v != 205 {
				t.Fatalf("get(5) after mitigation = %d %v, want the checkpointed 205", v, trap)
			}
			s.checkTotals(t, "after the healed get", rec, zero)
			if rec.CounterValue("ckpt.revert") == 0 {
				t.Error("mitigation left no reversion telemetry")
			}
		})
	}
}

// With only the flight recorder as sink, the ring holds one batched event
// per counter per request, in the order things happened: activity that
// bypassed the machine is published before the crash, or the scrub, that
// followed it.
func TestFlightOnlyTailKeepsOrder(t *testing.T) {
	inst, err := arthas.New("kv", fleet.KVSource, arthas.Config{RecoverFn: "recover_", FlightEvents: 512})
	if err != nil {
		t.Fatal(err)
	}
	inst.Call("init_")
	for k := int64(0); k < 40; k++ {
		inst.Call("put", k, k)
	}
	// seqOf finds the first matching event recorded after seq `from`
	// (0 when there is none; sequence numbers start at 1).
	seqOf := func(from uint64, kind obs.FlightKind, name string, value float64) uint64 {
		for _, e := range inst.Flight.Events() {
			if e.Seq > from && e.Kind == kind && e.Name == name && (kind != obs.FlightCount || e.Value == value) {
				return e.Seq
			}
		}
		return 0
	}
	mark := inst.Flight.TotalEvents

	// A store and a trace event no request made, then a restart.
	it, _ := inst.Call("locate", 7)
	from := mark()
	inst.Pool.Store(uint64(it)+1, 99)
	inst.Trace.Record(1, uint64(it)+1)
	if trap := inst.Restart(); trap != nil {
		t.Fatal(trap)
	}
	store := seqOf(from, obs.FlightCount, "pmem.store", 1)
	traced := seqOf(from, obs.FlightCount, "trace.events", 1)
	crash := seqOf(from, obs.FlightCount, "pmem.crash", 1)
	if store == 0 || traced == 0 || crash == 0 || store > crash || traced > crash {
		t.Fatalf("pmem.store at %d, trace.events at %d, pmem.crash at %d; want the crash last", store, traced, crash)
	}

	// Two loads no request made, then a scrub.
	from = mark()
	inst.Pool.Load(uint64(it))
	inst.Pool.Load(uint64(it) + 1)
	if _, err := inst.Scrub(); err != nil {
		t.Fatal(err)
	}
	loads := seqOf(from, obs.FlightCount, "pmem.load", 2)
	scrub := seqOf(from, obs.FlightBegin, "scrub.repair", 0)
	if loads == 0 || scrub == 0 || loads > scrub {
		t.Fatalf("pmem.load at %d, scrub.repair at %d; want the loads first", loads, scrub)
	}

	// Per-word events filled the 512-slot ring with the last few requests;
	// batched, a put is some three dozen events.
	calls := 0
	for _, e := range inst.Flight.Events() {
		if e.Kind == obs.FlightBegin && e.Name == "vm.call" {
			calls++
		}
	}
	if calls < 10 {
		t.Errorf("flight tail covers %d requests, want at least 10", calls)
	}
}

// One get costs the same number of sink calls whether it walks 1 node or
// 64, and that number is small.
func TestGetSinkCallsIndependentOfChainLength(t *testing.T) {
	calls := &obstest.CallCounter{Inner: obs.NewRecorder()}
	s := newInstanceStack(t, "kv", fleet.KVSource, "recover_", calls)
	s.call("init_")
	get := func(k int64) (sinkCalls int, loads uint64) {
		t.Helper()
		c0, l0 := calls.Calls(), s.pool.Stats().Loads
		if _, trap := s.call("get", k); trap != nil {
			t.Fatal(trap)
		}
		return calls.Calls() - c0, s.pool.Stats().Loads - l0
	}
	s.call("put", 3, 1)
	short, shortLoads := get(3)
	for i := int64(1); i < 64; i++ {
		s.call("put", 3+64*i, i) // same bucket, pushed in front of key 3
	}
	long, longLoads := get(3)
	if longLoads < shortLoads+63 {
		t.Fatalf("the 64-node walk made %d loads, the 1-node walk %d", longLoads, shortLoads)
	}
	if short != long || long > 16 {
		t.Fatalf("get made %d sink calls over 1 node, %d over 64; want equal and ≤ 16", short, long)
	}
}
