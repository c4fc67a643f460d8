package main

// Every use of a non-facade internal API lives in this file, so a refactor
// of the layers under a request (ROADMAP item B) has one place in the
// benchmark to coordinate with. The rest of the benchmark sees only
// `target`, `rung`, `tracedRig` and the probe results.

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"arthas"
	"arthas/internal/analysis"
	"arthas/internal/checkpoint"
	"arthas/internal/fleet"
	"arthas/internal/ir"
	"arthas/internal/obs"
	"arthas/internal/pmem"
	"arthas/internal/provenance"
	"arthas/internal/repl"
	"arthas/internal/trace"
	"arthas/internal/vm"
	"arthas/internal/workload"
)

// poolWords is every shard's pool size in every workload and rung.
const poolWords = 1 << 18

// stepLimit is far above any single KV call; it only exists so a runaway
// loop ends as a failed op rather than a hung benchmark.
const stepLimit = 5_000_000

// target executes ops against one configuration of the stack. get returns
// the value (absent when missing), del whether the key existed.
type target interface {
	do(o op) (int64, error)
}

// ---- fleet ---------------------------------------------------------------

type fleetTarget struct{ f *fleet.Fleet }

func (t fleetTarget) do(o op) (int64, error) {
	kind := workload.OpUpdate
	switch o.kind {
	case opGet:
		kind = workload.OpRead
	case opDel:
		kind = workload.OpDelete
	}
	return t.f.Do(workload.Op{Kind: kind, Key: o.key, Value: o.val})
}

// newFleet builds the serving fleet the way arthas-serve does: provenance
// on, no simulated service or restart latency.
func newFleet(shards int, replicas bool) (*fleet.Fleet, error) {
	return fleet.New(fleet.Config{
		Shards:     shards,
		PoolWords:  poolWords,
		Provenance: true,
		Replicas:   replicas,
	})
}

// shardOf is the fleet's routing function.
func shardOf(key int64, shards int) int { return fleet.RouteFor(key, shards) }

// opsPerShard is how many requests each shard has served.
func opsPerShard(f *fleet.Fleet) []int64 {
	var ops []int64
	for _, s := range f.Stats() {
		ops = append(ops, s.Ops)
	}
	return ops
}

// healReport is the part of a shard's last mitigation report the heal
// metrics are built from.
type healReport struct {
	attempts, reverted int
	duration           time.Duration
	recovered          bool
}

func lastHeal(f *fleet.Fleet, shard int) (healReport, bool) {
	rep := f.LastReport(shard)
	if rep == nil {
		return healReport{}, false
	}
	return healReport{rep.Attempts, rep.RevertedVersions, rep.Duration, rep.Recovered}, true
}

// ---- direct calls: arthas.Instance and bare vm.Machine -------------------

// callTarget drives the KV program's entry points directly.
type callTarget struct {
	call func(fn string, args ...int64) (int64, *vm.Trap)
}

func (t callTarget) do(o op) (int64, error) {
	var v int64
	var trap *vm.Trap
	switch o.kind {
	case opGet:
		v, trap = t.call("get", o.key)
	case opPut:
		v, trap = t.call("put", o.key, o.val)
	default:
		v, trap = t.call("del", o.key)
	}
	if trap != nil {
		return 0, trap
	}
	return v, nil
}

// instanceConfig is the arthas.Config a fleet shard runs with, minus the
// fleet's own wiring; rungs switch provenance and the observer on one at a
// time.
func instanceConfig(prov bool, observer obs.Sink) arthas.Config {
	return arthas.Config{
		PoolWords:  poolWords,
		RecoverFn:  "recover_",
		Provenance: prov,
		Observer:   observer,
	}
}

func newInstance(name string, cfg arthas.Config) (*arthas.Instance, error) {
	inst, err := arthas.New(name, fleet.KVSource, cfg)
	if err != nil {
		return nil, err
	}
	if _, trap := inst.Call("init_"); trap != nil {
		return nil, fmt.Errorf("%s init: %w", name, trap)
	}
	return inst, nil
}

// newBare deploys the KV program on a pool with no toolchain attached: not
// analyzed (so no trace instrumentation), no hooks. seals selects block-seal
// upkeep on the persist path; log, when non-nil, is attached as the pool's
// hooks.
func newBare(seals bool, log *checkpoint.Log) (*vm.Machine, error) {
	mod, err := ir.CompileSource("bare", fleet.KVSource)
	if err != nil {
		return nil, err
	}
	pool := pmem.New(poolWords)
	pool.SetMediaMaintenance(seals)
	if log != nil {
		pool.SetHooks(log.Hooks())
	}
	m := vm.New(mod, pool, vm.Config{StepLimit: stepLimit})
	if _, trap := m.Call("init_"); trap != nil {
		return nil, fmt.Errorf("bare init: %w", trap)
	}
	return m, nil
}

// ---- the rung ladder -----------------------------------------------------

// rungNames lists the ladder bottom-up. The delta between a rung and the
// one below is the cost of the layer the rung adds (the paper's Table 8
// method, extended to every layer added since).
var rungNames = []string{
	"r0-bare", "r1-seals", "r2-checkpoint", "r3-trace", "r4-provenance",
	"r5-obs", "r6-fleet", "r7-repl", "r8-http",
}

// rung is one configuration of the stack with everything below it on.
type rung struct {
	name string
	t    target
	stop func() error // nil when nothing to stop
}

func newRung(i int, serveBin string) (*rung, error) {
	r := &rung{name: rungNames[i]}
	switch i {
	case 0, 1, 2:
		var log *checkpoint.Log
		if i == 2 {
			log = checkpoint.NewLog(0)
		}
		m, err := newBare(i >= 1, log)
		if err != nil {
			return nil, err
		}
		r.t = callTarget{m.Call}
	case 3, 4, 5:
		var observer obs.Sink
		if i == 5 {
			observer = obs.NewRecorder() // as fleet.New wires each shard
		}
		inst, err := newInstance(r.name, instanceConfig(i >= 4, observer))
		if err != nil {
			return nil, err
		}
		r.t = callTarget{inst.Call}
	case 6, 7:
		f, err := newFleet(1, i == 7)
		if err != nil {
			return nil, err
		}
		r.t = fleetTarget{f}
	case 8:
		srv, err := startServe(serveBin, 1, true)
		if err != nil {
			return nil, err
		}
		c, err := srv.dial()
		if err != nil {
			srv.stop()
			return nil, err
		}
		r.t = c
		r.stop = func() error { c.close(); return srv.stop() }
	}
	return r, nil
}

// ---- the traced rig ------------------------------------------------------

// layerCounts are the exact per-op work counts the rig reads off the
// exported counters around each call.
type layerCounts struct {
	steps, loads, stores, persists, words int64
	traceEvents                           int64
}

func (c layerCounts) minus(o layerCounts) layerCounts {
	return layerCounts{c.steps - o.steps, c.loads - o.loads, c.stores - o.stores,
		c.persists - o.persists, c.words - o.words, c.traceEvents - o.traceEvents}
}

func (c *layerCounts) add(o layerCounts) {
	*c = layerCounts{c.steps + o.steps, c.loads + o.loads, c.stores + o.stores,
		c.persists + o.persists, c.words + o.words, c.traceEvents + o.traceEvents}
}

// tracedRig is a fleet shard set rebuilt from its exported parts, so the
// benchmark can put a span around each layer boundary without touching the
// layers: arthas.Instance per shard (same config the fleet uses), the
// replication shipper and session wired through Config.WrapHooks, and
// Session.Ship called at the fleet's cadence. It has no shard lock: the
// traced run is single-client.
type tracedRig struct {
	tr      *tracer
	insts   []*arthas.Instance
	recs    []*obs.Recorder // each instance's observer, as the fleet wires one per shard
	sess    []*repl.Session
	maxLag  uint64
	shipErr int
	// replRecords and replBytes tally what the shipper was handed, in the
	// stream's wire format: a 6-word header plus the payload words.
	replRecords, replBytes int64
	// base is what the preload left behind, so a phase can report its own.
	base struct{ ckptVersions, replRecords, replBytes int64 }
}

// markBase records the end of the preload.
func (r *tracedRig) markBase() {
	r.base.ckptVersions = r.endState().ckptVersions
	r.base.replRecords, r.base.replBytes = r.replRecords, r.replBytes
}

// traceReads is the read-trace ring's lifetime event count, which the trace
// exports only through its observer.
func (r *tracedRig) traceReads() int64 {
	var n int64
	for _, rec := range r.recs {
		n += rec.CounterValue("trace.read_events")
	}
	return n
}

// replMaxLag is the fleet's default ship cadence.
const replMaxLag = 64

func newTracedRig(tr *tracer, shards int, replicas bool) (*tracedRig, error) {
	r := &tracedRig{tr: tr, maxLag: replMaxLag, sess: make([]*repl.Session, shards)}
	for i := 0; i < shards; i++ {
		i := i
		rec := obs.NewRecorder()
		r.recs = append(r.recs, rec)
		cfg := instanceConfig(true, rec)
		var sh *repl.Shipper
		if replicas {
			sh = repl.NewShipper()
		}
		cfg.WrapHooks = func(inner pmem.Hooks, log *checkpoint.Log) pmem.Hooks {
			h := spanHooks(tr, spHooks, inner, nil)
			if sh != nil {
				h = spanHooks(tr, spReplRecord, sh.WrapHooks(h, log), func(payloadWords int) {
					r.replRecords++
					r.replBytes += int64(8 * (6 + payloadWords))
				})
			}
			return h
		}
		inst, err := newInstance(fmt.Sprintf("traced-shard%d", i), cfg)
		if err != nil {
			return nil, err
		}
		r.insts = append(r.insts, inst)
		r.wireSinks(inst)
		if sh != nil {
			r.sess[i] = repl.NewSession(sh, uint64(i)+1, func() (*pmem.Pool, *checkpoint.Log) {
				return inst.Pool, inst.Log
			})
			if err := r.sess[i].Ship(); err != nil {
				return nil, fmt.Errorf("replica bootstrap: %w", err)
			}
		}
	}
	return r, nil
}

// wireSinks puts a span around the machine's trace and write-lineage sinks.
// A restart replaces the machine, so it must be called again after one.
func (r *tracedRig) wireSinks(inst *arthas.Instance) {
	tr := r.tr
	rec, note := inst.Machine.TraceSink, inst.Machine.WriteSink
	inst.Machine.TraceSink = func(guid int, addr uint64) {
		tr.begin(spTraceRecord)
		rec(guid, addr)
		tr.end()
	}
	inst.Machine.WriteSink = func(guid int, addr uint64) {
		tr.begin(spNoteWrite)
		note(guid, addr)
		tr.end()
	}
}

// spanHooks puts a span named name around every hook of h. note, when
// non-nil, is told the payload size of each event (0 for events that carry
// no data).
func spanHooks(tr *tracer, name spanName, h pmem.Hooks, note func(payloadWords int)) pmem.Hooks {
	around := func(payloadWords int, call func()) {
		tr.begin(name)
		call()
		tr.end()
		if note != nil {
			note(payloadWords)
		}
	}
	return pmem.Hooks{
		OnPersist:  func(a uint64, d []uint64) { around(len(d), func() { h.OnPersist(a, d) }) },
		OnTxBegin:  func() { around(0, h.OnTxBegin) },
		OnTxCommit: func() { around(0, h.OnTxCommit) },
		OnAlloc:    func(a uint64, w int) { around(0, func() { h.OnAlloc(a, w) }) },
		OnFree:     func(a uint64, w int) { around(0, func() { h.OnFree(a, w) }) },
		OnZero: func(a uint64, w int) {
			if h.OnZero != nil { // the checkpoint log alone has no OnZero
				around(0, func() { h.OnZero(a, w) })
			}
		},
	}
}

// do serves one request the way Shard.do does — route, call, ship if due —
// with a span around each step.
func (r *tracedRig) do(o op) (int64, error) {
	tr := r.tr
	tr.begin(spReq)
	shard := shardOf(o.key, len(r.insts))
	inst := r.insts[shard]
	tr.begin(spCall)
	v, err := callTarget{inst.Call}.do(o)
	tr.end()
	if s := r.sess[shard]; err == nil && s != nil && s.Due(r.maxLag) {
		tr.begin(spReplShip)
		if s.Ship() != nil {
			r.shipErr++
		}
		tr.end()
	}
	tr.end()
	return v, err
}

// counts sums the exported work counters over the rig's shards.
func (r *tracedRig) counts() layerCounts {
	var c layerCounts
	for _, inst := range r.insts {
		st := inst.Pool.Stats()
		c.steps += inst.Machine.Steps()
		c.loads += int64(st.Loads)
		c.stores += int64(st.Stores)
		c.persists += int64(st.Persists)
		c.words += int64(st.PersistedWords.Words)
		c.traceEvents += int64(inst.Trace.Len())
	}
	return c
}

// endState reports what the layers retain at the end of a phase.
type endState struct {
	ckptEntries, ckptVersions int64
	traceLen                  int64
	redundantRatio            float64
	repl                      repl.Status
}

func (r *tracedRig) endState() endState {
	var e endState
	var persisted, redundant uint64
	for i, inst := range r.insts {
		e.ckptEntries += int64(inst.Log.NumEntries())
		e.ckptVersions += int64(inst.Log.TotalVersions())
		e.traceLen += int64(inst.Trace.Len())
		ps := inst.Prov.Stats()
		persisted += ps.PersistedWords
		redundant += ps.RedundantPersists
		if s := r.sess[i]; s != nil {
			st := s.Status()
			e.repl.Ships += st.Ships
			e.repl.Records += st.Records
			e.repl.Resyncs += st.Resyncs
			if st.Lag > e.repl.Lag {
				e.repl.Lag = st.Lag
			}
		}
	}
	if persisted > 0 {
		e.redundantRatio = float64(redundant) / float64(persisted)
	}
	return e
}

// ---- probes: the cost of one layer operation, in isolation ---------------

// probeSource is PM-free PML: what it costs to interpret, with no pool work.
const probeSource = `
fn nop() {
    return 0;
}

fn spin(n) {
    var i = 0;
    var s = 0;
    while (i < n) {
        s = s + i;
        i = i + 1;
    }
    return s;
}
`

// perOp times fn (which performs n operations) and returns ns per op. The
// operations are timed as one block, so the timer is not in the number, and
// after a collection, so no probe pays for marking the previous one's garbage
// (trace.record_ns read 54 or 300 ns depending on that).
func perOp(n int, fn func()) float64 {
	runtime.GC()
	t0 := time.Now()
	fn()
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// runProbes measures the cost of one operation of one layer in isolation,
// as a mean over probeN operations, and records each as a per-layer metric
// with its sample count.
func runProbes(res *result, probeN int) error {
	var sink int64

	res.setN("bench.timer_ns", perOp(probeN, func() {
		for i := 0; i < probeN; i++ {
			sink += time.Since(time.Now()).Nanoseconds()
		}
	}), probeN)

	// vm: interpretation alone.
	mod, err := ir.CompileSource("probe", probeSource)
	if err != nil {
		return err
	}
	m := vm.New(mod, pmem.New(64), vm.Config{StepLimit: 1 << 40})
	before := m.Steps()
	var trap *vm.Trap
	spin := perOp(1, func() { _, trap = m.Call("spin", int64(2*probeN)) })
	if trap != nil {
		return fmt.Errorf("vm probe: %w", trap)
	}
	steps := m.Steps() - before
	res.setN("vm.step_ns", spin/float64(steps), int(steps))
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	res.setN("vm.call_ns", perOp(probeN, func() {
		for i := 0; i < probeN; i++ {
			m.Call("nop")
		}
	}), probeN)
	runtime.ReadMemStats(&ms1)
	res.set("vm.allocs_per_call", float64(ms1.Mallocs-ms0.Mallocs)/float64(probeN))

	// pmem: hookless pool, seals on (the default).
	pool := pmem.New(poolWords)
	base, err := pool.Alloc(4096)
	if err != nil {
		return err
	}
	storeNs := perOp(probeN, func() {
		for i := 0; i < probeN; i++ {
			pool.Store(base+uint64(i&4095), uint64(i)) //nolint:errcheck // in-bounds by construction
		}
	})
	res.setN("pmem.store_ns", storeNs, probeN)
	if err := pool.Persist(base, 4096); err != nil {
		return err
	}
	res.setN("pmem.load_ns", perOp(probeN, func() {
		for i := 0; i < probeN; i++ {
			v, _ := pool.Load(base + uint64(i&4095))
			sink += int64(v)
		}
	}), probeN)
	for _, words := range []int{1, 4} {
		ns := perOp(probeN, func() {
			for i := 0; i < probeN; i++ {
				a := base + uint64((i*4)&4095)
				pool.Store(a, uint64(i)) //nolint:errcheck // in-bounds
				pool.Persist(a, words)   //nolint:errcheck // in-bounds
			}
		})
		res.setN(fmt.Sprintf("pmem.persist%d_ns", words), ns-storeNs, probeN)
	}
	var aerr error
	res.setN("pmem.alloc_free_ns", perOp(probeN, func() {
		for i := 0; i < probeN && aerr == nil; i++ {
			var a uint64
			if a, aerr = pool.Alloc(4); aerr == nil {
				aerr = pool.Free(a)
			}
		}
	}), probeN)
	if aerr != nil {
		return fmt.Errorf("alloc probe: %w", aerr)
	}
	const heavy = 20
	res.setN("pmem.fork_us", perOp(heavy, func() {
		for i := 0; i < heavy; i++ {
			sink += int64(pool.Fork().Words())
		}
	})/1e3, heavy)
	res.setN("pmem.crash_ms", perOp(heavy, func() {
		for i := 0; i < heavy; i++ {
			pool.Crash()
		}
	})/1e6, heavy)

	// checkpoint: the persist hook on 4-word ranges of 1024 addresses, then
	// reverting the newest versions one by one.
	log := checkpoint.NewLog(0)
	hooks := log.Hooks()
	data := []uint64{1, 2, 3, 4}
	res.setN("checkpoint.hook_ns_per_persist", perOp(probeN, func() {
		for i := 0; i < probeN; i++ {
			hooks.OnPersist(base+uint64((i&1023)*4), data)
		}
	}), probeN)
	const reverts = 512
	seq := log.Seq()
	var rerr error
	res.setN("checkpoint.revert_us", perOp(reverts, func() {
		for i := uint64(0); i < reverts && rerr == nil; i++ {
			_, rerr = log.Revert(pool, seq-i)
		}
	})/1e3, reverts)
	if rerr != nil {
		return fmt.Errorf("revert probe: %w", rerr)
	}

	// trace: recording, and the first query (which builds the index).
	// Recording is an append to a growing slice, so its cost is the memory
	// system's and varies twofold between fresh traces: median of five.
	var tr *trace.Trace
	var recordNs [5]float64
	for r := range recordNs {
		tr = trace.New()
		recordNs[r] = perOp(probeN, func() {
			for i := 0; i < probeN; i++ {
				tr.Record(i&31, base+uint64(i&4095))
			}
		})
	}
	res.setN("trace.record_ns", median(recordNs[:]), probeN)
	res.setN("trace.index_ms", perOp(1, func() { sink += int64(len(tr.AddrsOfGUID(7))) })/1e6, 1)

	// provenance: the per-store lineage note.
	idx := provenance.New()
	res.setN("provenance.notewrite_ns", perOp(probeN, func() {
		for i := 0; i < probeN; i++ {
			idx.NoteWrite(i&31, base+uint64(i&4095))
		}
	}), probeN)

	// repl: one ship of a full lag window of persist records.
	if err := probeShip(res); err != nil {
		return err
	}

	// setup: what building a shard costs, stage by stage.
	const builds = 5
	res.setN("setup.compile_ms", perOp(builds, func() {
		for i := 0; i < builds && err == nil; i++ {
			_, err = ir.CompileSource("kv", fleet.KVSource)
		}
	})/1e6, builds)
	if err != nil {
		return err
	}
	res.setN("setup.new_instance_ms", perOp(builds, func() {
		for i := 0; i < builds && err == nil; i++ {
			_, err = newInstance("probe", instanceConfig(true, nil))
		}
	})/1e6, builds)
	if err != nil {
		return err
	}
	res.setN("setup.analyze_ms", probeAnalyze(builds), builds)
	runtime.KeepAlive(sink)
	return nil
}

func probeShip(res *result) error {
	pool := pmem.New(poolWords)
	log := checkpoint.NewLog(0)
	sh := repl.NewShipper()
	pool.SetHooks(sh.WrapHooks(log.Hooks(), log))
	base, err := pool.Alloc(4096)
	if err != nil {
		return err
	}
	sess := repl.NewSession(sh, 1, func() (*pmem.Pool, *checkpoint.Log) { return pool, log })
	if err := sess.Ship(); err != nil { // bootstrap snapshot, not timed
		return err
	}
	const ships = 200
	var total time.Duration
	for s := 0; s < ships; s++ {
		for i := 0; i < replMaxLag; i++ {
			a := base + uint64(((s*replMaxLag+i)*4)&4095)
			pool.Store(a, uint64(i)) //nolint:errcheck // in-bounds
			pool.Persist(a, 2)       //nolint:errcheck // in-bounds
		}
		t0 := time.Now()
		if err := sess.Ship(); err != nil {
			return err
		}
		total += time.Since(t0)
	}
	if st := sess.Status(); st.Resyncs != 1 || st.Lag != 0 {
		return fmt.Errorf("ship probe: resyncs=%d lag=%d, want 1 and 0", st.Resyncs, st.Lag)
	}
	res.setN("repl.ship_us", float64(total.Nanoseconds())/ships/1e3, ships)
	return nil
}

// probeAnalyze times the static analyzer (PM-variable identification, trace
// instrumentation, dependence graph) on the KV program, in ms per module.
func probeAnalyze(n int) float64 {
	mods := make([]*ir.Module, n)
	for i := range mods {
		mods[i], _ = ir.CompileSource("kv", fleet.KVSource) // compiled once already
	}
	return perOp(n, func() {
		for _, mod := range mods {
			analysis.Analyze(mod)
		}
	}) / 1e6
}

// errTrap unwraps a fleet error to the trap kind, for failure messages.
func errTrap(err error) string {
	var te *fleet.TrapError
	if errors.As(err, &te) {
		return "trap: " + te.Error()
	}
	return fleet.ErrClass(err) + ": " + err.Error()
}
