// Package arthas is the public face of this repository: a from-scratch Go
// reproduction of "Understanding and Dealing with Hard Faults in Persistent
// Memory Systems" (Choi, Burns, Huang — EuroSys 2021).
//
// Arthas recovers persistent-memory systems from *hard faults*: bad values
// that were persisted and therefore survive restart, turning classically
// "soft" bugs (races, overflows, bit flips, leaks) into recurring failures.
// The toolchain (paper Figure 4) is:
//
//	analyzer   — static analysis of the target program: PM-variable
//	             identification, trace instrumentation (GUIDs), and an
//	             inter-procedural Program Dependence Graph
//	checkpoint — fine-grained versioning of PM updates at the program's own
//	             persistence granularity and timing
//	detector   — failure monitoring with cross-restart similarity heuristics
//	reactor    — backward slicing of the fault instruction(s), mapping slice
//	             nodes through the dynamic PM address trace to checkpoint
//	             sequence numbers, and revert+re-execute until healthy
//
// Target programs are written in PML, a small C-like language whose
// runtime provides simulated persistent memory with PMDK-like semantics
// (pmalloc/persist/txbegin/txcommit/setroot; stores are volatile until
// persisted; crashes drop unflushed stores). See DESIGN.md for the full
// substitution map from the paper's C/LLVM/Optane stack to this one.
//
// The smallest useful loop:
//
//	inst, _ := arthas.New("demo", demoSource, arthas.Config{})
//	inst.Call("put", 1, 42)
//	if _, trap := inst.Call("get", 1); trap != nil {
//	    inst.Observe(trap)                    // detector: is it hard?
//	    rep, _ := inst.Mitigate(func(on *arthas.Instance) *arthas.Trap {
//	        on.Restart()                      // on: a fork, or the live instance
//	        _, t := on.Call("get", 1)
//	        return t
//	    })
//	    fmt.Println(rep.Recovered)
//	}
package arthas

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"arthas/internal/analysis"
	"arthas/internal/checkpoint"
	"arthas/internal/detector"
	"arthas/internal/ir"
	"arthas/internal/obs"
	"arthas/internal/opt"
	"arthas/internal/pmem"
	"arthas/internal/provenance"
	"arthas/internal/reactor"
	"arthas/internal/scrub"
	"arthas/internal/trace"
	"arthas/internal/vm"
)

// Re-exported core types, so callers need only this package.
type (
	// Trap describes a failed PML execution (fault instruction + stack).
	Trap = vm.Trap
	// Report summarizes a mitigation run.
	Report = reactor.Report
	// LeakReport summarizes a leak mitigation (§4.7).
	LeakReport = reactor.LeakReport
	// Signature is a detector failure signature (§4.3).
	Signature = detector.Signature
	// Mode selects purge vs rollback reversion (§4.4).
	Mode = reactor.Mode
	// ScrubReport summarizes a media-scrub pass (docs/MEDIA_FAULTS.md).
	ScrubReport = scrub.Report
	// Incident is an end-to-end incident report (`arthas-incident/v1`).
	Incident = provenance.Incident
)

// Reversion modes.
const (
	ModePurge    = reactor.ModePurge
	ModeRollback = reactor.ModeRollback
)

// Trap kinds (vm package re-exports).
const (
	TrapSegfault     = vm.TrapSegfault
	TrapAssert       = vm.TrapAssert
	TrapUserFail     = vm.TrapUserFail
	TrapHang         = vm.TrapStepLimit
	TrapDeadlock     = vm.TrapDeadlock
	TrapPMFull       = vm.TrapPMOutOfSpace
	TrapMediaCorrupt = vm.TrapMediaCorrupt
)

// ErrMediaCorrupt is the pmem media-corruption sentinel, re-exported so
// callers can errors.Is against traps and open errors without importing
// internal packages.
var ErrMediaCorrupt = pmem.ErrMediaCorrupt

// LifecycleEvent identifies one Instance state transition, delivered to
// Config.OnLifecycle. Fleet managers (internal/fleet) use these to track
// per-shard serving state without wrapping every Instance entry point.
type LifecycleEvent string

// Lifecycle events, in the order a mitigating instance emits them.
const (
	// EventBoot fires once when the instance first comes up (New/Open).
	EventBoot LifecycleEvent = "boot"
	// EventRestart fires on every Restart — including the restarts a
	// mitigation's re-execution script performs.
	EventRestart LifecycleEvent = "restart"
	// EventMitigateStart/End bracket a reactor mitigation.
	EventMitigateStart LifecycleEvent = "mitigate-start"
	EventMitigateEnd   LifecycleEvent = "mitigate-end"
	// EventScrubStart/End bracket a media-scrub pass (explicit Scrub calls
	// and the reactor's scrub-then-retry hook alike).
	EventScrubStart LifecycleEvent = "scrub-start"
	EventScrubEnd   LifecycleEvent = "scrub-end"
)

// Layers is a set of toolchain layers (paper Figure 4).
type Layers uint8

// The layers Config.Detach can leave out.
const (
	// LayerAnalysis is the static analyzer: PM-variable identification, GUID
	// instrumentation of the module, and the program dependence graph.
	LayerAnalysis Layers = 1 << iota
	// LayerCheckpoint is the checkpoint log on the pool's persistence hooks.
	LayerCheckpoint
	// LayerTrace is the PM address trace the instrumented program feeds.
	LayerTrace
	// AllLayers detached leaves the vanilla system: compiled and run, nothing else.
	AllLayers = LayerAnalysis | LayerCheckpoint | LayerTrace
)

func (l Layers) String() string {
	var names []string
	for bit, name := range []string{"analysis", "checkpoint", "trace"} {
		if l&(1<<bit) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, "+")
}

// Config tunes an Instance.
type Config struct {
	// PoolWords sizes the simulated PM pool (default 1<<16 words).
	PoolWords int
	// MaxVersions per checkpoint entry (paper default 3).
	MaxVersions int
	// StepLimit per call: the hang-detection budget (default 5M).
	StepLimit int64
	// RecoverFn names the annotated recovery entry point run by Restart
	// (optional; use recover_begin()/recover_end() inside it to enable
	// leak mitigation).
	RecoverFn string
	// RestartLatency simulates the fixed cost of a real process restart
	// (exec, PM pool remap, recovery scan) that the instant in-memory
	// Restart otherwise hides. Mitigation re-executes the system once per
	// candidate reversion, so this latency dominates real mitigation time;
	// trials running Reactor.Workers at a time overlap it. 0 (the default)
	// keeps Restart instant.
	RestartLatency time.Duration
	// Reactor configures the mitigation strategy (defaults to purge-first
	// with rollback fallback, one-by-one reversion).
	Reactor reactor.Config
	// Observer, when non-nil, receives telemetry from every layer of the
	// instance (pool, checkpoint log, trace, VM, detector, reactor). Use
	// an *obs.Recorder and its WriteJSONL/Summary to export. Survives
	// Restart: each fresh machine is rewired to the same sink.
	Observer obs.Sink
	// FlightEvents, when > 0, enables the crash-surviving flight recorder:
	// a ring buffer of the last FlightEvents telemetry events, fed by the
	// same call sites as Observer and embedded in pool images by SaveImage/
	// SavePool, so a saved -poolfile carries the event tail that led up to
	// a failure (inspect with cmd/arthas-inspect). Opening an image that
	// already carries a tail continues recording into it. 0 disables (the
	// zero-cost default for library embedding).
	FlightEvents int
	// Provenance attaches the per-word write-lineage index: every
	// instrumented PM store and every persistence event stamps last-writer
	// provenance, and a mitigation's Report can be assembled into an
	// `arthas-incident/v1` report with BuildIncident. Off by default (the
	// disabled path costs one nil-check per store, as with tracing).
	Provenance bool
	// OnLifecycle, when non-nil, receives instance state transitions
	// (boot, restart, mitigate, scrub) synchronously from the goroutine
	// driving the instance. Keep it cheap and non-blocking; it is how a
	// fleet manager mirrors shard state without touching internals.
	OnLifecycle func(LifecycleEvent)
	// Optimize runs the flush/fence-elimination pass (internal/opt) on the
	// compiled module before analysis and instrumentation. The optimized
	// program reaches every crash-visible durability point with the same
	// durable state as the original (torture-proven; see docs/OPTIMIZER.md).
	// Off by default. Instance.OptStats reports what the pass did.
	Optimize bool
	// WrapHooks, when non-nil, wraps the persistence hooks installed on the
	// pool — outermost, over the checkpoint log's hooks and any provenance
	// wrapping. The replication shipper (internal/repl) uses it to observe
	// every durability event; wrapped hooks MUST invoke the inner ones.
	// Speculative mitigation forks are never wrapped: fork probes must not
	// leak into the replication stream.
	WrapHooks func(pmem.Hooks, *checkpoint.Log) pmem.Hooks
	// ScrubSource, when non-nil, gives the media scrubber an out-of-pool
	// repair source (typically a replica's durable image): a corrupt block
	// the checkpoint log cannot prove locally is fetched from the source
	// and committed only when the stored seal proves it is the original
	// contents (docs/REPLICATION.md).
	ScrubSource scrub.BlockSource
	// Detach names toolchain layers to leave unattached: the paper's
	// overhead split (Figure 12 / Table 8: vanilla, checkpoint-only,
	// instrumentation-only) and the pmCRIU / ArCkpt baselines run the same
	// systems under part of the toolchain. The zero value is the full
	// toolchain. A detached layer costs a request nothing: Log and Trace are
	// still allocated, but no pool hook or machine sink feeds them; without
	// LayerAnalysis the module carries no GUIDs and Analysis is nil.
	// Operations that need a detached layer (mitigation, SaveImage) return
	// an error naming it.
	Detach Layers
}

// Instance is a PML system deployed under the Arthas toolchain: compiled,
// analyzed, instrumented, checkpointed, traced, and monitored (all of it
// unless Config.Detach leaves layers out). It is the one place the toolchain
// is assembled: the fleet, the torture sweeps, the fault cases, the overhead
// experiments and every command run on it.
type Instance struct {
	Name string
	// Exposed components for advanced use and experiments.
	Module *ir.Module
	// Analysis is nil when LayerAnalysis is detached.
	Analysis *analysis.Result
	Pool     *pmem.Pool
	Log      *checkpoint.Log
	Trace    *trace.Trace
	Machine  *vm.Machine
	Detector *detector.Detector
	// Flight is the crash-surviving flight recorder (nil unless enabled by
	// Config.FlightEvents or recovered from a reopened image).
	Flight *obs.Flight
	// LastScrub is the most recent media-scrub report: set by Scrub, by the
	// reactor's scrub-then-retry hook, and by Open/OpenImage auto-healing a
	// corrupt image. Nil until a scrub has run.
	LastScrub *ScrubReport
	// Prov is the write-lineage index (nil unless Config.Provenance).
	Prov *provenance.Index
	// OptStats reports what the optimizer removed (nil unless
	// Config.Optimize).
	OptStats *opt.Stats

	cfg        Config
	obsSink    obs.Sink // Observer + Flight fan-out, wired into every layer
	lastTrap   *Trap
	mitigating atomic.Bool
}

// New compiles source, runs the static analyzer (instrumenting the module
// with trace GUIDs), creates a pool with the checkpoint log attached, and
// boots the VM.
func New(name, source string, cfg Config) (*Instance, error) {
	return build(name, source, cfg, restored{})
}

// Open is New against an existing pool file (the pmem_map_file analogue):
// the durable image is reloaded, so the program's recovery path — not its
// init path — should run next. The checkpoint log starts empty, exactly as
// after a real restart of the paper's toolchain: history before the reopen
// is not revertible, history after is.
//
// Media corruption detected at open time is auto-healed: a bare pool file
// carries no checkpoint log, so the scrubber repairs what structure alone
// proves and quarantines the rest — the pool opens degraded rather than
// failing. Inspect Instance.LastScrub for what happened; use OpenImage for
// log-assisted repair.
func Open(name, source string, cfg Config, poolFile io.Reader) (*Instance, error) {
	from := restored{}
	var err error
	if from.pool, err = pmem.ReadPool(poolFile); err != nil {
		var merr *pmem.MediaError
		if !errors.As(err, &merr) || from.pool == nil {
			return nil, fmt.Errorf("arthas: %w", err)
		}
		from.scrub = scrub.Repair(from.pool, nil, obs.OrNop(cfg.Observer))
		if !from.scrub.Healthy() {
			return nil, fmt.Errorf("arthas: pool unscrubbable (%s): %w", from.scrub, err)
		}
	}
	return build(name, source, cfg, from)
}

// SavePool writes the durable image to w; reopen with Open. Unpersisted
// stores do not travel (crash semantics).
func (i *Instance) SavePool(w io.Writer) error {
	_, err := i.Pool.WriteTo(w)
	return err
}

// restored is durable state read back from a pool file or image; build
// creates whatever is nil. scrub is the open-time healing pass, if one ran.
type restored struct {
	pool  *pmem.Pool
	log   *checkpoint.Log
	trace *trace.Trace
	scrub *ScrubReport
}

func build(name, source string, cfg Config, from restored) (*Instance, error) {
	if cfg.PoolWords == 0 {
		cfg.PoolWords = 1 << 16
	}
	if cfg.StepLimit == 0 {
		cfg.StepLimit = 5_000_000
	}
	if cfg.Reactor.MaxAttempts == 0 {
		workers := cfg.Reactor.Workers
		cfg.Reactor = reactor.DefaultConfig()
		cfg.Reactor.Workers = workers
	}
	mod, err := ir.CompileSource(name, source)
	if err != nil {
		return nil, fmt.Errorf("arthas: %w", err)
	}
	var optStats *opt.Stats
	if cfg.Optimize {
		if optStats, err = opt.Optimize(mod); err != nil {
			return nil, fmt.Errorf("arthas: %w", err)
		}
	}
	inst := &Instance{
		Name:      name,
		Module:    mod,
		Pool:      from.pool,
		Log:       from.log,
		Trace:     from.trace,
		Detector:  detector.New(),
		LastScrub: from.scrub,
		OptStats:  optStats,
		cfg:       cfg,
	}
	if cfg.Detach&LayerAnalysis == 0 {
		inst.Analysis = analysis.Analyze(mod)
	}
	if inst.Pool == nil {
		inst.Pool = pmem.New(cfg.PoolWords)
	}
	if inst.Log == nil {
		inst.Log = checkpoint.NewLog(cfg.MaxVersions)
	}
	if inst.Trace == nil {
		inst.Trace = trace.New()
	}
	// Flight recorder: prefer a tail recovered from a reopened image (the
	// recording continues where the crashed process stopped); otherwise
	// create one when enabled. The pool embeds it in saved images either
	// way, so forensic history is never silently dropped.
	inst.Flight = inst.Pool.Flight()
	if inst.Flight == nil && cfg.FlightEvents > 0 {
		inst.Flight = obs.NewFlight(cfg.FlightEvents)
		inst.Pool.AttachFlight(inst.Flight)
	}
	if cfg.Provenance {
		inst.Prov = provenance.New()
		inst.Detector.Lineage = inst.lineage
	}
	inst.SetObserver(cfg.Observer)
	inst.attach()
	inst.lifecycle(EventBoot)
	return inst, nil
}

// attach installs the pool's persistence hooks for the layers the config
// keeps — checkpoint log innermost, provenance over it, Config.WrapHooks (the
// replication shipper's tap) outermost — and boots the first machine. New,
// Open, OpenImage and Fork all wire their instance here and nowhere else.
func (i *Instance) attach() {
	var h pmem.Hooks
	if i.cfg.Detach&LayerCheckpoint == 0 {
		h = i.Log.Hooks()
	}
	if i.Prov != nil {
		h = i.Prov.WrapHooks(h, i.Log)
	}
	if i.cfg.WrapHooks != nil {
		h = i.cfg.WrapHooks(h, i.Log)
	}
	i.Pool.SetHooks(h)
	i.boot()
}

// Fork returns an isolated speculative copy of the instance: a copy-on-write
// fork of the pool, a fork of the checkpoint log wired to it, and a machine
// of its own, sharing the compiled module and analysis read-only. What a
// fork does stays in the fork — it records no address trace and no lineage,
// has no observer or flight recorder, is never wrapped by Config.WrapHooks
// (fork probes must not leak into the replication stream) and fires no
// lifecycle events — so the reactor can run one probe on the live instance
// and on any number of forks concurrently (docs/PARALLEL_MITIGATION.md). A
// winning fork's pool is promoted by the reactor, never by the fork. Safe to
// call from several goroutines while the parent is idle; the parent must not
// itself be a fork.
func (i *Instance) Fork() *Instance {
	f := &Instance{
		Name:     i.Name,
		Module:   i.Module,
		Analysis: i.Analysis,
		Pool:     i.Pool.Fork(),
		Log:      i.Log.Fork(),
		Trace:    trace.NewWithoutReads(),
		Detector: detector.New(),
		OptStats: i.OptStats,
		obsSink:  obs.Nop(),
		cfg: Config{
			StepLimit:      i.cfg.StepLimit,
			RecoverFn:      i.cfg.RecoverFn,
			RestartLatency: i.cfg.RestartLatency,
			ScrubSource:    i.cfg.ScrubSource,
			Detach:         i.cfg.Detach | LayerTrace,
		},
	}
	f.Detector.LeakThresholdPct = i.Detector.LeakThresholdPct
	f.attach()
	return f
}

// need reports, as an error naming them, the layers among l that this
// instance was built without.
func (i *Instance) need(op string, l Layers) error {
	if missing := i.cfg.Detach & l; missing != 0 {
		return fmt.Errorf("arthas: %s needs the %s layer (Config.Detach)", op, missing)
	}
	return nil
}

// lineage is the detector's and scrubber's last-writer lookup (Prov != nil).
func (i *Instance) lineage(addr uint64) (int, bool) {
	rec, ok := i.Prov.Lookup(addr)
	return rec.GUID, ok
}

// lifecycle delivers ev to Config.OnLifecycle when wired.
func (i *Instance) lifecycle(ev LifecycleEvent) {
	if i.cfg.OnLifecycle != nil {
		i.cfg.OnLifecycle(ev)
	}
}

// Health snapshots the instance's serving health: media degradation and
// quarantine from the pool, plus whether a mitigation is in flight. Safe to
// call from other goroutines (debug endpoints, fleet health aggregation).
func (i *Instance) Health() obs.HealthState {
	return obs.HealthState{
		Degraded:          i.Pool.MediaDegraded(),
		QuarantinedBlocks: len(i.Pool.QuarantinedBlocks()),
		Mitigating:        i.Mitigating(),
	}
}

func (i *Instance) boot() {
	i.Machine = vm.New(i.Module, i.Pool, vm.Config{StepLimit: i.cfg.StepLimit})
	i.Machine.SetSink(i.obsSink)
	i.Machine.ObsFlush = i.flushObs
	if i.cfg.Detach&LayerTrace == 0 {
		i.Machine.TraceSink = i.Trace.Record
		i.Machine.TraceReadSink = i.Trace.RecordRead
	}
	if i.Prov != nil {
		i.Machine.WriteSink = i.Prov.NoteWrite
		i.Prov.SetClock(i.Machine.Steps)
	}
}

// flushObs publishes the tallies the layers under the machine keep per word
// (see pmem.Pool.FlushObs). The machine runs it at the end of every Call;
// restart, mitigation and scrub run it on entry, so that activity which
// bypassed the machine (fault injection, programs driving Pool directly) is
// published before their own events.
func (i *Instance) flushObs() {
	i.Pool.FlushObs()
	i.Log.FlushObs()
	if i.Prov != nil {
		i.Prov.FlushObs()
	}
	i.Trace.FlushObs()
}

// SetObserver installs (or clears, with nil) an observability sink on every
// layer of the instance. A logical clock reading the machine's step counter
// is wired into recorders, so spans carry logical time alongside wall time.
// The flight recorder, when present, always rides along: every layer's
// events also land in the crash-surviving ring buffer.
func (i *Instance) SetObserver(s obs.Sink) {
	i.cfg.Observer = s
	eff := obs.OrNop(s)
	if i.Flight != nil {
		eff = obs.Multi(eff, i.Flight)
	}
	i.obsSink = eff
	obs.WireClock(eff, func() int64 {
		if i.Machine == nil {
			return 0
		}
		return i.Machine.Steps()
	})
	i.Pool.SetSink(eff)
	i.Log.SetSink(eff)
	i.Trace.SetSink(eff)
	i.Detector.SetSink(eff)
	if i.Prov != nil {
		i.Prov.SetSink(eff)
	}
	if i.Machine != nil {
		i.Machine.SetSink(eff)
	}
}

// Scrub runs a full media-scrub pass over the pool: every poisoned word with
// a checkpointed value is repaired from the checkpoint log, unreconstructible
// blocks are quarantined, and allocator metadata is re-recovered. The report
// is also stored in LastScrub. A non-nil error means the pool is structurally
// unhealthy even after the pass.
func (i *Instance) Scrub() (*ScrubReport, error) {
	i.lifecycle(EventScrubStart)
	defer i.lifecycle(EventScrubEnd)
	i.flushObs()
	var lineage scrub.LineageFunc
	if i.Prov != nil {
		lineage = i.lineage
	}
	rep := scrub.RepairWithLineageFrom(i.Pool, i.Log, i.obsSink, lineage, i.cfg.ScrubSource)
	i.LastScrub = rep
	if !rep.Healthy() {
		return rep, fmt.Errorf("arthas: pool unhealthy after scrub: %s", rep)
	}
	return rep, nil
}

// MediaSuspected reports whether any media block's checksum mismatches.
func (i *Instance) MediaSuspected() bool { return i.Detector.CheckMedia(i.Pool) }

// Call invokes a PML function with int64 arguments.
func (i *Instance) Call(fn string, args ...int64) (int64, *Trap) {
	return i.Machine.Call(fn, args...)
}

// Restart simulates process kill + restart: unpersisted stores are lost,
// volatile state is dropped, and the configured recovery function runs.
func (i *Instance) Restart() *Trap {
	i.lifecycle(EventRestart)
	if i.cfg.RestartLatency > 0 {
		time.Sleep(i.cfg.RestartLatency)
	}
	i.flushObs()
	i.Pool.Crash()
	i.boot()
	if i.cfg.RecoverFn != "" {
		if _, trap := i.Machine.Call(i.cfg.RecoverFn); trap != nil {
			return trap
		}
	}
	return nil
}

// Observe feeds a failure to the detector; it returns the signature and
// whether a similar failure was already seen (a suspected hard fault).
func (i *Instance) Observe(trap *Trap) (Signature, bool) {
	i.lastTrap = trap
	return i.Detector.Observe(trap)
}

// LastTrap returns the most recently observed failure.
func (i *Instance) LastTrap() *Trap { return i.lastTrap }

// Probe is a re-execution script (paper §4.5): restart the instance it is
// handed, reproduce the failing operation, and return nil when the system is
// healthy. The reactor runs every reversion trial's probe on a Fork — up to
// Config.Reactor.Workers at a time — and confirms the winner on the live
// instance, so a probe must reach the system only through its argument.
type Probe func(*Instance) *Trap

// CallProbe is the common probe: restart, then re-issue the failing call.
func CallProbe(fn string, args ...int64) Probe {
	return func(on *Instance) *Trap {
		if trap := on.Restart(); trap != nil {
			return trap
		}
		_, trap := on.Call(fn, args...)
		return trap
	}
}

// Mitigate runs the reactor workflow (slice → candidates → revert →
// re-execute) for the most recently observed failure. probe must restart the
// instance it is handed and reproduce the failing operation, returning nil
// when the system is healthy (docs/PARALLEL_MITIGATION.md).
func (i *Instance) Mitigate(probe Probe) (*Report, error) {
	if i.lastTrap == nil {
		return nil, fmt.Errorf("arthas: no observed failure; call Observe first")
	}
	return i.MitigateProbe(trapInstrs(i.lastTrap), i.lastTrap.Kind == vm.TrapSegfault, probe)
}

// MitigateCall is Mitigate specialized to the common re-execution script
// "restart, then re-issue one call".
func (i *Instance) MitigateCall(fn string, args ...int64) (*Report, error) {
	return i.Mitigate(CallProbe(fn, args...))
}

// MitigateProbe is the general form the two above adapt to: explicit fault
// instructions — for failures (data loss, wrong results) that have no
// trapping instruction, typically the serving function's returns
// (RetInstrs) — and whether the failure was an invalid address at them (the
// slicer then follows pointer rather than content dependencies). It is the
// one entry to the reactor: it assembles the context — the layers, the
// fault, the probe on the live instance, the fork factory, scrub-then-retry
// and the media monitor, telemetry — and runs it with the in-flight flag
// raised, so health probes (obs.HealthState.Mitigating via Mitigating) see
// the window.
func (i *Instance) MitigateProbe(faults []*ir.Instr, addrFault bool, probe Probe) (*Report, error) {
	if err := i.need("mitigation", AllLayers); err != nil {
		return nil, err
	}
	ctx := &reactor.Context{
		Analysis:  i.Analysis,
		Trace:     i.Trace,
		Log:       i.Log,
		Pool:      i.Pool,
		Faults:    faults,
		AddrFault: addrFault,
		ReExec:    func() *Trap { return probe(i) },
		Scrub: func() error {
			_, err := i.Scrub()
			return err
		},
		MediaSuspect: i.MediaSuspected,
		ForkSession: func() (*reactor.Session, error) {
			f := i.Fork()
			return &reactor.Session{
				Pool:   f.Pool,
				Log:    f.Log,
				ReExec: func() *Trap { return probe(f) },
				Scrub: func() error {
					_, err := f.Scrub()
					return err
				},
			}, nil
		},
		Obs: i.obsSink,
	}
	i.mitigating.Store(true)
	i.lifecycle(EventMitigateStart)
	i.flushObs()
	defer func() {
		i.mitigating.Store(false)
		i.lifecycle(EventMitigateEnd)
	}()
	return reactor.Mitigate(i.cfg.Reactor, ctx), nil
}

// trapInstrs is the fault-instruction list of a trapping failure.
func trapInstrs(trap *Trap) []*ir.Instr {
	if trap.Instr == nil {
		return nil
	}
	return []*ir.Instr{trap.Instr}
}

// Mitigating reports whether a mitigation is currently in flight. Safe to
// call from other goroutines (the debug endpoint's health probe).
func (i *Instance) Mitigating() bool { return i.mitigating.Load() }

// IncidentInput gathers what the instance knows about a completed mitigation
// for an `arthas-incident/v1` report: the last observed failure and its
// signature, the reactor's report, the lineage index (Config.Provenance
// required for non-empty lineage), the checkpoint log, the analysis, and the
// last scrub. Callers that know more (a fault case's metadata, an index
// frozen at failure time) fill that in before provenance.BuildIncident.
func (i *Instance) IncidentInput(rep *Report) provenance.IncidentInput {
	var sig detector.Signature
	if i.lastTrap != nil {
		sig = detector.SignatureOf(i.lastTrap)
	}
	return provenance.IncidentInput{
		Case:      i.Name,
		Signature: sig,
		Trap:      i.lastTrap,
		Report:    rep,
		Index:     i.Prov,
		Log:       i.Log,
		Analysis:  i.Analysis,
		Scrub:     i.LastScrub,
	}
}

// BuildIncident assembles the `arthas-incident/v1` report for a completed
// mitigation from IncidentInput.
func (i *Instance) BuildIncident(rep *Report) *Incident {
	return provenance.BuildIncident(i.IncidentInput(rep))
}

// RetInstrs returns the return instructions of a PML function — the default
// fault instructions for wrong-result failures.
func (i *Instance) RetInstrs(fn string) []*ir.Instr {
	f := i.Module.Func(fn)
	if f == nil {
		return nil
	}
	var out []*ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if in.Op == ir.OpRet {
			out = append(out, in)
		}
	})
	return out
}

// MitigateLeak runs the §4.7 leak workflow: restart, record the annotated
// recovery function's PM access set, diff it against the checkpoint log's
// live allocations, and free the unreachable blocks.
func (i *Instance) MitigateLeak() (*LeakReport, error) {
	if i.cfg.RecoverFn == "" {
		return nil, fmt.Errorf("arthas: leak mitigation needs Config.RecoverFn (annotated with recover_begin/recover_end)")
	}
	if err := i.need("leak mitigation", LayerCheckpoint); err != nil {
		return nil, err
	}
	if trap := i.Restart(); trap != nil {
		return nil, fmt.Errorf("arthas: recovery failed: %v", trap)
	}
	return reactor.MitigateLeak(i.Pool, i.Log, i.Machine.RecoveryAccess, nil), nil
}

// LeakSuspected reports whether PM usage crossed the detector's threshold.
func (i *Instance) LeakSuspected() bool { return i.Detector.CheckLeak(i.Pool) }

// InjectBitFlip flips one bit of a durable PM word — the paper's hardware-
// fault model (§2.4). The flip happens BEFORE write-back in the media
// model, so checksums do not catch it; only checkpoint reversion heals it.
func (i *Instance) InjectBitFlip(addr uint64, bit uint) error {
	return i.Pool.InjectBitFlip(addr, bit, true)
}

// MediaFault describes one injected media corruption (pmem re-export); see
// docs/MEDIA_FAULTS.md for the taxonomy.
type MediaFault = pmem.MediaFault

// Media-fault kinds (pmem re-exports).
const (
	MediaBitFlip     = pmem.MediaBitFlip
	MediaStuckWord   = pmem.MediaStuckWord
	MediaStrayWrite  = pmem.MediaStrayWrite
	MediaBlockPoison = pmem.MediaBlockPoison
)

// InjectMediaFault corrupts durable words AFTER write-back — behind the
// checksums' back — so the next read from the block traps media-corrupt and
// the scrub-then-retry machinery engages.
func (i *Instance) InjectMediaFault(f MediaFault) error {
	_, err := i.Pool.InjectMediaFault(f)
	return err
}

// Stats summarizes the instance for logs.
func (i *Instance) Stats() string {
	var st analysis.Stats
	if i.Analysis != nil {
		st = i.Analysis.Stats()
	}
	return fmt.Sprintf("%s: %d funcs, %d instrs (%d PM), %d PDG edges; pool %d/%d words live; %d checkpointed updates; %d trace events",
		i.Name, st.Functions, st.Instructions, st.PMInstrs, st.PDGEdges,
		i.Pool.LiveWords(), i.Pool.Words(), i.Log.TotalVersions(), i.Trace.Len())
}
