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
//	    rep, _ := inst.Mitigate(func() *arthas.Trap {
//	        inst.Restart()
//	        _, t := inst.Call("get", 1)
//	        return t
//	    })
//	    fmt.Println(rep.Recovered)
//	}
package arthas

import (
	"errors"
	"fmt"
	"io"
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
	// speculative sessions (Reactor.Workers > 1) overlap it. 0 (the
	// default) keeps Restart instant.
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
}

// Instance is a PML system deployed under the full Arthas toolchain:
// compiled, analyzed, instrumented, checkpointed, traced, and monitored.
type Instance struct {
	Name string
	// Exposed components for advanced use and experiments.
	Module   *ir.Module
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
	return build(name, source, cfg, nil)
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
	pool, err := pmem.ReadPool(poolFile)
	if err != nil {
		var merr *pmem.MediaError
		if !errors.As(err, &merr) || pool == nil {
			return nil, fmt.Errorf("arthas: %w", err)
		}
		rep := scrub.Repair(pool, nil, obs.OrNop(cfg.Observer))
		if !rep.Healthy() {
			return nil, fmt.Errorf("arthas: pool unscrubbable (%s): %w", rep, err)
		}
		inst, berr := build(name, source, cfg, pool)
		if berr != nil {
			return nil, berr
		}
		inst.LastScrub = rep
		return inst, nil
	}
	return build(name, source, cfg, pool)
}

// SavePool writes the durable image to w; reopen with Open. Unpersisted
// stores do not travel (crash semantics).
func (i *Instance) SavePool(w io.Writer) error {
	_, err := i.Pool.WriteTo(w)
	return err
}

func build(name, source string, cfg Config, pool *pmem.Pool) (*Instance, error) {
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
	if pool == nil {
		pool = pmem.New(cfg.PoolWords)
	}
	// Flight recorder: prefer a tail recovered from a reopened image (the
	// recording continues where the crashed process stopped); otherwise
	// create one when enabled. The pool embeds it in saved images either
	// way, so forensic history is never silently dropped.
	fl := pool.Flight()
	if fl == nil && cfg.FlightEvents > 0 {
		fl = obs.NewFlight(cfg.FlightEvents)
		pool.AttachFlight(fl)
	}
	inst := &Instance{
		Name:     name,
		Module:   mod,
		Analysis: analysis.Analyze(mod),
		Pool:     pool,
		Log:      checkpoint.NewLog(cfg.MaxVersions),
		Trace:    trace.New(),
		Detector: detector.New(),
		Flight:   fl,
		OptStats: optStats,
		cfg:      cfg,
	}
	inst.Pool.SetHooks(inst.wrapHooks(inst.Log.Hooks()))
	if cfg.Provenance {
		inst.Prov = provenance.New()
		inst.Pool.SetHooks(inst.wrapHooks(inst.Prov.WrapHooks(inst.Log.Hooks(), inst.Log)))
		inst.Detector.Lineage = func(addr uint64) (int, bool) {
			rec, ok := inst.Prov.Lookup(addr)
			return rec.GUID, ok
		}
	}
	inst.SetObserver(cfg.Observer)
	inst.boot()
	inst.lifecycle(EventBoot)
	return inst, nil
}

// wrapHooks applies Config.WrapHooks (the replication shipper's tap)
// outermost over h.
func (i *Instance) wrapHooks(h pmem.Hooks) pmem.Hooks {
	if i.cfg.WrapHooks == nil {
		return h
	}
	return i.cfg.WrapHooks(h, i.Log)
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
	i.Machine.TraceSink = i.Trace.Record
	i.Machine.TraceReadSink = i.Trace.RecordRead
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
		lineage = func(addr uint64) (int, bool) {
			rec, ok := i.Prov.Lookup(addr)
			return rec.GUID, ok
		}
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

// scrubHook adapts Scrub to the reactor's scrub-then-retry contract.
func (i *Instance) scrubHook() func() error {
	return func() error {
		_, err := i.Scrub()
		return err
	}
}

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

// Mitigate runs the reactor workflow (slice → candidates → revert →
// re-execute) for the most recently observed failure. reexec must restart
// the system and reproduce the failing operation, returning nil when the
// system is healthy — the paper's re-execution script.
func (i *Instance) Mitigate(reexec func() *Trap) (*Report, error) {
	if i.lastTrap == nil {
		return nil, fmt.Errorf("arthas: no observed failure; call Observe first")
	}
	ctx := &reactor.Context{
		Analysis:     i.Analysis,
		Trace:        i.Trace,
		Log:          i.Log,
		Pool:         i.Pool,
		Fault:        i.lastTrap.Instr,
		AddrFault:    i.lastTrap.Kind == vm.TrapSegfault,
		ReExec:       reexec,
		Scrub:        i.scrubHook(),
		MediaSuspect: i.MediaSuspected,
		Obs:          i.obsSink,
	}
	return i.runMitigation(ctx), nil
}

// MitigateCall is Mitigate specialized to the common re-execution script
// "restart, then re-issue one call". Unlike Mitigate — whose opaque reexec
// closure is bound to the live instance — the recipe form can be replayed
// against isolated copy-on-write forks of the pool and checkpoint log, so
// when Config.Reactor.Workers > 1 the reversion search runs speculatively
// in parallel (docs/PARALLEL_MITIGATION.md). At Workers <= 1 it behaves
// exactly like the equivalent Mitigate call.
func (i *Instance) MitigateCall(fn string, args ...int64) (*Report, error) {
	if i.lastTrap == nil {
		return nil, fmt.Errorf("arthas: no observed failure; call Observe first")
	}
	ctx := &reactor.Context{
		Analysis:  i.Analysis,
		Trace:     i.Trace,
		Log:       i.Log,
		Pool:      i.Pool,
		Fault:     i.lastTrap.Instr,
		AddrFault: i.lastTrap.Kind == vm.TrapSegfault,
		ReExec: func() *Trap {
			if trap := i.Restart(); trap != nil {
				return trap
			}
			_, trap := i.Call(fn, args...)
			return trap
		},
		Scrub:        i.scrubHook(),
		MediaSuspect: i.MediaSuspected,
		Obs:          i.obsSink,
	}
	if i.cfg.Reactor.Workers > 1 {
		ctx.ForkSession = i.forkSession(fn, args)
	}
	return i.runMitigation(ctx), nil
}

// runMitigation invokes the reactor with the in-flight flag raised, so
// health probes (obs.HealthState.Mitigating via Mitigating) see the window.
func (i *Instance) runMitigation(ctx *reactor.Context) *Report {
	i.mitigating.Store(true)
	i.lifecycle(EventMitigateStart)
	i.flushObs()
	defer func() {
		i.mitigating.Store(false)
		i.lifecycle(EventMitigateEnd)
	}()
	return reactor.Mitigate(i.cfg.Reactor, ctx)
}

// Mitigating reports whether a mitigation is currently in flight. Safe to
// call from other goroutines (the debug endpoint's health probe).
func (i *Instance) Mitigating() bool { return i.mitigating.Load() }

// BuildIncident assembles the `arthas-incident/v1` report for a completed
// mitigation: the last observed failure's signature, the lineage of the
// faulting words (Config.Provenance required for non-empty lineage), the
// reactor's candidate plan with evidence, and the outcome.
func (i *Instance) BuildIncident(rep *Report) *Incident {
	var sig detector.Signature
	if i.lastTrap != nil {
		sig = detector.SignatureOf(i.lastTrap)
	}
	return provenance.BuildIncident(provenance.IncidentInput{
		Case:      i.Name,
		Signature: sig,
		Trap:      i.lastTrap,
		Report:    rep,
		Index:     i.Prov,
		Log:       i.Log,
		Analysis:  i.Analysis,
		Scrub:     i.LastScrub,
	})
}

// forkSession builds the speculative-session factory for MitigateCall: each
// session is a COW fork of the pool with its own forked checkpoint log and
// a private machine. Fork machines carry no trace or telemetry sinks —
// speculative probes must not pollute the instance's shared state.
func (i *Instance) forkSession(fn string, args []int64) func() (*reactor.Session, error) {
	return func() (*reactor.Session, error) {
		pool := i.Pool.Fork()
		log := i.Log.Fork()
		pool.SetHooks(log.Hooks())
		return &reactor.Session{
			Pool: pool,
			Log:  log,
			ReExec: func() *Trap {
				if i.cfg.RestartLatency > 0 {
					time.Sleep(i.cfg.RestartLatency)
				}
				pool.Crash()
				m := vm.New(i.Module, pool, vm.Config{StepLimit: i.cfg.StepLimit})
				if i.cfg.RecoverFn != "" {
					if _, trap := m.Call(i.cfg.RecoverFn); trap != nil {
						return trap
					}
				}
				_, trap := m.Call(fn, args...)
				return trap
			},
		}, nil
	}
}

// MitigateWithFaults is Mitigate with explicit fault instructions, for
// failures (data loss, wrong results) that have no trapping instruction.
// Typically the fault instructions are the result returns of the serving
// function; use RetInstrs to locate them.
func (i *Instance) MitigateWithFaults(faults []*ir.Instr, reexec func() *Trap) (*Report, error) {
	ctx := &reactor.Context{
		Analysis:     i.Analysis,
		Trace:        i.Trace,
		Log:          i.Log,
		Pool:         i.Pool,
		Faults:       faults,
		ReExec:       reexec,
		Scrub:        i.scrubHook(),
		MediaSuspect: i.MediaSuspected,
		Obs:          i.obsSink,
	}
	return i.runMitigation(ctx), nil
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
	st := i.Analysis.Stats()
	return fmt.Sprintf("%s: %d funcs, %d instrs (%d PM), %d PDG edges; pool %d/%d words live; %d checkpointed updates; %d trace events",
		i.Name, st.Functions, st.Instructions, st.PMInstrs, st.PDGEdges,
		i.Pool.LiveWords(), i.Pool.Words(), i.Log.TotalVersions(), i.Trace.Len())
}
