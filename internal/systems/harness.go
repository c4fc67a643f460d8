// Package systems contains the five target PM systems of the paper's
// evaluation — Memcached, Redis, Pelikan, PMEMKV and CCEH — re-implemented
// in PML with the data structures and code paths that host the twelve
// evaluated hard-fault bugs, plus the deployment harness that compiles,
// analyzes, instruments, and runs them the way the Arthas toolchain does
// (paper Figure 4).
package systems

import (
	"fmt"

	"arthas/internal/analysis"
	"arthas/internal/checkpoint"
	"arthas/internal/ir"
	"arthas/internal/obs"
	"arthas/internal/opt"
	"arthas/internal/pmem"
	"arthas/internal/provenance"
	"arthas/internal/trace"
	"arthas/internal/vm"
)

// System describes one deployable PML target.
type System struct {
	Name      string
	Source    string
	PoolWords int
	// InitFn creates the persistent layout on a fresh pool.
	InitFn string
	// RecoverFn is the annotated recovery entry point run after restart.
	RecoverFn string
}

// DeployOpts selects which parts of the Arthas runtime attach — the knobs
// behind Table 8's overhead split (vanilla / checkpoint-only /
// instrumentation-only) and Figure 12.
type DeployOpts struct {
	Checkpoint bool // attach the checkpoint log (pmem hooks)
	Trace      bool // attach the PM address trace sink
	// MaxVersions for the checkpoint log (default 3).
	MaxVersions int
	// StepLimit per VM call (default 5M: hangs detected quickly).
	StepLimit int64
	// SkipAnalysis deploys without running the static analyzer (vanilla
	// builds for overhead baselines; no GUIDs are assigned).
	SkipAnalysis bool
	// Obs, when non-nil, receives telemetry from every attached runtime
	// layer (pool, checkpoint log, trace, VM). Survives restarts: each
	// fresh machine is rewired to the same sink.
	Obs obs.Sink
	// Provenance attaches the per-word write-lineage index: the VM's
	// WriteSink feeds last-writer attribution and the pool's persistence
	// hooks are wrapped to stamp lineage records (incident-report input).
	Provenance bool
	// Optimize runs the flush/fence-elimination pass (internal/opt) on the
	// compiled module before analysis and instrumentation.
	Optimize bool
}

// Deployment is a running instance of a system: compiled module, analysis
// metadata, pool, checkpoint log, trace, and the current VM.
type Deployment struct {
	Sys  *System
	Mod  *ir.Module
	Res  *analysis.Result // nil when SkipAnalysis
	Pool *pmem.Pool
	Log  *checkpoint.Log   // nil when !Checkpoint
	Tr   *trace.Trace      // nil when !Trace
	Prov *provenance.Index // nil when !Provenance
	M    *vm.Machine

	opts     DeployOpts
	restarts int
}

// Deploy compiles and boots a system on a fresh pool, running InitFn.
func Deploy(sys *System, opts DeployOpts) (*Deployment, error) {
	if opts.StepLimit == 0 {
		opts.StepLimit = 5_000_000
	}
	mod, err := ir.CompileSource(sys.Name, sys.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sys.Name, err)
	}
	if opts.Optimize {
		if _, err := opt.Optimize(mod); err != nil {
			return nil, fmt.Errorf("%s: %w", sys.Name, err)
		}
	}
	d := &Deployment{Sys: sys, Mod: mod, opts: opts}
	if !opts.SkipAnalysis {
		d.Res = analysis.Analyze(mod)
	}
	d.Pool = pmem.New(sys.PoolWords)
	d.Pool.SetSink(opts.Obs)
	if opts.Checkpoint {
		d.Log = checkpoint.NewLog(opts.MaxVersions)
		d.Log.SetSink(opts.Obs)
		d.Pool.SetHooks(d.Log.Hooks())
	}
	if opts.Provenance {
		d.Prov = provenance.New()
		d.Prov.SetSink(opts.Obs)
		var hooks pmem.Hooks
		if d.Log != nil {
			hooks = d.Log.Hooks()
		}
		d.Pool.SetHooks(d.Prov.WrapHooks(hooks, d.Log))
	}
	if opts.Trace {
		d.Tr = trace.New()
		d.Tr.SetSink(opts.Obs)
	}
	d.boot()
	if sys.InitFn != "" {
		if _, trap := d.M.Call(sys.InitFn); trap != nil {
			return nil, fmt.Errorf("%s init: %v", sys.Name, trap)
		}
	}
	return d, nil
}

// MustDeploy panics on deployment failure (tests, experiments).
func MustDeploy(sys *System, opts DeployOpts) *Deployment {
	d, err := Deploy(sys, opts)
	if err != nil {
		panic(err)
	}
	return d
}

func (d *Deployment) boot() {
	d.M = vm.New(d.Mod, d.Pool, vm.Config{StepLimit: d.opts.StepLimit})
	d.M.SetSink(d.opts.Obs)
	d.M.ObsFlush = d.flushObs
	if d.Tr != nil {
		d.M.TraceSink = d.Tr.Record
		d.M.TraceReadSink = d.Tr.RecordRead
	}
	if d.Prov != nil {
		d.M.WriteSink = d.Prov.NoteWrite
		d.Prov.SetClock(d.M.Steps)
	}
}

// flushObs publishes the tallies the attached layers keep per word (see
// pmem.Pool.FlushObs): the machine runs it at the end of every Call, Restart
// before the crash.
func (d *Deployment) flushObs() {
	d.Pool.FlushObs()
	if d.Log != nil {
		d.Log.FlushObs()
	}
	if d.Prov != nil {
		d.Prov.FlushObs()
	}
	if d.Tr != nil {
		d.Tr.FlushObs()
	}
}

// SetObs installs (or clears, with nil) the observability sink on every
// attached layer of a live deployment, including the current machine.
func (d *Deployment) SetObs(s obs.Sink) {
	d.opts.Obs = s
	d.Pool.SetSink(s)
	if d.Log != nil {
		d.Log.SetSink(s)
	}
	if d.Tr != nil {
		d.Tr.SetSink(s)
	}
	if d.Prov != nil {
		d.Prov.SetSink(s)
	}
	if d.M != nil {
		d.M.SetSink(s)
	}
}

// Call invokes a PML function on the current machine.
func (d *Deployment) Call(fn string, args ...int64) (int64, *vm.Trap) {
	return d.M.Call(fn, args...)
}

// Restart simulates process kill + restart: the pool crashes (unpersisted
// stores lost), a fresh machine boots, and the recovery function runs.
func (d *Deployment) Restart() *vm.Trap {
	d.flushObs()
	d.Pool.Crash()
	d.boot()
	d.restarts++
	if d.Sys.RecoverFn != "" {
		if _, trap := d.M.Call(d.Sys.RecoverFn); trap != nil {
			return trap
		}
	}
	return nil
}

// Restarts reports how many restarts occurred.
func (d *Deployment) Restarts() int { return d.restarts }

// FindInstr locates an instruction in the module by function name and
// predicate — used by experiments to identify fault instructions for
// failures (like data loss) that have no trapping instruction.
func (d *Deployment) FindInstr(fn string, pred func(*ir.Instr) bool) *ir.Instr {
	f := d.Mod.Func(fn)
	if f == nil {
		return nil
	}
	var out *ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if out == nil && pred(in) {
			out = in
		}
	})
	return out
}

// RetInstrs returns the return instructions of a function: the default
// fault instructions for wrong-result/data-loss failures, where the
// symptom is a value the function computed rather than a trap.
func (d *Deployment) RetInstrs(fn string) []*ir.Instr {
	f := d.Mod.Func(fn)
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

// Fork clones the deployment into an isolated speculative session: the pool
// is copy-on-write forked, the checkpoint log (when attached) is forked and
// wired to the forked pool's hooks, and a fresh machine boots against the
// fork. The compiled module and analysis are shared read-only. Forks record
// no address trace, no write lineage, and carry no observability sink —
// speculative probes must not pollute the shared trace, the provenance
// index, or telemetry (the reactor replays
// worker telemetry separately; see docs/PARALLEL_MITIGATION.md). The fork's
// Restart/Call work as usual; a winning fork's pool is promoted by the
// reactor, never by the fork itself.
func (d *Deployment) Fork() *Deployment {
	fd := &Deployment{
		Sys:      d.Sys,
		Mod:      d.Mod,
		Res:      d.Res,
		Pool:     d.Pool.Fork(),
		opts:     d.opts,
		restarts: d.restarts,
	}
	fd.opts.Obs = nil
	if d.Log != nil {
		fd.Log = d.Log.Fork()
		fd.Pool.SetHooks(fd.Log.Hooks())
	}
	fd.boot()
	return fd
}
