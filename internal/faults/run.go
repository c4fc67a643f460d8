package faults

import (
	"time"

	"arthas"
	"arthas/internal/baseline"
	"arthas/internal/detector"
	"arthas/internal/obs"
	"arthas/internal/provenance"
	"arthas/internal/reactor"
	"arthas/internal/vm"
)

// RunConfig parameterizes one fault-case execution (the paper's 5-minute
// run with the trigger at the halfway point, scaled to logical operations).
type RunConfig struct {
	// WorkloadOps is the total logical operations (default 600; leak
	// cases default higher so the leak can cross its threshold).
	WorkloadOps int
	// TriggerFrac is the fraction of the workload after which the bug is
	// triggered (default 0.5; the f5/f8 probabilistic pmCRIU results come
	// from per-seed variation of this).
	TriggerFrac float64
	// Snapshots is pmCRIU's snapshot count across the workload (paper:
	// one per minute of five).
	Snapshots int
	// Reactor configures Arthas's reversion strategy.
	Reactor reactor.Config
	// ArCkptAttempts bounds the ArCkpt baseline (timeout analogue).
	ArCkptAttempts int
	// LeakThresholdPct for leak-monitor cases (default 40).
	LeakThresholdPct int
	// MaxVersions per checkpoint entry (0 = the paper default of 3).
	MaxVersions int
	// Obs, when non-nil, receives the full pipeline telemetry of the run:
	// pipeline.run / pipeline.detect / pipeline.recovered phase spans plus
	// every component's counters. The runner always attaches its own
	// recorder internally (Outcome tallies are derived from it), so this
	// sink only adds a second consumer.
	Obs obs.Sink
	// Provenance attaches the write-lineage index to the deployment and
	// makes RunArthas assemble an incident report (Outcome.Incident) after
	// mitigation (Arthas non-leak runs only).
	Provenance bool
	// Optimize runs the flush/fence-elimination pass on the system before
	// deployment (all three stacks honor it, so baselines stay comparable).
	Optimize bool
}

func (cfg RunConfig) withDefaults(m Meta) RunConfig {
	if cfg.WorkloadOps == 0 {
		if m.IsLeak {
			cfg.WorkloadOps = 4000
		} else {
			cfg.WorkloadOps = 600
		}
	}
	if cfg.TriggerFrac == 0 {
		cfg.TriggerFrac = 0.5
	}
	if cfg.Snapshots == 0 {
		cfg.Snapshots = 5
	}
	if cfg.Reactor.MaxAttempts == 0 {
		workers := cfg.Reactor.Workers
		cfg.Reactor = reactor.DefaultConfig()
		cfg.Reactor.Workers = workers
	}
	if cfg.ArCkptAttempts == 0 {
		cfg.ArCkptAttempts = 64
	}
	if cfg.LeakThresholdPct == 0 {
		cfg.LeakThresholdPct = 40
	}
	return cfg
}

// Outcome reports one mitigation run.
type Outcome struct {
	Meta      Meta
	Solution  string // "arthas", "pmcriu", "arckpt"
	HardFault bool   // the detector flagged recurrence across restart
	Recovered bool
	Attempts  int
	// DataLossPct: Arthas = reverted checkpoint versions over the versions
	// recorded when the failure was detected; ArCkpt = reverted over all
	// recorded versions; pmCRIU = durable words discarded over words that
	// had ever been written.
	DataLossPct float64
	// RevertedItems counts discarded checkpoint versions (Arthas/ArCkpt)
	// or snapshots unwound (pmCRIU).
	RevertedItems int
	// Consistent is nil if the Table 4 battery passed post-recovery.
	Consistent error
	// Freed counts leak-mitigation freed blocks (leak cases).
	Freed int
	// MitigationTime is the wall time of the mitigation phase only.
	MitigationTime time.Duration
	// TimedOut marks budget exhaustion.
	TimedOut bool
	// Report is the raw reactor report (Arthas non-leak runs only). Its
	// outcome fields, and the tallies above derived from them, are the same
	// at any worker count.
	Report *reactor.Report
	// Incident is the assembled incident report (RunArthas with
	// cfg.Provenance, non-leak cases that reached mitigation).
	Incident *provenance.Incident
}

// runToFailure drives a freshly built case through workload+trigger,
// confirms the failure and its recurrence across restart (the soft-to-hard
// confirmation, through the instance's own detector), and returns the
// observed trap. sink receives the pipeline.run / pipeline.detect spans.
func runToFailure(c *Case, cfg RunConfig, sink obs.Sink, tick func() bool) (*vm.Trap, bool) {
	sink = obs.OrNop(sink)
	c.D.Detector.LeakThresholdPct = cfg.LeakThresholdPct

	pre := int(float64(cfg.WorkloadOps) * cfg.TriggerFrac)
	post := cfg.WorkloadOps - pre

	stop := false
	wrapTick := func() bool {
		if tick != nil && !tick() {
			stop = true
			return false
		}
		if c.IsLeak && c.D.LeakSuspected() {
			stop = true
			return false
		}
		return true
	}
	runSpan := sink.Start("pipeline.run", obs.A("case", c.Meta.ID), obs.A("ops", cfg.WorkloadOps))
	c.Workload(pre, wrapTick)
	var trap *vm.Trap
	if !stop {
		c.Trigger()
		if c.DetectImmediately {
			// The failing request arrives right after the trigger.
			trap = c.probe()
		}
		if trap == nil && !stop {
			c.Workload(post, wrapTick)
		}
	}
	runSpan.End()

	// Failure manifests via the probe; observe twice (across restart) to
	// confirm a hard fault.
	detSpan := sink.Start("pipeline.detect")
	defer detSpan.End()
	if trap == nil {
		trap = c.probe()
	}
	if trap == nil {
		detSpan.SetAttr("outcome", "healthy")
		return nil, false
	}
	c.D.Observe(trap)
	hard := false
	if trap2 := c.probe(); trap2 != nil {
		_, hard = c.D.Observe(trap2)
		trap = trap2
	}
	detSpan.SetAttr("outcome", detector.KindOfTrap(trap.Kind).String())
	detSpan.SetAttr("hard", hard)
	return trap, hard
}

// recovered marks the end of a successful mitigation and runs the Table 4
// consistency battery.
func (c *Case) recovered(sink obs.Sink, solution string, out *Outcome) {
	obs.OrNop(sink).Start("pipeline.recovered", obs.A("solution", solution)).End()
	if c.Consistency != nil {
		out.Consistent = c.Consistency()
	}
}

// RunArthas executes a case end-to-end under the Arthas toolchain. The
// Outcome's attempt/reversion/data-loss tallies come from the reactor's
// Report, whose outcome fields are the same at any worker count.
func RunArthas(b Builder, cfg RunConfig) (*Outcome, error) {
	cfg = cfg.withDefaults(b.Meta)
	sink := cfg.Obs
	c, err := b.New(arthas.Config{MaxVersions: cfg.MaxVersions, Reactor: cfg.Reactor,
		Observer: sink, Provenance: cfg.Provenance, Optimize: cfg.Optimize})
	if err != nil {
		return nil, err
	}
	trap, hard := runToFailure(c, cfg, sink, nil)
	out := &Outcome{Meta: c.Meta, Solution: "arthas", HardFault: hard}
	if trap == nil {
		out.Recovered = true // nothing to mitigate
		return out, nil
	}

	start := time.Now()
	if c.IsLeak {
		// §4.7: restart, record the annotated recovery function's access
		// set, diff against the checkpoint log's live allocations, free.
		rep, err := c.D.MitigateLeak()
		if err != nil {
			return out, nil
		}
		out.Freed = len(rep.FreedAddr)
		out.Attempts = 1
		out.Recovered = c.probe() == nil
		out.MitigationTime = time.Since(start)
		if out.Recovered {
			c.recovered(sink, "arthas-leak", out)
		}
		return out, nil
	}

	// Freeze the evidence at failure time: probe re-executions persist
	// through whichever log they run against, so counting versions or
	// building the incident after mitigation would tie the numbers to the
	// worker count (docs/PARALLEL_MITIGATION.md, "Determinism").
	var provAtFailure *provenance.Index
	versionsAtFailure := c.D.Log.TotalVersions()
	if c.D.Prov != nil {
		provAtFailure = c.D.Prov.Snapshot()
	}
	rep, err := c.D.MitigateProbe(c.FaultInstrs(trap), c.AddrFault, c.Probe)
	if err != nil {
		return nil, err
	}
	out.Report = rep
	out.Recovered = rep.Recovered
	if provAtFailure != nil {
		in := c.D.IncidentInput(rep)
		in.Case, in.System, in.Fault, in.Consequence = c.Meta.ID, c.Meta.System, c.Meta.Fault, c.Meta.Consequence
		in.HardFault = hard
		in.Index, in.VersionsAtFailure = provAtFailure, versionsAtFailure
		out.Incident = provenance.BuildIncident(in)
		c.D.Prov.Publish(sink)
	}
	out.Attempts = rep.Attempts
	out.RevertedItems = rep.RevertedVersions
	if versionsAtFailure > 0 {
		out.DataLossPct = 100 * float64(rep.RevertedVersions) / float64(versionsAtFailure)
	}
	out.MitigationTime = time.Since(start)
	out.TimedOut = !rep.Recovered
	if rep.Recovered {
		c.recovered(sink, "arthas", out)
	}
	return out, nil
}

// RunPmCRIU executes a case under the coarse snapshot baseline: no Arthas
// layer attaches (vanilla, to keep overhead honest); snapshots come from
// the workload's tick callback.
func RunPmCRIU(b Builder, cfg RunConfig) (*Outcome, error) {
	cfg = cfg.withDefaults(b.Meta)
	c, err := b.New(arthas.Config{Observer: cfg.Obs, Optimize: cfg.Optimize,
		Detach: arthas.AllLayers})
	if err != nil {
		return nil, err
	}
	interval := uint64(cfg.WorkloadOps / cfg.Snapshots)
	if interval == 0 {
		interval = 1
	}
	criu := baseline.NewPmCRIU(c.D.Pool, interval)
	criu.Obs = cfg.Obs
	trap, hard := runToFailure(c, cfg, cfg.Obs, func() bool {
		criu.Tick(1)
		return true
	})
	out := &Outcome{Meta: c.Meta, Solution: "pmcriu", HardFault: hard}
	if trap == nil {
		out.Recovered = true
		return out, nil
	}
	// Pre-mitigation durable footprint, the loss metric's denominator: the
	// live allocation footprint approximates the data the system holds.
	written := c.D.Pool.LiveWords()
	start := time.Now()
	rep := criu.Mitigate(c.probe)
	out.Recovered = rep.Recovered
	out.Attempts = rep.Attempts
	out.RevertedItems = rep.SnapshotsBack
	out.MitigationTime = time.Since(start)
	out.TimedOut = rep.TimedOut
	if written > 0 {
		out.DataLossPct = 100 * float64(rep.DiscardedWords) / float64(written)
		if out.DataLossPct > 100 {
			// The coarse diff can exceed the live-word footprint because
			// it also counts discarded allocator metadata and freed-block
			// residue; clamp to "lost everything".
			out.DataLossPct = 100
		}
	}
	if rep.Recovered {
		c.recovered(cfg.Obs, "pmcriu", out)
	}
	return out, nil
}

// RunArCkpt executes a case under the dependency-blind fine-grained
// baseline (checkpoint log attached, analyzer disabled). Like RunArthas, it
// derives the Outcome's reversion tallies from an attached recorder.
func RunArCkpt(b Builder, cfg RunConfig) (*Outcome, error) {
	cfg = cfg.withDefaults(b.Meta)
	rec := obs.NewRecorder()
	sink := obs.Multi(rec, cfg.Obs)
	c, err := b.New(arthas.Config{Observer: sink, Optimize: cfg.Optimize,
		Detach: arthas.LayerAnalysis | arthas.LayerTrace})
	if err != nil {
		return nil, err
	}
	trap, hard := runToFailure(c, cfg, sink, nil)
	out := &Outcome{Meta: c.Meta, Solution: "arckpt", HardFault: hard}
	if trap == nil {
		out.Recovered = true
		return out, nil
	}
	start := time.Now()
	rep := baseline.MitigateArCkpt(c.D.Pool, c.D.Log, c.probe,
		baseline.ArCkptConfig{MaxAttempts: cfg.ArCkptAttempts, Obs: sink})
	out.Recovered = rep.Recovered
	out.Attempts = rep.Attempts
	out.RevertedItems = int(rec.GaugeValue("ckpt.reverted_versions"))
	out.MitigationTime = time.Since(start)
	out.TimedOut = rep.TimedOut
	if total := rec.GaugeValue("ckpt.total_versions"); total > 0 {
		out.DataLossPct = 100 * float64(out.RevertedItems) / float64(total)
	}
	if rep.Recovered {
		c.recovered(sink, "arckpt", out)
	}
	return out, nil
}
