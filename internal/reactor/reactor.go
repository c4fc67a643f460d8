package reactor

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"arthas/internal/analysis"
	"arthas/internal/checkpoint"
	"arthas/internal/ir"
	"arthas/internal/obs"
	"arthas/internal/pmem"
	"arthas/internal/trace"
	"arthas/internal/vm"
)

// Mode selects the reversion strategy (paper §4.4).
type Mode int

// Reversion modes.
const (
	// ModePurge reverts only the candidate entries (plus transaction
	// siblings and forward-dependent entries) — minimal data loss, small
	// risk of semantic inconsistency.
	ModePurge Mode = iota
	// ModeRollback additionally reverts every checkpoint entry newer than
	// the chosen one — strict time order, conservative.
	ModeRollback
)

func (m Mode) String() string {
	if m == ModePurge {
		return "purge"
	}
	return "rollback"
}

// Config tunes the reactor.
type Config struct {
	Mode Mode
	// Batch reverts this many candidates between re-executions
	// (1 = one-by-one, the default; §6.5 evaluates 5).
	Batch int
	// MaxAttempts bounds re-execution attempts (the paper's 10-minute
	// timeout analogue). Default 128.
	MaxAttempts int
	// Plan derivation knobs.
	Plan PlanConfig
	// FallbackToRollback switches from purge to rollback when purging
	// exhausts its attempts or re-execution hits recovery assertions
	// (§4.5). Default true (set by New).
	FallbackToRollback bool
	// Bisect enables the technical report's binary-search reversion: when
	// no isolated single candidate heals, search for the shortest healing
	// candidate prefix in O(log n) re-executions instead of cumulative
	// one-at-a-time walking.
	Bisect bool
	// CumulativeOnly disables the isolated-trial round so every reversion
	// accumulates (the paper's literal multi-attempt semantics). Used by
	// the ablation benchmarks.
	CumulativeOnly bool
	// Workers is how many reversion trials run at a time, each on its own
	// copy-on-write fork (Context.ForkSession). The winner is chosen by plan
	// order — not wall-clock order — so a Report is the same at any worker
	// count. <= 1 (the default) runs one fork at a time. See
	// docs/PARALLEL_MITIGATION.md.
	Workers int
	// ScrubRetries bounds how many times a re-execution probe that traps on
	// media corruption is retried after running the scrubber (Context.Scrub).
	// Scrub retries are NOT charged as mitigation attempts: the medium lied,
	// not the data, so they must not burn the reversion budget. 0 means the
	// default (3); negative disables scrub-then-retry.
	ScrubRetries int
	// ScrubBackoff is the base delay before each scrub retry, doubled per
	// retry (bounded exponential backoff). 0 (the default) retries
	// immediately — deterministic for tests; deployments model device
	// recovery latency with it.
	ScrubBackoff time.Duration
}

// DefaultConfig returns the paper-default reactor configuration.
func DefaultConfig() Config {
	return Config{Mode: ModePurge, Batch: 1, MaxAttempts: 128, FallbackToRollback: true}
}

// Context carries everything the reactor needs about the failed system.
type Context struct {
	Analysis *analysis.Result
	Trace    *trace.Trace
	Log      *checkpoint.Log
	Pool     *pmem.Pool
	// Fault is the fault instruction the detector identified. For
	// failures without a trapping instruction (data loss, wrong results),
	// use Faults with the serving function's result instructions instead.
	Fault *ir.Instr
	// Faults optionally supplies multiple fault instructions (Figure 4's
	// "fault instruction(s)"); merged with Fault.
	Faults []*ir.Instr
	// AddrFault marks the failure as an invalid-address trap at Fault
	// (segfault); the slicer then follows pointer rather than content
	// dependencies at the fault node.
	AddrFault bool
	// ReExec restarts the target system against the live pool, runs its
	// recovery path and the failure probe, and returns nil when the system
	// is healthy — the paper's re-execution script. It runs on the live
	// system only to confirm a promoted trial (or, with an empty plan, as
	// the plain restart); trials run the session's ReExec on a fork.
	ReExec func() *vm.Trap
	// Scrub, when set, runs a media-scrub pass over the pool (internal/scrub
	// backed by the checkpoint log) and returns nil when the pool verifies
	// afterwards. Re-execution probes trapping on media corruption invoke it
	// and retry — see Config.ScrubRetries. Nil disables scrub-then-retry
	// (media-corrupt probes then fail like any other trap).
	Scrub func() error
	// MediaSuspect, when set alongside Scrub, is the detector's media
	// monitor (a full checksum scan). Mitigate consults it once up front:
	// corruption can surface as ANY failure kind — a poisoned pointer
	// segfaults long before any load touches the poisoned block — so a
	// positive check runs one scrub pass before reversion planning.
	MediaSuspect func() bool
	// ForkSession creates an isolated trial session — a copy-on-write fork
	// of the pool, a fork of the checkpoint log wired to it, and a
	// re-execution script bound to the fork. Every reversion trial runs on
	// one, so mitigation needs it. Must be safe to call from multiple
	// goroutines; a trial whose fork fails is not run.
	ForkSession func() (*Session, error)
	// Obs receives mitigation telemetry: one span per reversion attempt
	// (candidate seq, mode, versions discarded) and one per re-execution
	// (outcome). Nil disables.
	Obs obs.Sink
}

// Session is one isolated trial environment: a forked pool, a forked
// checkpoint log feeding it, and a re-execution script targeting the fork.
// On the winning trial the reactor promotes Pool onto its base and the main
// log adopts Log; losing sessions are dropped.
type Session struct {
	Pool   *pmem.Pool
	Log    *checkpoint.Log
	ReExec func() *vm.Trap
	// Scrub is Context.Scrub for the fork: a probe that traps on media
	// corruption scrubs the fork and retries under the same uncharged
	// budget as on the live system. Nil disables scrub-then-retry.
	Scrub func() error
}

// Report summarizes a mitigation.
type Report struct {
	Recovered bool
	// RestartOnly is set when the plan was empty and a plain restart was
	// attempted instead (suspected soft failure / detector false alarm).
	RestartOnly bool
	Attempts    int // re-executions performed
	// AttemptsByMode splits Attempts by strategy: "purge", "rollback", and
	// "restart" (plain restarts when the plan was empty).
	AttemptsByMode map[string]int
	// TotalVersions snapshots the checkpoint log's lifetime version count
	// at mitigation end, so data loss renders without the log in hand.
	TotalVersions uint64
	// RevertedVersions counts checkpoint versions discarded.
	RevertedVersions int
	RevertedSeqs     []uint64
	CandidateCount   int
	ModeUsed         Mode
	FellBack         bool
	// Replans counts re-planning passes triggered by re-execution failing
	// at a new fault instruction.
	Replans int
	// ScrubRepairs counts scrub-then-retry passes run because a probe
	// trapped on media corruption. These are not mitigation attempts.
	ScrubRepairs int
	Duration     time.Duration
	LastTrap     *vm.Trap
	// Plan is the final reversion plan tried (candidates in trial order);
	// incident reports cite it as per-candidate evidence.
	Plan *Plan
}

// DataLossPct returns discarded updates as a percentage of all updates the
// checkpoint log ever recorded (Figure 9's metric).
func (r *Report) DataLossPct(log *checkpoint.Log) float64 {
	total := log.TotalVersions()
	if total == 0 {
		return 0
	}
	return 100 * float64(r.RevertedVersions) / float64(total)
}

func (r *Report) String() string {
	status := "FAILED"
	if r.Recovered {
		status = "recovered"
	}
	s := fmt.Sprintf("%s mode=%v attempts=%d", status, r.ModeUsed, r.Attempts)
	if len(r.AttemptsByMode) > 0 {
		var parts []string
		for _, m := range []string{"purge", "rollback", "restart"} {
			if n := r.AttemptsByMode[m]; n > 0 {
				parts = append(parts, fmt.Sprintf("%s:%d", m, n))
			}
		}
		if len(parts) > 0 {
			s += " [" + strings.Join(parts, " ") + "]"
		}
	}
	s += fmt.Sprintf(" reverted=%d", r.RevertedVersions)
	if r.TotalVersions > 0 {
		s += fmt.Sprintf(" dataloss=%.1f%%",
			100*float64(r.RevertedVersions)/float64(r.TotalVersions))
	}
	s += fmt.Sprintf(" candidates=%d fellback=%v", r.CandidateCount, r.FellBack)
	return s
}

// probe runs ctx's re-execution script once. A probe that traps on media
// corruption is not a failed mitigation attempt: the medium lied, not the
// reverted data. When the context supplies a Scrub hook, the probe scrubs
// and retries under a bounded exponential-backoff budget
// (cfg.ScrubRetries/ScrubBackoff); it returns the last trap and how many
// scrub passes it ran, which no caller charges as attempts.
func probe(cfg Config, ctx *Context) (trap *vm.Trap, scrubs int) {
	trap = ctx.ReExec()
	if ctx.Scrub == nil || cfg.ScrubRetries < 0 {
		return trap, 0
	}
	retries := cfg.ScrubRetries
	if retries == 0 {
		retries = 3
	}
	for r := 0; trap != nil && trap.Kind == vm.TrapMediaCorrupt && r < retries; r++ {
		if cfg.ScrubBackoff > 0 {
			time.Sleep(cfg.ScrubBackoff << uint(r))
		}
		sspan := obs.OrNop(ctx.Obs).Start("reactor.scrub", obs.A("retry", r))
		err := ctx.Scrub()
		sspan.End()
		if err != nil {
			break
		}
		scrubs++
		trap = ctx.ReExec()
	}
	return trap, scrubs
}

// reExec runs one probe on ctx's system, charging it to the mode's budget
// (attempts) and the report's total and per-mode counts, under a span
// (reactor.reexec, or reactor.confirm for the live run that confirms a
// promoted trial whose own reactor.reexec span stands for the attempt)
// whose outcome attribute is "recovered" or the trap kind.
func reExec(cfg Config, ctx *Context, name, mode string, rep *Report, attempts *int) *vm.Trap {
	chargeAttempts(1, mode, rep, attempts)
	span := obs.OrNop(ctx.Obs).Start(name,
		obs.A("mode", mode), obs.A("attempt", rep.Attempts))
	trap, scrubs := probe(cfg, ctx)
	rep.ScrubRepairs += scrubs
	rep.LastTrap = trap
	if trap == nil {
		span.SetAttr("outcome", "recovered")
	} else {
		span.SetAttr("outcome", trap.Kind.String())
	}
	span.End()
	return trap
}

// Mitigate runs the full §4.5 workflow: derive the plan, then revert and
// re-execute until the failure disappears or budgets run out.
func Mitigate(cfg Config, ctx *Context) *Report {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 128
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 1
	}
	start := time.Now()
	startReverted := ctx.Log.RevertedVersions()
	rep := &Report{ModeUsed: cfg.Mode}
	mitSpan := obs.OrNop(ctx.Obs).Start("reactor.mitigate", obs.A("mode", cfg.Mode.String()))
	defer func() {
		rep.Duration = time.Since(start)
		rep.RevertedVersions = int(max(ctx.Log.RevertedVersions(), startReverted) - startReverted)
		rep.TotalVersions = ctx.Log.TotalVersions()
		mitSpan.SetAttr("recovered", rep.Recovered)
		mitSpan.SetAttr("attempts", rep.Attempts)
		mitSpan.SetAttr("reverted_versions", rep.RevertedVersions)
		mitSpan.End()
	}()

	// Media pre-check: when the detector's checksum monitor flags the pool,
	// heal the media first — corruption reached through a poisoned pointer
	// traps as a plain segfault, never as media-corrupt, and no amount of
	// reversion repairs words the checkpoint hooks never saw change. The
	// pass is not charged against the attempt budget.
	if ctx.Scrub != nil && ctx.MediaSuspect != nil && cfg.ScrubRetries >= 0 && ctx.MediaSuspect() {
		sspan := obs.OrNop(ctx.Obs).Start("reactor.scrub", obs.A("retry", 0))
		err := ctx.Scrub()
		sspan.End()
		if err == nil {
			rep.ScrubRepairs++
		}
	}

	planCfg := cfg.Plan
	planCfg.AddrFault = planCfg.AddrFault || ctx.AddrFault
	faults := ctx.Faults
	if ctx.Fault != nil {
		faults = append([]*ir.Instr{ctx.Fault}, faults...)
	}

	// Mitigation may surface a NEW fault instruction: reverting the state
	// behind the first symptom exposes the next one (two poisoned fields,
	// two asserts). The detector→reactor pipeline re-triggers on each
	// failure, so re-plan with the union of fault instructions — bounded,
	// since each re-plan adds a fresh instruction.
	const maxReplans = 3
	for replan := 0; ; replan++ {
		planSpan := obs.OrNop(ctx.Obs).Start("reactor.plan", obs.A("replan", replan))
		plan := ComputePlan(ctx.Analysis, ctx.Trace, ctx.Log, faults, planCfg)
		rep.CandidateCount = len(plan.Candidates)
		rep.Plan = plan
		planSpan.SetAttr("candidates", len(plan.Candidates))
		planSpan.End()

		if plan.Empty() {
			// Not caused by bad PM values: "the reactor then safely aborts
			// and resorts to simple restart" (§4.5).
			rep.RestartOnly = true
			trap := reExec(cfg, ctx, "reactor.reexec", "restart", rep, new(int))
			rep.Recovered = trap == nil
			return rep
		}

		mcfg := cfg
		if mitigateWithMode(mcfg, ctx, plan, rep) {
			rep.Recovered = true
			return rep
		}
		if cfg.Mode == ModePurge && cfg.FallbackToRollback {
			// Purge could not stabilize the system — and, having promoted
			// nothing, left it untouched: switch to the conservative
			// rollback mode (§4.5).
			rep.FellBack = true
			rep.ModeUsed = ModeRollback
			mcfg.Mode = ModeRollback
			if mitigateWithMode(mcfg, ctx, plan, rep) {
				rep.Recovered = true
				return rep
			}
		}
		lt := rep.LastTrap
		if replan >= maxReplans || lt == nil || lt.Instr == nil || slices.Contains(faults, lt.Instr) {
			return rep
		}
		faults = append(faults, lt.Instr)
		rep.Replans++
		rep.FellBack = false
		rep.ModeUsed = cfg.Mode
	}
}

// mitigateWithMode runs reversion rounds under one mode. Returns true when a
// re-execution comes back healthy. Every trial runs on a fork, and only a
// healed one is promoted, so the live pool and log change once per heal —
// a mode that fails leaves them as it found them. MaxAttempts budgets each
// mode separately, so the rollback fallback gets a fresh budget after purge
// exhausts its tries (§4.5).
func mitigateWithMode(cfg Config, ctx *Context, plan *Plan, rep *Report) bool {
	attempts := 0
	if cfg.Mode == ModeRollback {
		// Resync pre-pass: before discarding any history, try the minimal
		// rollback — restoring the candidates' last checkpointed state —
		// which alone repairs out-of-band corruption (hardware faults).
		// When it changes anything it is a trial of its own, and every later
		// trial of this mode starts from its state.
		if dry, err := ctx.ForkSession(); err == nil && resyncCandidates(dry, plan) {
			ctx = resyncing(ctx, plan)
			if trials(cfg, ctx, rep, &attempts, 1, func(int, *Context) {}) == 0 {
				return true
			}
		}
	}

	// Round 0: isolated trials, each candidate (or batch) on its own fork.
	if !cfg.CumulativeOnly {
		healed, exhausted := isolatedTrials(cfg, ctx, plan, rep, cfg.Batch, &attempts)
		if healed {
			return true
		}
		if !exhausted && cfg.Batch > 1 {
			// Batching can overshoot: the single-candidate state that
			// heals is never tested at batch granularity. Retry the
			// isolated trials one candidate at a time before escalating.
			if healed, _ := isolatedTrials(cfg, ctx, plan, rep, 1, &attempts); healed {
				return true
			}
		}
	}

	// Round 1: optional binary-search reversion (the technical report's
	// algorithm): when no single candidate heals, find the shortest healing
	// candidate prefix in O(log n) re-executions.
	if cfg.Bisect && bisect(cfg, ctx, plan, rep, &attempts) {
		return true
	}
	return cumulative(cfg, ctx, plan, rep, &attempts)
}

// resyncCandidates restores the candidates' last checkpointed state on a
// session and reports whether any durable word changed.
func resyncCandidates(s *Session, plan *Plan) bool {
	fixed := false
	for _, cand := range plan.Candidates {
		if n, err := s.Log.Resync(s.Pool, cand.Seq); err == nil && n > 0 {
			fixed = true
		}
	}
	return fixed
}

// resyncing returns ctx with every session starting from the candidates'
// last checkpointed state.
func resyncing(ctx *Context, plan *Plan) *Context {
	c := *ctx
	c.ForkSession = func() (*Session, error) {
		s, err := ctx.ForkSession()
		if err == nil {
			resyncCandidates(s, plan)
		}
		return s, err
	}
	return &c
}

// cumulative runs rounds 2..N on one fork: candidates are reverted without
// being undone, walking entries down through their older versions (the
// "retries reversion to an older version v-2 until the max versions are
// exhausted" loop), with a probe after each batch. A failed probe is
// charged; the first healthy one promotes the fork and is confirmed on the
// live instance.
func cumulative(cfg Config, ctx *Context, plan *Plan, rep *Report, attempts *int) bool {
	sess, err := ctx.ForkSession()
	if err != nil {
		return false
	}
	sctx := sessionContext(ctx, sess, ctx.Obs)
	mode := cfg.Mode.String()
	for round := 0; round < max(ctx.Log.MaxVersions, 1); round++ {
		progressed := false
		pending := 0
		for i, cand := range plan.Candidates {
			if *attempts >= cfg.MaxAttempts {
				return false
			}
			if revertCandidate(cfg, sctx, cand) > 0 {
				progressed = true
				rep.RevertedSeqs = append(rep.RevertedSeqs, cand.Seq)
			}
			pending++
			// Re-execute after each batch (or at the end of the list).
			if pending < cfg.Batch && i != len(plan.Candidates)-1 {
				continue
			}
			pending = 0
			trap, scrubs := probeTrial(cfg, sctx, mode)
			rep.ScrubRepairs += scrubs
			if trap == nil {
				return promote(ctx, sess) && confirm(cfg, ctx, mode, rep, attempts)
			}
			rep.LastTrap = trap
			chargeAttempts(1, mode, rep, attempts)
		}
		if !progressed {
			// Every entry is already at its oldest version; more rounds
			// cannot help.
			return false
		}
	}
	return false
}

// revertCandidate applies one candidate under the configured mode and
// returns the number of checkpoint versions discarded.
func revertCandidate(cfg Config, ctx *Context, cand Candidate) (reverted int) {
	if obs.Enabled(ctx.Obs) {
		span := ctx.Obs.Start("reactor.revert",
			obs.A("seq", cand.Seq), obs.A("guid", cand.GUID),
			obs.A("mode", cfg.Mode.String()))
		defer func() {
			span.SetAttr("reverted_versions", reverted)
			span.End()
		}()
	}
	if cfg.Mode == ModeRollback {
		n, err := ctx.Log.RevertAllAfter(ctx.Pool, cand.Seq)
		if err != nil {
			return 0
		}
		return n
	}
	// Purge mode: the candidate (+ its transaction), then the forward pass.
	n, err := ctx.Log.RevertSeqAndTx(ctx.Pool, cand.Seq)
	if err != nil {
		return 0
	}
	if n > 0 {
		// Only a revert that actually changed state can make forward-
		// dependent state inconsistent.
		n += purgeForward(ctx, cand)
	}
	return n
}

// purgeForward implements the purge-mode second pass (§4.4): after reverting
// an update, revert the newer checkpoint entries of its DIRECT dependents
// too, keeping dependent state mutually consistent (the paper's example:
// after reverting t5, the directly-influenced t7 is purged as well). The
// pass is deliberately one hop — the transitive closure of an early update
// reaches essentially the whole execution.
func purgeForward(ctx *Context, cand Candidate) int {
	src := ctx.Analysis.InstrByGUID(cand.GUID)
	if src == nil {
		return 0
	}
	direct := append([]*ir.Instr(nil), ctx.Analysis.PDG.DataSuccs[src]...)
	direct = append(direct, ctx.Analysis.PDG.MemSuccs[src]...)
	// The dependents' written addresses in one trace query, then one
	// covering query for all of them: reversion steps live cursors but
	// never changes which versions cover an address, so the answers hold
	// across the pass.
	guids := make([]int, 0, len(direct))
	for _, in := range direct {
		if in != src && in.GUID != 0 {
			guids = append(guids, in.GUID)
		}
	}
	addrs := ctx.Trace.AddrsByFirstWrite(guids)
	var touched []uint64
	for _, a := range addrs {
		touched = append(touched, a...)
	}
	covering := ctx.Log.SeqsCovering(touched)
	total := 0
	for i := range addrs {
		for _, addr := range addrs[i] {
			for _, s := range covering[addr] {
				if s > cand.Seq {
					n, err := ctx.Log.Revert(ctx.Pool, s)
					if err == nil {
						total += n
					}
				}
			}
		}
	}
	return total
}
