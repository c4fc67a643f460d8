package reactor

import (
	"sync"
	"sync/atomic"

	"arthas/internal/obs"
	"arthas/internal/vm"
)

// Reversion trials (docs/PARALLEL_MITIGATION.md).
//
// Every trial — an isolated candidate batch, a bisect prefix — reverts and
// re-executes on its own Session: a copy-on-write fork of the pool, a fork
// of the checkpoint log wired to it, and a re-execution script bound to the
// fork. Up to Config.Workers trials run at a time (<= 1 means one). The
// winner is the trial with the LOWEST plan index whose probe comes back
// healthy, never the first to finish in wall-clock; its fork is promoted
// onto the live pool, the live log adopts the fork's, and one confirmation
// re-execution runs on the live instance. Attempt charging is by plan order
// — failed trials below the winner plus the confirmation — so a Report is
// the same at any worker count.
//
// Per-worker telemetry: a Recorder's span stack assumes single-goroutine
// nesting, so each trial records into a private Recorder; after the round
// joins, the recorders replay into the session sink in trial order (again:
// deterministic, not completion order) with their spans marked
// speculative=true.

// sessionContext aims a Context at a speculative session. The fork runs
// dark at the pool/log layer (forks carry the no-op sink) and records
// reactor-level spans into sink.
func sessionContext(ctx *Context, s *Session, sink obs.Sink) *Context {
	c := *ctx
	c.Log, c.Pool, c.ReExec, c.Scrub, c.Obs = s.Log, s.Pool, s.ReExec, s.Scrub, sink
	return &c
}

// specResult is one speculative trial's outcome.
type specResult struct {
	healed bool
	scrubs int
	sess   *Session
	rec    *obs.Recorder
	trap   *vm.Trap
}

// runSpeculative executes n trials on up to cfg.Workers goroutines. Each
// trial forks a session, applies its reversions via apply(i, sctx), and
// probes once (scrubbing and retrying, uncharged, on media corruption).
// With firstWins, workers skip trials whose index exceeds an already-healed
// lower index (cooperative cancellation: such trials can no longer win);
// trials below the eventual winner always run, keeping the attempt
// accounting deterministic. Without firstWins every trial runs (bisect
// rounds need all outcomes).
func runSpeculative(cfg Config, ctx *Context, n int, mode string, apply func(i int, sctx *Context), firstWins bool) []specResult {
	results := make([]specResult, n)
	workers := min(max(cfg.Workers, 1), n)
	var best atomic.Int64
	best.Store(int64(n))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range idx {
				if firstWins && int64(i) > best.Load() {
					continue
				}
				sess, err := ctx.ForkSession()
				if err != nil {
					continue
				}
				r := &results[i]
				r.sess = sess
				sink := obs.Nop()
				if obs.Enabled(ctx.Obs) {
					r.rec = obs.NewRecorder()
					sink = r.rec
				}
				sctx := sessionContext(ctx, sess, sink)
				apply(i, sctx)
				r.trap, r.scrubs = probeTrial(cfg, sctx, mode, obs.A("trial", i), obs.A("worker", worker))
				if r.trap == nil {
					r.healed = true
					for {
						cur := best.Load()
						if int64(i) >= cur || best.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				}
			}
		}(w)
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// probeTrial probes a trial's fork under a reactor.reexec span marked
// speculative, whose outcome attribute is "recovered" or the trap kind.
func probeTrial(cfg Config, sctx *Context, mode string, attrs ...obs.Attr) (*vm.Trap, int) {
	span := obs.OrNop(sctx.Obs).Start("reactor.reexec",
		append([]obs.Attr{obs.A("mode", mode), obs.A("speculative", true)}, attrs...)...)
	trap, scrubs := probe(cfg, sctx)
	if trap == nil {
		span.SetAttr("outcome", "recovered")
	} else {
		span.SetAttr("outcome", trap.Kind.String())
	}
	span.End()
	return trap, scrubs
}

// settleSpeculative replays the telemetry of trials [0, upto) into the
// session sink in trial order and books their scrub passes. Trials above a
// winner ran or were skipped depending on scheduling; they leave no trace,
// so telemetry is the same at any worker count.
func settleSpeculative(ctx *Context, results []specResult, upto int, rep *Report) {
	sink := obs.OrNop(ctx.Obs)
	for _, r := range results[:upto] {
		if r.rec != nil {
			obs.ReplayInto(sink, r.rec)
		}
		rep.ScrubRepairs += r.scrubs
	}
}

// ran counts the trials that got a fork and probed.
func ran(results []specResult) int {
	n := 0
	for _, r := range results {
		if r.sess != nil {
			n++
		}
	}
	return n
}

// chargeAttempts books k re-execution attempts against the budget and report.
func chargeAttempts(k int, mode string, rep *Report, attempts *int) {
	*attempts += k
	rep.Attempts += k
	if rep.AttemptsByMode == nil {
		rep.AttemptsByMode = map[string]int{}
	}
	rep.AttemptsByMode[mode] += k
}

// applyBatch reverts plan candidates [start, end) on sctx, one version step
// per entry: a batch often holds several sequence numbers of the same
// entry, and walking them all would test a deeper state than intended (and
// discard more than the trial needs).
func applyBatch(cfg Config, sctx *Context, plan *Plan, start, end int) {
	touched := map[[2]uint64]bool{} // by range: a fork's revert clones the entry
	for _, cand := range plan.Candidates[start:end] {
		if e := sctx.Log.EntryBySeq(cand.Seq); e != nil {
			k := [2]uint64{e.Addr, uint64(e.Words)}
			if touched[k] {
				continue
			}
			touched[k] = true
		}
		revertCandidate(cfg, sctx, cand)
	}
}

// promote makes a healed trial's fork the live state: the fork's pool
// overlay is applied onto the live pool and the live log adopts the fork's.
// It is the one durable step a heal takes on the live system.
func promote(ctx *Context, sess *Session) bool {
	if sess.Pool.Promote() != nil {
		return false
	}
	ctx.Log.Adopt(sess.Log)
	return true
}

// confirm re-executes on the live instance after a promotion: the charged
// winning attempt — the healed trial's own probe stands for it in the
// reactor.reexec spans — which also reboots the live machine against the
// promoted state. The VM is deterministic, so a failure means the
// promotion itself is broken.
func confirm(cfg Config, ctx *Context, mode string, rep *Report, attempts *int) bool {
	return reExec(cfg, ctx, "reactor.confirm", mode, rep, attempts) == nil
}

// trials runs n trials — apply(i, sctx) on a fork, then a probe — Workers
// at a time, and makes the lowest-indexed healed one the live state: its
// fork is promoted and confirmed. It charges the failed trials below the
// winner plus the confirmation, or every trial that ran when none healed,
// and returns the winner's index, or -1.
func trials(cfg Config, ctx *Context, rep *Report, attempts *int, n int, apply func(i int, sctx *Context)) int {
	mode := cfg.Mode.String()
	results := runSpeculative(cfg, ctx, n, mode, apply, true)
	winner := -1
	for i := range results {
		if results[i].healed {
			winner = i
			break
		}
	}
	if winner < 0 {
		// The last failed probe's trap is the one the replanning heuristic
		// reads, as if the trials had run one after another.
		for _, r := range results {
			if r.trap != nil {
				rep.LastTrap = r.trap
			}
		}
		settleSpeculative(ctx, results, len(results), rep)
		chargeAttempts(ran(results), mode, rep, attempts)
		return -1
	}
	chargeAttempts(winner, mode, rep, attempts)
	promoted := promote(ctx, results[winner].sess)
	settleSpeculative(ctx, results, winner+1, rep)
	if !promoted || !confirm(cfg, ctx, mode, rep, attempts) {
		// The adopted log/pool pair is still consistent, so later phases
		// continue.
		return -1
	}
	return winner
}

// isolatedTrials is the isolated-trials round: each candidate batch is
// reverted and probed on its own fork, so an unsuccessful trial cannot
// destroy state that a later candidate's fix (or the probe itself) depends
// on — and a single reverted candidate is the minimal possible data loss,
// the design goal (§3).
func isolatedTrials(cfg Config, ctx *Context, plan *Plan, rep *Report, batch int, attempts *int) (healed, exhausted bool) {
	n := len(plan.Candidates)
	batches := (n + batch - 1) / batch
	budget := cfg.MaxAttempts - *attempts
	if budget <= 0 {
		return false, true
	}
	runnable := min(batches, budget)
	winner := trials(cfg, ctx, rep, attempts, runnable, func(i int, sctx *Context) {
		applyBatch(cfg, sctx, plan, i*batch, min((i+1)*batch, n))
	})
	if winner < 0 {
		return false, runnable < batches
	}
	rep.RevertedSeqs = append(rep.RevertedSeqs, seqsOf(plan.Candidates[winner*batch:min((winner+1)*batch, n)])...)
	return true, false
}

// bisect is the binary-search reversion (the technical report's
// algorithm referenced in paper §6.4: "a binary search algorithm that
// reduces the sequence number set that we have to revert"). When no single
// candidate heals, the failure needs a *set* of reversions; walking
// candidates cumulatively both burns re-executions and over-discards.
// Instead it probes prefix lengths on forks and narrows [lo, hi] by the
// smallest healing and largest failing sampled points. At one worker that
// is the sequential search — does the full prefix heal? then halve — and
// with k workers each round probes k points concurrently. Under the
// monotonicity assumption a binary search makes, both converge to the same
// minimal healing prefix; probe points depend only on the interval and the
// worker count, so the outcome is deterministic for a given -workers. The
// minimal prefix is then applied on a fresh fork, promoted and confirmed.
func bisect(cfg Config, ctx *Context, plan *Plan, rep *Report, attempts *int) bool {
	n := len(plan.Candidates)
	if n == 0 {
		return false
	}
	mode := cfg.Mode.String()

	// probeSet probes each prefix length on its own fork, concurrently.
	// Every probe charges one attempt.
	probeSet := func(pts []int) []bool {
		results := runSpeculative(cfg, ctx, len(pts), mode, func(i int, sctx *Context) {
			applyBatch(cfg, sctx, plan, 0, pts[i])
		}, false)
		healed := make([]bool, len(pts))
		for i := range results {
			healed[i] = results[i].healed
		}
		settleSpeculative(ctx, results, len(results), rep)
		chargeAttempts(ran(results), mode, rep, attempts)
		return healed
	}

	lo, hi := 1, n
	confirmed := false // becomes true once some sampled prefix healed
	for {
		if *attempts >= cfg.MaxAttempts {
			break
		}
		top := hi
		if confirmed {
			top = hi - 1 // hi already known to heal; re-probing wastes a slot
		}
		if top < lo {
			break
		}
		k := min(max(cfg.Workers, 1), cfg.MaxAttempts-*attempts)
		pts := splitPoints(lo, top, k)
		if confirmed && k == 1 {
			pts[0] = (lo + hi) / 2 // one probe per round: the binary search's midpoint
		}
		healed := probeSet(pts)
		win, lastFail := 0, 0
		for i, m := range pts {
			if healed[i] {
				win = m
				break
			}
			lastFail = m
		}
		if win == 0 {
			if !confirmed {
				// The sample included the full prefix (top == hi == n) and
				// even that does not heal: give up.
				return false
			}
			lo = pts[len(pts)-1] + 1
			if lo >= hi {
				break // hi is the minimal healing prefix
			}
			continue
		}
		hi = win
		confirmed = true
		if lastFail > 0 {
			lo = lastFail + 1
		}
		if lo >= hi {
			break
		}
	}
	if !confirmed || *attempts >= cfg.MaxAttempts {
		return false
	}

	// Apply the minimal prefix on a fork, promote it, and confirm: no
	// trial's probe stands for this attempt, so it is a reactor.reexec.
	sess, err := ctx.ForkSession()
	if err != nil {
		return false
	}
	applyBatch(cfg, sessionContext(ctx, sess, ctx.Obs), plan, 0, hi)
	if !promote(ctx, sess) {
		return false
	}
	if trap := reExec(cfg, ctx, "reactor.reexec", mode, rep, attempts); trap != nil {
		return false
	}
	rep.RevertedSeqs = append(rep.RevertedSeqs, seqsOf(plan.Candidates[:hi])...)
	return true
}

// seqsOf lists the candidates' sequence numbers.
func seqsOf(cands []Candidate) []uint64 {
	out := make([]uint64, len(cands))
	for i, c := range cands {
		out[i] = c.Seq
	}
	return out
}

// splitPoints returns up to k evenly spaced integers in [lo, hi], ascending
// and deduplicated, always including hi.
func splitPoints(lo, hi, k int) []int {
	if k < 1 {
		k = 1
	}
	span := hi - lo + 1
	if k > span {
		k = span
	}
	pts := make([]int, 0, k)
	for i := 1; i <= k; i++ {
		m := lo - 1 + span*i/k
		if len(pts) == 0 || m > pts[len(pts)-1] {
			pts = append(pts, m)
		}
	}
	return pts
}
