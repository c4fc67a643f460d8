package fleet

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"arthas"
	"arthas/internal/obs"
	"arthas/internal/repl"
	"arthas/internal/workload"
)

// State is a shard's serving state. Transitions happen on the goroutine
// holding the shard lock; reads are atomic so health probes and routing
// fast-paths never block behind an in-flight mitigation.
type State int32

// Shard states, ordered roughly by severity.
const (
	// StateServing accepts requests.
	StateServing State = iota
	// StateRestarting is the transient-failure window: the shard observed a
	// trap the detector did not classify as hard and is restarting.
	StateRestarting
	// StateMitigating means the shard's reactor is reverting checkpoint
	// versions and re-executing — the online-mitigation window the fleet's
	// siblings serve through.
	StateMitigating
	// StateScrubbing means a media scrub pass is running.
	StateScrubbing
	// StatePromoting is the bounded failover window: the shard's replica is
	// catching up and cutting over after mitigation gave up. Requests are
	// refused only for the drain + reopen duration, then serving resumes on
	// the promoted replica.
	StatePromoting
	// StateFailed is terminal: mitigation was attempted and did not recover
	// the shard — and no replica could take over. Requests bounce until an
	// operator intervenes (Restart).
	StateFailed
)

func (s State) String() string {
	switch s {
	case StateServing:
		return "serving"
	case StateRestarting:
		return "restarting"
	case StateMitigating:
		return "mitigating"
	case StateScrubbing:
		return "scrubbing"
	case StatePromoting:
		return "promoting"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// UnavailableError is returned for requests routed to a shard that is not
// serving (restarting, mitigating, scrubbing, or failed). HTTP front ends
// map it to 503; closed-loop clients classify it as "unavailable" and keep
// driving their other keys.
type UnavailableError struct {
	Shard int
	State State
}

func (e *UnavailableError) Error() string {
	return fmt.Sprintf("shard %d unavailable: %s", e.Shard, e.State)
}

// RetryAfter tells retrying clients how long to back off before re-issuing a
// refused request: restart/mitigation/promotion windows are short, so the
// hint is one millisecond (HTTP front ends surface it as `Retry-After`,
// workload drivers honor it via the workload.RetryAfterer contract).
func (e *UnavailableError) RetryAfter() time.Duration { return time.Millisecond }

// TrapError is returned when a request's execution trapped. Mitigated marks
// that the trap escalated to a hard-fault mitigation; Recovered whether that
// mitigation healed the shard.
type TrapError struct {
	Shard     int
	Trap      *arthas.Trap
	Mitigated bool
	Recovered bool
}

func (e *TrapError) Error() string {
	s := fmt.Sprintf("shard %d: %v", e.Shard, e.Trap)
	if e.Mitigated && !e.Recovered {
		s += " (mitigation failed)"
	}
	return s
}

// Unwrap exposes the trap for errors.As chains.
func (e *TrapError) Unwrap() error { return e.Trap }

// Shard is one pool-backed arthas.Instance behind the fleet router. All
// instance access happens under mu; state and the cached health snapshot are
// published through atomics so the fleet's fast paths (routing rejection,
// /healthz) never contend with a mitigation in flight.
type Shard struct {
	ID int

	fleet *Fleet
	rec   *obs.Recorder // per-shard Observer, merged by Fleet.MergedMetrics

	mu   sync.Mutex
	inst *arthas.Instance
	// repl is the shard's standby-replica session (nil unless
	// Config.Replicas): the shipper taps the instance's pmem hooks, scrub
	// fetches unprovable blocks from the replica, and a failed mitigation
	// promotes it instead of refusing traffic. acfg is retained so the
	// promoted replica's image reopens with identical wiring (observer,
	// lifecycle hook, shipper, scrub source).
	repl *repl.Session
	acfg arthas.Config
	name string

	state    atomic.Int32
	health   atomic.Pointer[obs.HealthState]
	incident atomic.Pointer[arthas.Incident]
	report   atomic.Pointer[arthas.Report]

	ops         atomic.Int64
	errs        atomic.Int64
	unavail     atomic.Int64
	traps       atomic.Int64
	restarts    atomic.Int64
	mitigations atomic.Int64
	recovered   atomic.Int64
	promotions  atomic.Int64
}

// State returns the shard's current serving state.
func (s *Shard) State() State { return State(s.state.Load()) }

func (s *Shard) setState(st State) { s.state.Store(int32(st)) }

// casState transitions from->to atomically, reporting success. Used by
// lifecycle hooks that must not clobber a state the request path owns.
func (s *Shard) casState(from, to State) bool {
	return s.state.CompareAndSwap(int32(from), int32(to))
}

// onLifecycle mirrors instance transitions into the shard's recorder and —
// for scrubs initiated outside the request path (the reactor's
// scrub-then-retry hook runs inside a mitigation, where the Do path already
// owns the state) — into the serving state. Fired synchronously from the
// goroutine driving the instance, per arthas.Config.OnLifecycle's contract.
func (s *Shard) onLifecycle(ev arthas.LifecycleEvent) {
	s.rec.Count("fleet.lifecycle."+string(ev), 1)
	switch ev {
	case arthas.EventScrubStart:
		s.casState(StateServing, StateScrubbing)
	case arthas.EventScrubEnd:
		s.casState(StateScrubbing, StateServing)
	}
	// Mitigation reverts and scrub repairs mutate durable state through raw
	// paths the replication hooks never see; the replica must snapshot-resync
	// on the next ship rather than trust the stream.
	if s.repl != nil && (ev == arthas.EventMitigateEnd || ev == arthas.EventScrubEnd) {
		s.repl.MarkDirty()
	}
}

// refreshHealthLocked snapshots pool-derived health while holding mu — the
// pool's degraded/quarantine accessors are unsynchronized, so the snapshot
// is taken only at operation boundaries and health probes read the cached
// copy. The Mitigating flag is cleared here: Fleet.Health overlays it from
// the atomic shard state instead, which also covers restart/scrub windows.
func (s *Shard) refreshHealthLocked() {
	h := s.inst.Health()
	h.Mitigating = false
	s.health.Store(&h)
}

// do executes one routed operation, handling the trap → observe → restart →
// hard-fault → mitigate escalation inline so the shard heals online while
// siblings keep serving.
func (s *Shard) do(fn string, args ...int64) (int64, error) {
	// Fast path: refuse without touching the lock while the shard is
	// restarting, mitigating, scrubbing, or failed. Siblings' clients never
	// queue behind this shard's recovery.
	if st := s.State(); st != StateServing {
		s.errs.Add(1)
		s.unavail.Add(1)
		return 0, &UnavailableError{Shard: s.ID, State: st}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The state can have moved while we waited on the lock (a failed
	// mitigation ahead of us); re-check before touching the instance.
	if st := s.State(); st != StateServing {
		s.errs.Add(1)
		s.unavail.Add(1)
		return 0, &UnavailableError{Shard: s.ID, State: st}
	}
	v, trap := s.inst.Call(fn, args...)
	if trap == nil {
		s.ops.Add(1)
		s.shipIfDueLocked()
		return v, nil
	}
	return s.handleTrapLocked(fn, args, trap)
}

// shipIfDueLocked ships the checkpoint-log stream to the standby replica
// once the lag bound is reached (or a resync is owed). Runs on the serving
// path under the shard lock, so replication cost is part of the measured
// service time (arthas-bench -exp repl quantifies it).
func (s *Shard) shipIfDueLocked() {
	if s.repl == nil || !s.repl.Due(uint64(s.fleet.replMaxLag)) {
		return
	}
	if err := s.repl.Ship(); err != nil {
		s.fleet.rec.Count("fleet.repl.ship_error", 1)
	}
}

// handleTrapLocked runs the paper's serving-side failure protocol: feed the
// trap to the detector; a first (not-yet-hard) failure gets a plain restart
// and the request fails over to the client, while a suspected hard fault
// triggers online mitigation — checkpoint reversion plus re-execution —
// after which the original request is re-issued against the healed shard.
func (s *Shard) handleTrapLocked(fn string, args []int64, trap *arthas.Trap) (int64, error) {
	s.traps.Add(1)
	s.errs.Add(1)
	// Seal the replication session at the failure boundary: everything
	// shipped before this trap is the replica's trusted prefix, and nothing
	// the recovery machinery writes below (restart replay, mitigation
	// re-execution) may leak into a later promote drain. A successful
	// recovery unseals and resyncs; a promotion drains only the sealed
	// prefix.
	if s.repl != nil {
		s.repl.Seal()
	}
	_, hard := s.inst.Observe(trap)
	if !hard {
		s.setState(StateRestarting)
		s.restarts.Add(1)
		rtrap := s.inst.Restart()
		s.refreshHealthLocked()
		if rtrap != nil {
			// Recovery itself trapped: the fault is in persistent state the
			// restart path touches. Without a replica there is nothing to
			// escalate to; with one, fail over instead of refusing.
			if v, err, ok := s.promoteLocked(fn, args); ok {
				return v, err
			}
			s.setState(StateFailed)
			return 0, &TrapError{Shard: s.ID, Trap: rtrap}
		}
		s.unsealReplLocked()
		s.setState(StateServing)
		return 0, &TrapError{Shard: s.ID, Trap: trap}
	}

	s.setState(StateMitigating)
	s.mitigations.Add(1)
	s.fleet.rec.Count("fleet.mitigation", 1)
	var rep *arthas.Report
	var err error
	if s.fleet.cfg.ChaosMitigationFail {
		// Failover drill: pretend checkpoint reversion could not converge, so
		// the escalation path past mitigation (promotion) is exercised on
		// demand (the CI repl job and TestFailoverPastMitigation).
		s.fleet.rec.Count("fleet.chaos.mitigation_fail", 1)
		err = errChaosMitigation
	} else {
		rep, err = s.inst.MitigateCall(fn, args...)
	}
	if rep != nil {
		s.report.Store(rep)
	}
	if err != nil || rep == nil || !rep.Recovered {
		s.refreshHealthLocked()
		s.fleet.rec.Count("fleet.mitigation.failed", 1)
		if v, perr, ok := s.promoteLocked(fn, args); ok {
			return v, perr
		}
		s.setState(StateFailed)
		return 0, &TrapError{Shard: s.ID, Trap: lastTrapOf(rep, trap), Mitigated: true}
	}
	s.recovered.Add(1)
	s.fleet.rec.Count("fleet.mitigation.recovered", 1)
	if s.fleet.cfg.Provenance {
		s.incident.Store(s.inst.BuildIncident(rep))
	}
	// The shard is healthy again; serve the request that exposed the fault.
	v, rtrap := s.inst.Call(fn, args...)
	s.refreshHealthLocked()
	if rtrap != nil {
		if v, perr, ok := s.promoteLocked(fn, args); ok {
			return v, perr
		}
		s.setState(StateFailed)
		return 0, &TrapError{Shard: s.ID, Trap: rtrap, Mitigated: true, Recovered: true}
	}
	s.unsealReplLocked()
	s.setState(StateServing)
	s.ops.Add(1)
	return v, nil
}

// errChaosMitigation marks a drill-forced mitigation failure.
var errChaosMitigation = fmt.Errorf("fleet: chaos drill forced mitigation failure")

// unsealReplLocked reopens the replication session after a recovery that
// kept the primary: the stream records buffered during the recovery window
// are untrustworthy (restart replay, mitigation re-execution), so the
// session is marked dirty and the next ship snapshot-resyncs from the healed
// primary instead.
func (s *Shard) unsealReplLocked() {
	if s.repl == nil {
		return
	}
	s.repl.Unseal()
	s.repl.MarkDirty()
}

// promoteLocked fails the shard over to its standby replica: drain the
// sealed pre-failure stream prefix into the replica, reopen an instance
// from the replica's image with the shard's original wiring, run recovery,
// cut over, and re-issue the request that exposed the fault. Returns
// ok=false when there is no replica or the failover itself failed — the
// caller then falls back to StateFailed exactly as before replicas existed.
// Requests routed here during the drain+reopen window are refused with
// StatePromoting, the bounded unavailability the failover trades against a
// permanent refusal.
func (s *Shard) promoteLocked(fn string, args []int64) (int64, error, bool) {
	if s.repl == nil {
		return 0, nil, false
	}
	s.setState(StatePromoting)
	s.fleet.rec.Count("fleet.promotion", 1)
	rep, err := s.repl.Promote()
	if err != nil {
		s.fleet.rec.Count("fleet.promotion.failed", 1)
		return 0, nil, false
	}
	var img bytes.Buffer
	if err := arthas.WriteImage(&img, rep.Pool, rep.Log, nil); err != nil {
		s.fleet.rec.Count("fleet.promotion.failed", 1)
		return 0, nil, false
	}
	inst, err := arthas.OpenImage(s.name+"-promoted", s.fleet.cfg.Source, s.acfg, &img)
	if err != nil {
		s.fleet.rec.Count("fleet.promotion.failed", 1)
		return 0, nil, false
	}
	if trap := inst.Restart(); trap != nil {
		// The replica's image fails recovery: it is not a viable primary.
		s.fleet.rec.Count("fleet.promotion.failed", 1)
		return 0, nil, false
	}
	s.inst = inst
	s.promotions.Add(1)
	s.fleet.rec.Count("fleet.promotion.completed", 1)
	// The shipper's hooks now feed from the promoted instance. Discard the
	// failed primary's residue and bootstrap a fresh standby immediately so
	// the shard is replica-protected again.
	s.repl.Unseal()
	s.repl.MarkDirty()
	if err := s.repl.Ship(); err != nil {
		s.fleet.rec.Count("fleet.repl.ship_error", 1)
	}
	s.refreshHealthLocked()
	// Serve the request that exposed the fault on the promoted primary.
	v, rtrap := s.inst.Call(fn, args...)
	if rtrap != nil {
		s.setState(StateFailed)
		return 0, &TrapError{Shard: s.ID, Trap: rtrap, Mitigated: true}, true
	}
	s.setState(StateServing)
	s.ops.Add(1)
	return v, nil, true
}

func lastTrapOf(rep *arthas.Report, fallback *arthas.Trap) *arthas.Trap {
	if rep != nil && rep.LastTrap != nil {
		return rep.LastTrap
	}
	return fallback
}

// scrub runs a media-scrub pass with the shard fenced from traffic.
func (s *Shard) scrub() (*arthas.ScrubReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.inst.Scrub() // lifecycle hook flips state around the pass
	s.refreshHealthLocked()
	return rep, err
}

// restart is the operator-initiated restart: it also clears a Failed state,
// giving a shard whose mitigation did not converge another chance.
func (s *Shard) restart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.setState(StateRestarting)
	s.restarts.Add(1)
	trap := s.inst.Restart()
	s.refreshHealthLocked()
	if trap != nil {
		s.setState(StateFailed)
		return &TrapError{Shard: s.ID, Trap: trap}
	}
	// An operator restart can resurrect a Failed shard whose session was
	// sealed at the original failure; reopen it so replication resumes.
	s.unsealReplLocked()
	s.setState(StateServing)
	return nil
}

// ShardStats is one shard's counters snapshot, served by /shards.
type ShardStats struct {
	Shard             int    `json:"shard"`
	State             string `json:"state"`
	Ops               int64  `json:"ops"`
	Errors            int64  `json:"errors"`
	Unavailable       int64  `json:"unavailable"`
	Traps             int64  `json:"traps"`
	Restarts          int64  `json:"restarts"`
	Mitigations       int64  `json:"mitigations"`
	Recovered         int64  `json:"recovered"`
	Promotions        int64  `json:"promotions,omitempty"`
	QuarantinedBlocks int    `json:"quarantined_blocks"`
	// Repl is the shard's replication-session snapshot (nil when replicas
	// are disabled).
	Repl *repl.Status `json:"repl,omitempty"`
}

func (s *Shard) stats() ShardStats {
	h := s.health.Load()
	quar := 0
	if h != nil {
		quar = h.QuarantinedBlocks
	}
	st := ShardStats{
		Shard:             s.ID,
		State:             s.State().String(),
		Ops:               s.ops.Load(),
		Errors:            s.errs.Load(),
		Unavailable:       s.unavail.Load(),
		Traps:             s.traps.Load(),
		Restarts:          s.restarts.Load(),
		Mitigations:       s.mitigations.Load(),
		Recovered:         s.recovered.Load(),
		Promotions:        s.promotions.Load(),
		QuarantinedBlocks: quar,
	}
	if s.repl != nil {
		rs := s.repl.Status()
		st.Repl = &rs
	}
	return st
}

// opFor maps a workload op kind onto this fleet's serving functions. Updates
// and inserts both map to Put: the KV surface upserts.
func (f *Fleet) opFor(op workload.Op) (fn string, args []int64) {
	switch op.Kind {
	case workload.OpRead:
		return f.cfg.Funcs.Get, []int64{op.Key}
	case workload.OpDelete:
		return f.cfg.Funcs.Del, []int64{op.Key}
	default:
		return f.cfg.Funcs.Put, []int64{op.Key, op.Value}
	}
}
