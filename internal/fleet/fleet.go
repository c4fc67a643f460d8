// Package fleet shards a PML system across N independent arthas.Instance
// pools behind deterministic key routing, mitigating hard faults per shard
// while the siblings keep serving — the paper's single-system toolchain
// (analyzer → checkpoint → detector → reactor) promoted to a serving fleet.
//
// The unit of failure is the shard: each one owns a private PM pool,
// checkpoint log, detector history, and reactor, so a hard fault in one
// pool's state never blocks keys routed elsewhere. Requests to a shard that
// is restarting, mitigating, or scrubbing are refused immediately with
// UnavailableError (degraded-mode serving) instead of queueing behind the
// recovery; the detector's two-strikes escalation and the reactor's
// checkpoint-reversion search run inline on the serving path, exactly as the
// single-instance tools do, but scoped to one shard.
package fleet

import (
	"errors"
	"fmt"
	"io"
	"time"

	"arthas"
	"arthas/internal/checkpoint"
	"arthas/internal/obs"
	"arthas/internal/pmem"
	"arthas/internal/repl"
	"arthas/internal/workload"
)

// Funcs names the PML entry points a fleet serves. Zero values default to
// the KVSource conventions.
type Funcs struct {
	// Init builds an empty store on a fresh pool (default "init_").
	Init string
	// Recover is the annotated recovery entry run on every restart
	// (default "recover_").
	Recover string
	// Get/Put/Del serve routed reads, upserts, and deletes (defaults
	// "get", "put", "del").
	Get string
	Put string
	Del string
	// Locate resolves a key to its item's word address without validating
	// the value — the fault-injection hook (default "locate").
	Locate string
	// Sum is the checksum-validating state digest (default "sum").
	Sum string
}

func (f Funcs) withDefaults() Funcs {
	def := func(s *string, d string) {
		if *s == "" {
			*s = d
		}
	}
	def(&f.Init, "init_")
	def(&f.Recover, "recover_")
	def(&f.Get, "get")
	def(&f.Put, "put")
	def(&f.Del, "del")
	def(&f.Locate, "locate")
	def(&f.Sum, "sum")
	return f
}

// Config sizes and tunes a fleet.
type Config struct {
	// Shards is the pool count (default 1).
	Shards int
	// Source is the PML system every shard runs (default KVSource).
	Source string
	// BaseName prefixes shard instance names: "<BaseName>-shard<N>"
	// (default "fleet").
	BaseName string
	// PoolWords sizes each shard's pool (arthas.Config default when 0).
	PoolWords int
	// Workers is each shard's reactor parallelism (speculative reversion
	// search when > 1).
	Workers int
	// MaxVersions bounds each shard's checkpoint log (paper default when 0).
	MaxVersions int
	// RestartLatency simulates real per-shard restart cost, making the
	// degraded-serving window observable in benchmarks.
	RestartLatency time.Duration
	// Provenance enables per-shard write-lineage tracking; recovered
	// mitigations then publish `arthas-incident/v1` reports (Incident).
	Provenance bool
	// Replicas gives every shard a standby replica fed by checkpoint-log
	// stream shipping (internal/repl, docs/REPLICATION.md). The scrubber
	// gains a seal-proven replica repair source, and a shard whose
	// trap→restart→mitigate escalation exhausts promotes its replica and
	// resumes serving instead of going Failed.
	Replicas bool
	// ReplMaxLag bounds how many durability records the replica may trail
	// the primary before the serving path ships the stream (default 64;
	// 1 ships after every operation). Only meaningful with Replicas.
	ReplMaxLag int
	// ChaosMitigationFail is a drill switch: every hard-fault mitigation is
	// forced to fail before touching the reactor, so the escalation path
	// past mitigation — replica promotion, or StateFailed without replicas —
	// is exercised on demand (the CI repl job's failover drill).
	ChaosMitigationFail bool
	// Funcs overrides the served PML entry points.
	Funcs Funcs
}

// Fleet is a set of shards behind deterministic key routing.
type Fleet struct {
	cfg        Config
	rec        *obs.Recorder // fleet-level counters (routing, refusals, mitigations)
	shards     []*Shard
	replMaxLag int
}

// New builds, boots, and initializes every shard.
func New(cfg Config) (*Fleet, error) {
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if cfg.Source == "" {
		cfg.Source = KVSource
	}
	if cfg.BaseName == "" {
		cfg.BaseName = "fleet"
	}
	cfg.Funcs = cfg.Funcs.withDefaults()

	f := &Fleet{cfg: cfg, rec: obs.NewRecorder(), replMaxLag: cfg.ReplMaxLag}
	if f.replMaxLag <= 0 {
		f.replMaxLag = 64
	}
	for i := 0; i < cfg.Shards; i++ {
		s := &Shard{ID: i, fleet: f, rec: obs.NewRecorder()}
		s.name = fmt.Sprintf("%s-shard%d", cfg.BaseName, i)
		acfg := arthas.Config{
			PoolWords:      cfg.PoolWords,
			MaxVersions:    cfg.MaxVersions,
			RecoverFn:      cfg.Funcs.Recover,
			RestartLatency: cfg.RestartLatency,
			Observer:       s.rec,
			Provenance:     cfg.Provenance,
			OnLifecycle:    s.onLifecycle,
		}
		acfg.Reactor.Workers = cfg.Workers
		if cfg.Replicas {
			// The shipper taps the instance's pmem hooks; the session owns
			// the standby replica. Both close over s.inst so the wiring
			// survives promotion (the shipper keeps feeding from whichever
			// instance currently serves the shard).
			sh := repl.NewShipper()
			acfg.WrapHooks = sh.WrapHooks
			s.repl = repl.NewSession(sh, uint64(i)+1, func() (*pmem.Pool, *checkpoint.Log) {
				return s.inst.Pool, s.inst.Log
			})
			acfg.ScrubSource = s.repl.FetchBlock
		}
		s.acfg = acfg
		inst, err := arthas.New(s.name, cfg.Source, acfg)
		if err != nil {
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		if _, trap := inst.Call(cfg.Funcs.Init); trap != nil {
			return nil, fmt.Errorf("fleet: shard %d init: %w", i, trap)
		}
		s.inst = inst
		if s.repl != nil {
			// Bootstrap the standby from a snapshot that includes the init
			// effects, so it is caught up from the first served request.
			if err := s.repl.Ship(); err != nil {
				return nil, fmt.Errorf("fleet: shard %d replica bootstrap: %w", i, err)
			}
		}
		s.setState(StateServing)
		s.refreshHealthLocked() // single-threaded here; no lock needed yet
		f.shards = append(f.shards, s)
	}
	return f, nil
}

// Shards returns the shard count.
func (f *Fleet) Shards() int { return len(f.shards) }

// routeHash is a splitmix64 finalizer: full-avalanche so adjacent keys
// spread across shards, fixed so routing is a pure function of (key, shard
// count) — the determinism contract benchmarks digest.
func routeHash(key int64) uint64 {
	z := uint64(key) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ShardFor routes a key to its shard index.
func (f *Fleet) ShardFor(key int64) int {
	return int(routeHash(key) % uint64(len(f.shards)))
}

// RouteFor is ShardFor as a standalone function, for computing routing
// digests without building a fleet.
func RouteFor(key int64, shards int) int {
	if shards < 1 {
		return 0
	}
	return int(routeHash(key) % uint64(shards))
}

// Do routes and executes one workload operation. The error is nil, an
// *UnavailableError (shard fenced for recovery), or a *TrapError.
func (f *Fleet) Do(op workload.Op) (int64, error) {
	fn, args := f.opFor(op)
	return f.doRaw(f.ShardFor(op.Key), fn, args)
}

// ErrClass buckets fleet errors for workload.Driver reports: "unavailable"
// (request refused while the shard recovers), "trap" (execution failed), or
// "error".
func ErrClass(err error) string {
	var ue *UnavailableError
	if errors.As(err, &ue) {
		return "unavailable"
	}
	var te *TrapError
	if errors.As(err, &te) {
		return "trap"
	}
	return "error"
}

// Get reads a key (-1 when absent).
func (f *Fleet) Get(key int64) (int64, error) {
	return f.doRaw(f.ShardFor(key), f.cfg.Funcs.Get, []int64{key})
}

// Put upserts a key.
func (f *Fleet) Put(key, val int64) error {
	_, err := f.doRaw(f.ShardFor(key), f.cfg.Funcs.Put, []int64{key, val})
	return err
}

// Del removes a key; the result reports whether it existed.
func (f *Fleet) Del(key int64) (int64, error) {
	return f.doRaw(f.ShardFor(key), f.cfg.Funcs.Del, []int64{key})
}

func (f *Fleet) doRaw(shard int, fn string, args []int64) (int64, error) {
	return f.shards[shard].do(fn, args...)
}

// Health snapshots per-shard health in shard order. Pool-derived fields come
// from each shard's cached snapshot (refreshed at operation boundaries under
// the shard lock — the pool's own accessors are unsynchronized); the
// Mitigating/Degraded overlay comes from the atomic serving state, so the
// probe is wait-free even while a shard recovers.
func (f *Fleet) Health() []obs.ShardHealth {
	out := make([]obs.ShardHealth, len(f.shards))
	for i, s := range f.shards {
		var h obs.HealthState
		if snap := s.health.Load(); snap != nil {
			h = *snap
		}
		switch s.State() {
		case StateRestarting, StateMitigating, StateScrubbing, StatePromoting:
			// Promotion is a bounded cutover window, not a terminal state:
			// like mitigation, the shard refuses briefly and comes back.
			h.Mitigating = true
		case StateFailed:
			h.Degraded = true
		}
		out[i] = obs.ShardHealth{Shard: i, HealthState: h}
	}
	return out
}

// Stats snapshots per-shard serving counters.
func (f *Fleet) Stats() []ShardStats {
	out := make([]ShardStats, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.stats()
	}
	return out
}

// State returns one shard's serving state.
func (f *Fleet) State(shard int) State { return f.shards[shard].State() }

// MergedMetrics merges the fleet recorder with every shard's telemetry into
// one recorder: each shard metric appears both aggregated across shards
// (unprefixed) and per shard under "shard<N>.", plus a per-shard state gauge.
// Request-rate counters (fleet.req/unavailable/trap) are synthesized from
// the shards' atomic tallies — the serving hot path never touches a
// fleet-wide lock.
func (f *Fleet) MergedMetrics() *obs.Recorder {
	out := obs.NewRecorder()
	out.Absorb(f.rec, "")
	var req, unavail, traps int64
	for i, s := range f.shards {
		req += s.ops.Load() + s.errs.Load()
		unavail += s.unavail.Load()
		traps += s.traps.Load()
		out.Absorb(s.rec, "")
		out.Absorb(s.rec, fmt.Sprintf("shard%d.", i))
		out.SetGauge(fmt.Sprintf("fleet.shard%d.state", i), int64(s.State()))
	}
	out.Count("fleet.req", req)
	out.Count("fleet.unavailable", unavail)
	out.Count("fleet.trap", traps)
	return out
}

// Recorder returns the fleet-level recorder (routing and mitigation
// counters), e.g. for wiring a workload driver's sink alongside it.
func (f *Fleet) Recorder() *obs.Recorder { return f.rec }

// Incident returns a shard's most recent `arthas-incident/v1` report, nil
// until a provenance-enabled mitigation has recovered there.
func (f *Fleet) Incident(shard int) *arthas.Incident {
	return f.shards[shard].incident.Load()
}

// LastReport returns a shard's most recent mitigation report (nil if none).
func (f *Fleet) LastReport(shard int) *arthas.Report {
	return f.shards[shard].report.Load()
}

// Scrub fences one shard and runs a media-scrub pass.
func (f *Fleet) Scrub(shard int) (*arthas.ScrubReport, error) {
	return f.shards[shard].scrub()
}

// Restart restarts one shard, clearing a Failed state if mitigation had
// given up on it.
func (f *Fleet) Restart(shard int) error {
	return f.shards[shard].restart()
}

// Promote is the operator failover drill: it ships the shard's stream to
// the standby, seals the session, and cuts the shard over to its promoted
// replica — the same path a failed mitigation takes, minus the fault. The
// shard must be serving and replica-backed.
func (f *Fleet) Promote(shard int) error {
	if shard < 0 || shard >= len(f.shards) {
		return fmt.Errorf("fleet: no shard %d", shard)
	}
	s := f.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.repl == nil {
		return fmt.Errorf("fleet: shard %d has no replica", shard)
	}
	if st := s.State(); st != StateServing {
		return fmt.Errorf("fleet: shard %d is %s, not serving", shard, st)
	}
	// Catch the standby up before sealing so the drill loses nothing, then
	// promote and answer a read probe on the new primary.
	if err := s.repl.Ship(); err != nil {
		return fmt.Errorf("fleet: shard %d pre-promote ship: %w", shard, err)
	}
	s.repl.Seal()
	if _, err, ok := s.promoteLocked(f.cfg.Funcs.Get, []int64{0}); !ok {
		s.setState(StateFailed)
		return fmt.Errorf("fleet: shard %d promotion failed", shard)
	} else if err != nil {
		return err
	}
	return nil
}

// ReplStatus snapshots per-shard replication sessions in shard order. With
// replicas disabled every entry is the zero Status (Connected=false).
func (f *Fleet) ReplStatus() []repl.Status {
	out := make([]repl.Status, len(f.shards))
	for i, s := range f.shards {
		if s.repl != nil {
			out[i] = s.repl.Status()
		}
	}
	return out
}

// Replicated reports whether the fleet runs standby replicas.
func (f *Fleet) Replicated() bool { return f.cfg.Replicas }

// SaveImage serializes one shard's full image (pool, checkpoint log, trace)
// under the shard lock — the /image endpoint CI uses to hand a promoted
// shard's state to `arthas-inspect verify`.
func (f *Fleet) SaveImage(shard int, w io.Writer) error {
	if shard < 0 || shard >= len(f.shards) {
		return fmt.Errorf("fleet: no shard %d", shard)
	}
	s := f.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inst.SaveImage(w)
}

// InjectFault flips one pre-writeback bit in the stored value of key — the
// paper's §2.4 hard-fault model: the corruption is inside the persisted
// word, media seals do not catch it, and only checkpoint reversion heals it.
// Returns the shard the fault landed on. The key must exist.
func (f *Fleet) InjectFault(key int64, bit uint) (int, error) {
	shard := f.ShardFor(key)
	s := f.shards[shard]
	s.mu.Lock()
	defer s.mu.Unlock()
	addr, trap := s.inst.Call(f.cfg.Funcs.Locate, key)
	if trap != nil {
		return shard, fmt.Errorf("fleet: locate key %d: %w", key, trap)
	}
	if addr == 0 {
		return shard, fmt.Errorf("fleet: key %d not found on shard %d", key, shard)
	}
	// Item layout word 1 is the value; its checksum (word 2) stays stale, so
	// every subsequent get of this key asserts.
	if err := s.inst.InjectBitFlip(uint64(addr)+1, bit); err != nil {
		return shard, fmt.Errorf("fleet: inject on shard %d: %w", shard, err)
	}
	f.rec.Count("fleet.fault.injected", 1)
	return shard, nil
}

// StateDigest runs the checksum-validating digest on every shard and folds
// the results — equal digests across runs certify byte-equivalent logical
// state. Fails if any shard's digest traps (corruption present).
func (f *Fleet) StateDigest() (int64, error) {
	var sum int64
	for i, s := range f.shards {
		v, err := func() (int64, error) {
			s.mu.Lock()
			defer s.mu.Unlock()
			v, trap := s.inst.Call(f.cfg.Funcs.Sum)
			if trap != nil {
				return 0, fmt.Errorf("fleet: digest shard %d: %w", i, trap)
			}
			return v, nil
		}()
		if err != nil {
			return 0, err
		}
		sum = sum*1000003 + v
	}
	return sum, nil
}
