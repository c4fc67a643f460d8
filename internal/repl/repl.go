// Package repl implements primary→replica pool replication by shipping the
// checkpoint log as an ordered stream (docs/REPLICATION.md).
//
// The primary's durability events — persists, transaction brackets,
// allocator activity — are observed through pmem.Hooks by a Shipper
// (installed via arthas.Config.WrapHooks, outermost, so the checkpoint log
// and provenance index run first) and buffered as sequence-numbered
// checkpoint.StreamOp records. A Session encodes pending records into
// batches, pushes them across a (simulated, fault-injectable) link, and
// replays them into a Replica: a standby pmem pool + checkpoint log pair
// bootstrapped from a snapshot of the primary's own serialized state, so
// both sides share one image lineage.
//
// Replay is deterministic: persists are applied word-for-word to the
// replica's durable image and fed to the replica's checkpoint log (whose
// sequence must then equal the record's shipped CkptSeq — the divergence
// check), and allocator events re-execute against the replica's allocator
// (whose deterministic first-fit placement must return the shipped
// address). Any divergence, stream truncation beyond repair, or replica
// loss degrades to a full snapshot resync with jittered backoff — the
// stream is an optimization over the snapshot, never a correctness
// dependency.
//
// Durable writes that bypass the hooks (checkpoint reversion, media
// repair, fault injection) silently diverge the primary from the stream;
// callers mark the session dirty at those lifecycle points (mitigate-end,
// scrub-end, restart) and the next Ship performs a snapshot resync.
// Crucially, *injected faults* bypass the hooks too: the replica never
// applies the corruption, which is exactly why a promoted replica serves
// the original value and why the scrubber can use it as a seal-proven
// repair source (FetchBlock).
package repl

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"arthas/internal/checkpoint"
	"arthas/internal/pmem"
)

// Shipper observes a primary's durability events and buffers them as
// stream records. Install via WrapHooks (arthas.Config.WrapHooks). Safe
// for use from one driving goroutine plus concurrent status readers.
type Shipper struct {
	mu      sync.Mutex
	seq     uint64
	pending []checkpoint.StreamOp
	dirty   bool
}

// NewShipper returns an empty shipper, dirty by default: the first Ship
// of a Session must bootstrap the replica with a snapshot.
func NewShipper() *Shipper {
	return &Shipper{dirty: true}
}

// WrapHooks wraps inner so every durability event is recorded after the
// inner hooks (checkpoint log, provenance) have run. log is the primary's
// checkpoint log — its post-append sequence rides on every persist record
// as the replay divergence check. The signature matches
// arthas.Config.WrapHooks.
func (s *Shipper) WrapHooks(inner pmem.Hooks, log *checkpoint.Log) pmem.Hooks {
	return pmem.Hooks{
		OnPersist: func(addr uint64, data []uint64) {
			if inner.OnPersist != nil {
				inner.OnPersist(addr, data)
			}
			s.record(checkpoint.StreamOp{
				Kind: checkpoint.StreamPersist, Addr: addr, Words: uint64(len(data)),
				CkptSeq: log.Seq(), Data: append([]uint64(nil), data...),
			})
		},
		OnTxBegin: func() {
			if inner.OnTxBegin != nil {
				inner.OnTxBegin()
			}
			s.record(checkpoint.StreamOp{Kind: checkpoint.StreamTxBegin})
		},
		OnTxCommit: func() {
			if inner.OnTxCommit != nil {
				inner.OnTxCommit()
			}
			s.record(checkpoint.StreamOp{Kind: checkpoint.StreamTxCommit})
		},
		OnAlloc: func(addr uint64, words int) {
			if inner.OnAlloc != nil {
				inner.OnAlloc(addr, words)
			}
			s.record(checkpoint.StreamOp{Kind: checkpoint.StreamAlloc, Addr: addr, Words: uint64(words)})
		},
		OnZero: func(addr uint64, words int) {
			if inner.OnZero != nil {
				inner.OnZero(addr, words)
			}
			s.record(checkpoint.StreamOp{Kind: checkpoint.StreamZero, Addr: addr, Words: uint64(words)})
		},
		OnFree: func(addr uint64, words int) {
			if inner.OnFree != nil {
				inner.OnFree(addr, words)
			}
			s.record(checkpoint.StreamOp{Kind: checkpoint.StreamFree, Addr: addr, Words: uint64(words)})
		},
	}
}

func (s *Shipper) record(op checkpoint.StreamOp) {
	s.mu.Lock()
	s.seq++
	op.Seq = s.seq
	s.pending = append(s.pending, op)
	s.mu.Unlock()
}

// Seq returns the stream sequence of the last recorded event.
func (s *Shipper) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Pending returns how many records await shipping.
func (s *Shipper) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pending)
}

// MarkDirty declares the stream unable to represent the primary — an
// unhooked durable write happened (mitigation revert, scrub repair) — so
// the next Ship must snapshot-resync.
func (s *Shipper) MarkDirty() {
	s.mu.Lock()
	s.dirty = true
	s.mu.Unlock()
}

// drain moves all pending records to the caller and reports the dirty
// flag without clearing it.
func (s *Shipper) drain() ([]checkpoint.StreamOp, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops := s.pending
	s.pending = nil
	return ops, s.dirty
}

// clearDirty acknowledges a completed snapshot resync.
func (s *Shipper) clearDirty() {
	s.mu.Lock()
	s.dirty = false
	s.mu.Unlock()
}

// Replica is the standby: a pool + checkpoint log pair replaying the
// primary's stream. Both are fully functional — promotion serializes them
// into an image and opens a serving instance from it.
type Replica struct {
	Pool *pmem.Pool
	Log  *checkpoint.Log

	hooks pmem.Hooks
}

// NewReplica bootstraps a replica from a snapshot: the primary's pool
// bytes (pmem WriteTo) immediately followed by its checkpoint-log bytes
// (checkpoint WriteTo) — the same image lineage, so replayed allocations
// land at identical addresses.
func NewReplica(snapshot []byte) (*Replica, error) {
	br := bytes.NewReader(snapshot)
	pool, err := pmem.ReadPool(br)
	if err != nil {
		return nil, fmt.Errorf("repl: snapshot pool: %w", err)
	}
	log, err := checkpoint.ReadLog(br)
	if err != nil {
		return nil, fmt.Errorf("repl: snapshot log: %w", err)
	}
	r := &Replica{Pool: pool, Log: log, hooks: log.Hooks()}
	// Allocator replay must feed the replica's own log (alloc records,
	// realloc linkage) exactly as on the primary.
	pool.SetHooks(r.hooks)
	return r, nil
}

// Snapshot serializes a pool+log pair in NewReplica's wire layout.
func Snapshot(pool *pmem.Pool, log *checkpoint.Log) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := pool.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("repl: snapshotting pool: %w", err)
	}
	if _, err := log.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("repl: snapshotting log: %w", err)
	}
	return buf.Bytes(), nil
}

// ErrDiverged reports a replay whose outcome contradicts the shipped
// record — the replica no longer mirrors the primary and must resync.
var ErrDiverged = errors.New("repl: replica diverged from stream")

// Apply replays one stream record. On ErrDiverged the replica must be
// discarded and rebuilt from a snapshot.
func (r *Replica) Apply(op checkpoint.StreamOp) error {
	switch op.Kind {
	case checkpoint.StreamPersist:
		for i, v := range op.Data {
			if err := r.Pool.WriteDurable(op.Addr+uint64(i), v); err != nil {
				return fmt.Errorf("%w: persist %s: %v", ErrDiverged, op, err)
			}
		}
		r.hooks.OnPersist(op.Addr, op.Data)
		if got := r.Log.Seq(); got != op.CkptSeq {
			return fmt.Errorf("%w: %s applied at replica ckpt seq %d", ErrDiverged, op, got)
		}
	case checkpoint.StreamTxBegin:
		r.hooks.OnTxBegin()
	case checkpoint.StreamTxCommit:
		r.hooks.OnTxCommit()
	case checkpoint.StreamAlloc:
		addr, err := r.Pool.Alloc(int(op.Words))
		if err != nil {
			return fmt.Errorf("%w: %s: %v", ErrDiverged, op, err)
		}
		if addr != op.Addr {
			return fmt.Errorf("%w: %s allocated at %#x on replica", ErrDiverged, op, addr)
		}
	case checkpoint.StreamZero:
		for w := uint64(0); w < op.Words; w++ {
			if err := r.Pool.WriteDurable(op.Addr+w, 0); err != nil {
				return fmt.Errorf("%w: zero %s: %v", ErrDiverged, op, err)
			}
		}
		if r.hooks.OnZero != nil {
			r.hooks.OnZero(op.Addr, int(op.Words))
		}
	case checkpoint.StreamFree:
		if err := r.Pool.Free(op.Addr); err != nil {
			return fmt.Errorf("%w: %s: %v", ErrDiverged, op, err)
		}
	default:
		return fmt.Errorf("%w: unknown record kind in %s", ErrDiverged, op)
	}
	return nil
}

// Status is a session's externally visible replication state.
type Status struct {
	// Seq is the last stream sequence the primary generated; Acked the
	// last the replica applied. Lag is how far the replica trailed at the
	// last request boundary: the lag Due decided was under the bound, or
	// what the last Ship left. A request in flight appends records that
	// Seq shows at once, so sampling Seq-Acked from outside the serving
	// lock can catch a lag the shipper is about to clear; Lag cannot
	// (Session.Lag is the live difference).
	Seq   uint64 `json:"seq"`
	Acked uint64 `json:"acked"`
	Lag   uint64 `json:"lag"`
	// Connected reports a live replica; Dirty that the next ship must
	// snapshot-resync; Sealed that shipping is frozen for a promotion
	// decision.
	Connected bool `json:"connected"`
	Dirty     bool `json:"dirty"`
	Sealed    bool `json:"sealed"`
	// Counters.
	Ships       uint64 `json:"ships"`
	Records     uint64 `json:"records"`
	Resyncs     uint64 `json:"resyncs"`
	Truncations uint64 `json:"truncations"`
	Divergences uint64 `json:"divergences"`
	Drops       uint64 `json:"drops"`
	Promotions  uint64 `json:"promotions"`
}

// Session drives one primary→replica pair: draining the shipper, pushing
// batches across the link, replaying into the replica, and tracking acks.
// All methods are safe for concurrent use; the caller serializes Ship
// against primary mutation (the fleet holds the shard lock).
type Session struct {
	// LinkFault, when non-nil, intercepts every encoded batch before
	// decode — the torture harness's wire-fault injection point (truncate
	// to simulate a torn stream tail). Set before first use.
	LinkFault func(batch []byte) []byte
	// ReplicaFault, when non-nil, is consulted before each record applies;
	// returning true kills the replica at that point (torture's replica-
	// crash victim). Set before first use.
	ReplicaFault func(seq uint64) bool
	// BackoffBase scales reconnect backoff (default 50µs; kept tiny so
	// in-process reconnects never stall serving).
	BackoffBase time.Duration

	mu       sync.Mutex
	sh       *Shipper
	src      func() (*pmem.Pool, *checkpoint.Log)
	replica  *Replica
	acked    uint64
	queue    []checkpoint.StreamOp // drained, not yet applied by the replica
	sealed   bool
	sealLen  int
	attempts int // consecutive failed resyncs, for backoff
	seed     uint64
	stats    Status
}

// NewSession wires a shipper to a primary-state source. src must return
// the primary's CURRENT pool and checkpoint log (instances swap both on
// promotion/reopen) and is called only during snapshot resyncs, under the
// caller's serialization of Ship.
func NewSession(sh *Shipper, seed uint64, src func() (*pmem.Pool, *checkpoint.Log)) *Session {
	return &Session{sh: sh, src: src, seed: seed, BackoffBase: 50 * time.Microsecond}
}

// Lag returns how many records the replica is behind the primary.
func (s *Session) Lag() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sh.Seq() - s.acked
}

// MarkDirty forwards to the shipper (convenience for lifecycle hooks).
func (s *Session) MarkDirty() { s.sh.MarkDirty() }

// Due reports whether a Ship is warranted under the given lag bound: the
// replica trails by maxLag or more records, a snapshot resync is owed
// (dirty stream or no replica), and the session is not sealed. The serving
// path calls this per operation, so it must stay cheap; a lag found under
// the bound becomes Status.Lag.
func (s *Session) Due(maxLag uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return false
	}
	if s.replica == nil {
		return true
	}
	s.sh.mu.Lock()
	dirty := s.sh.dirty
	s.sh.mu.Unlock()
	if dirty {
		return true
	}
	if maxLag == 0 {
		maxLag = 1
	}
	lag := s.sh.Seq() - s.acked
	if lag >= maxLag {
		return true // the Ship that follows records the lag it leaves
	}
	s.stats.Lag = lag
	return false
}

// Status snapshots the session's replication state.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Seq = s.sh.Seq()
	st.Acked = s.acked
	st.Connected = s.replica != nil
	s.sh.mu.Lock()
	st.Dirty = s.sh.dirty
	s.sh.mu.Unlock()
	st.Sealed = s.sealed
	return st
}

// FetchBlock serves the scrubber's replica repair source: media block b of
// the replica's durable image, or false when no replica is connected.
// The scrubber commits it only under seal proof, so a lagging replica is
// safe — its stale block simply fails the checksum and the verdict falls
// through to quarantine.
func (s *Session) FetchBlock(b int) ([]uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replica == nil {
		return nil, false
	}
	w := s.replica.Pool.DurableBlock(b)
	return w, w != nil
}

// ReplicaImage snapshots the replica's durable image (nil when no replica
// is connected) — the divergence-audit primitive behind torture's
// word-identity checks.
func (s *Session) ReplicaImage() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.replica == nil {
		return nil
	}
	return s.replica.Pool.DurableImage()
}

// Seal freezes shipping for a failure decision: pending records drained so
// far mark the pre-failure boundary; anything recorded after (mitigation
// re-execution, recovery reruns) is never shipped. Promote applies only
// the sealed prefix; Unseal (after a successful mitigation) discards the
// boundary and lets the next Ship resync.
func (s *Session) Seal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	ops, _ := s.sh.drain()
	s.queue = append(s.queue, ops...)
	s.sealed = true
	s.sealLen = len(s.queue)
}

// Unseal reopens shipping after a failure was handled without promotion.
func (s *Session) Unseal() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sealed = false
	s.sealLen = 0
}

// Ship drains pending records and replays them into the replica,
// bootstrapping or resyncing with a full snapshot when required (first
// ship, dirty stream, divergence, replica loss). Sealed sessions no-op.
// The error from a wire/replica fault is handled internally (resync path);
// a returned error means even the snapshot path failed.
func (s *Session) Ship() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sealed {
		return nil
	}
	err := s.shipLocked(4)
	s.stats.Lag = s.sh.Seq() - s.acked
	return err
}

func (s *Session) shipLocked(attempts int) error {
	ops, dirty := s.sh.drain()
	s.queue = append(s.queue, ops...)
	if dirty || s.replica == nil {
		return s.resyncLocked()
	}
	if len(s.queue) == 0 {
		return nil
	}
	s.stats.Ships++
	batch := checkpoint.EncodeStream(s.queue)
	if s.LinkFault != nil {
		batch = s.LinkFault(batch)
	}
	decoded, err := checkpoint.DecodeStream(batch)
	var te *checkpoint.StreamTruncatedError
	truncated := errors.As(err, &te)
	if err != nil && !truncated {
		// Structurally corrupt bytes: the link is untrustworthy; resync.
		s.stats.Truncations++
		return s.resyncLocked()
	}
	if truncated {
		s.stats.Truncations++
	}
	for _, op := range decoded {
		if s.ReplicaFault != nil && s.ReplicaFault(op.Seq) {
			// Replica died mid-apply: back off, then rebuild from snapshot.
			s.replica = nil
			s.stats.Drops++
			s.backoff()
			return s.resyncLocked()
		}
		if err := s.replica.Apply(op); err != nil {
			s.replica = nil
			s.stats.Divergences++
			return s.resyncLocked()
		}
		s.acked = op.Seq
		s.stats.Records++
	}
	s.dropAckedLocked()
	if truncated && len(s.queue) > 0 && attempts > 0 {
		// The cut tail was retained; re-ship it on the (reconnected) link.
		return s.shipLocked(attempts - 1)
	}
	return nil
}

// dropAckedLocked discards the applied prefix of the queue.
func (s *Session) dropAckedLocked() {
	i := 0
	for i < len(s.queue) && s.queue[i].Seq <= s.acked {
		i++
	}
	s.queue = append(s.queue[:0], s.queue[i:]...)
}

// resyncLocked rebuilds the replica from a fresh primary snapshot. The
// snapshot covers everything the hooks have recorded, so the queue is
// discarded and the ack jumps to the shipper's head.
func (s *Session) resyncLocked() error {
	pool, log := s.src()
	snap, err := Snapshot(pool, log)
	if err != nil {
		s.attempts++
		return err
	}
	rep, err := NewReplica(snap)
	if err != nil {
		s.attempts++
		return err
	}
	s.replica = rep
	s.queue = nil
	s.acked = s.sh.Seq()
	s.sh.clearDirty()
	s.attempts = 0
	s.stats.Resyncs++
	return nil
}

// backoff sleeps a deterministic seeded-jitter interval scaled by the
// consecutive-failure count — reconnecting replication sessions must not
// hammer a struggling peer.
func (s *Session) backoff() {
	shift := s.attempts
	if shift > 6 {
		shift = 6
	}
	s.attempts++
	base := s.BackoffBase
	if base <= 0 {
		base = 50 * time.Microsecond
	}
	d := base << shift
	// Jitter to [0.5, 1.5) of d, splitmix64 over (seed, attempt).
	x := s.seed + 0x9e3779b97f4a7c15*uint64(s.attempts)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	frac := float64(x>>11) / float64(1<<53)
	time.Sleep(time.Duration((0.5 + frac) * float64(d)))
}

// Promote consumes the session for failover: the sealed pre-failure
// prefix (or the full queue when unsealed) is drained into the replica —
// stopping at the first record that does not apply cleanly, since a
// failing primary's tail is exactly what must not survive — and the
// caught-up replica is handed to the caller for cutover. The session
// forgets the replica; after the new primary is serving, the caller
// Unseals and the next Ship bootstraps a fresh replica from it.
func (s *Session) Promote() (*Replica, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.sealed {
		ops, _ := s.sh.drain()
		s.queue = append(s.queue, ops...)
		s.sealLen = len(s.queue)
	}
	if s.replica == nil {
		return nil, errors.New("repl: no replica to promote")
	}
	for _, op := range s.queue[:s.sealLen] {
		if err := s.replica.Apply(op); err != nil {
			break
		}
		s.acked = op.Seq
		s.stats.Records++
	}
	rep := s.replica
	s.replica = nil
	s.queue = nil
	s.sealLen = 0
	s.stats.Promotions++
	return rep, nil
}
