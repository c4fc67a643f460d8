// Package checkpoint implements Arthas's PM-aware fine-grained checkpointing
// (paper §4.2): persistent state updates are versioned at the granularity of
// the program's own persistence calls, eagerly, at the moment data becomes
// durable.
//
// Each log entry corresponds to one persisted address range and holds up to
// MaxVersions historical values plus the sequence numbers that produced
// them. An atomic sequence number totally orders PM updates by logical time.
// Transaction commits are bracketed so that reverting any entry of a
// transaction reverts its siblings too (§4.6). Allocations and frees are
// tracked for the leak-mitigation diff (§4.7).
//
// The log attaches to a pool via Hooks(); because the pmem simulator fires
// hooks only when data actually becomes durable, both the granularity and
// the timing of checkpointing are exactly the target program's persistence
// granularity and timing — the paper's central consistency argument.
package checkpoint

import (
	"fmt"
	"slices"
	"time"

	"arthas/internal/obs"
	"arthas/internal/pmem"
)

// DefaultMaxVersions matches the paper's default of 3 data versions per entry.
const DefaultMaxVersions = 3

// Version is one durable value of an entry's address range.
type Version struct {
	Data []uint64
	Seq  uint64
	Tx   uint64 // transaction id, 0 = not transactional
}

// Entry versions one persisted address range. Entries are keyed by
// (start address, size): a program that persists both a single field and a
// whole struct at the same base gets two independent version histories, so
// reverting either restores exactly the span that persistence call covered
// (the paper's Figure 5 entry carries address, offset and per-version
// sizes for the same reason).
type Entry struct {
	Addr     uint64
	Words    int
	Versions []Version // oldest first; capped at MaxVersions
	// live indexes the version currently in PM: len(Versions)-1 after a
	// write, decremented by reversions, -1 = reverted to pre-first state.
	live int
	// OldEntry links to the entry this range was reallocated from
	// (paper Figure 5's old_entry field).
	OldEntry *Entry
	// resynced marks that an out-of-band-corruption resync already ran
	// for this entry; later reverts step down versions normally. One shot
	// guarantees reversion progress even when overlapping entries dispute
	// the same words.
	resynced bool
	// dead marks an entry reverted below its oldest recorded version: its
	// words fall back to the next-newest covering live entry (ownership
	// transfer), and it no longer participates in resyncs.
	dead bool
}

// Dead reports whether the entry was reverted below its first version.
func (e *Entry) Dead() bool { return e.dead }

// LiveVersion returns the currently-live version (nil when the entry was
// reverted below its first recorded version).
func (e *Entry) LiveVersion() *Version {
	if e.dead || e.live < 0 || e.live >= len(e.Versions) {
		return nil
	}
	return &e.Versions[e.live]
}

// AllocRecord tracks one persistent allocation for leak mitigation.
type AllocRecord struct {
	Addr  uint64
	Words int
	Seq   uint64 // sequence counter value when allocated
	Freed bool
	// Realloc marks that this allocation reuses an address that a previous
	// (freed) allocation occupied — the trigger for old_entry linking.
	Realloc bool
}

// entryKey identifies one versioned range.
type entryKey struct {
	addr  uint64
	words int
}

// Log is the checkpoint log for one pool.
type Log struct {
	MaxVersions int

	entries map[entryKey]*Entry
	order   []*Entry // entry creation order (stable iteration)
	bySeq   map[uint64]*Entry

	seq   uint64
	txSeq uint64
	inTx  bool

	allocs     map[uint64]*AllocRecord
	allocOrder []uint64

	totalVersions  uint64 // every version ever recorded (data-loss accounting)
	versionedWords uint64 // their data words, summed
	reverts        uint64 // Revert calls
	resyncs        uint64 // Resync calls that found a live version

	// sink receives checkpointing telemetry; obsOn caches sink.Enabled().
	// The per-persist hook sends it only its two histogram samples; the
	// counters are the tallies above, published by FlushObs less what
	// published says the sink has already been told.
	sink      obs.Sink
	obsOn     bool
	published struct{ versions, words, reverts, resyncs uint64 }

	// base is the log this one was forked from (nil on a root log) and
	// clones its entries this fork has written; see fork.go.
	base   *Log
	clones map[*Entry]*Entry
}

// NewLog creates an empty checkpoint log.
func NewLog(maxVersions int) *Log {
	if maxVersions <= 0 {
		maxVersions = DefaultMaxVersions
	}
	return &Log{
		MaxVersions: maxVersions,
		entries:     map[entryKey]*Entry{},
		bySeq:       map[uint64]*Entry{},
		allocs:      map[uint64]*AllocRecord{},
		sink:        obs.Nop(),
	}
}

// SetSink installs an observability sink (nil restores the no-op). The
// outgoing sink is flushed first; the incoming one hears only what happens
// from here on.
func (l *Log) SetSink(s obs.Sink) {
	l.FlushObs()
	l.sink = obs.OrNop(s)
	l.obsOn = l.sink.Enabled()
	l.markPublished()
}

// markPublished declares everything recorded so far as told to the sink.
func (l *Log) markPublished() {
	l.published.versions, l.published.words = l.totalVersions, l.versionedWords
	l.published.reverts, l.published.resyncs = l.reverts, l.resyncs
}

// FlushObs publishes the versions recorded and the reversions run since the
// last flush and, when versions were recorded, samples the log-size gauges.
// The machine calls it at the end of every Call (vm.Machine.ObsFlush), so
// counters are exact and gauges current at request boundaries.
func (l *Log) FlushObs() {
	if !l.obsOn {
		return
	}
	grew := obs.CountDelta(l.sink, "ckpt.versions", l.totalVersions, &l.published.versions)
	obs.CountDelta(l.sink, "ckpt.versioned_words", l.versionedWords, &l.published.words)
	obs.CountDelta(l.sink, "ckpt.revert", l.reverts, &l.published.reverts)
	obs.CountDelta(l.sink, "ckpt.resync", l.resyncs, &l.published.resyncs)
	if grew {
		l.sink.SetGauge("ckpt.entries", int64(l.NumEntries()))
		l.sink.SetGauge("ckpt.total_versions", int64(l.totalVersions))
	}
}

// noteReversion refreshes the reversion gauges after any operation that
// moves entry cursors (reverts, and adopting a fork that reverted).
func (l *Log) noteReversion() {
	if l.obsOn {
		l.sink.SetGauge("ckpt.reverted_versions", int64(l.RevertedVersions()))
	}
}

// Hooks returns pmem hooks that feed this log. Install with pool.SetHooks.
func (l *Log) Hooks() pmem.Hooks {
	return pmem.Hooks{
		OnPersist:  l.onPersist,
		OnTxBegin:  func() { l.inTx = true; l.txSeq++ },
		OnTxCommit: func() { l.inTx = false },
		OnAlloc:    l.onAlloc,
		OnFree:     l.onFree,
	}
}

func (l *Log) onPersist(addr uint64, data []uint64) {
	var hookStart time.Time
	if l.obsOn {
		hookStart = time.Now()
	}
	key := entryKey{addr, len(data)}
	e := l.entry(key)
	if e == nil {
		e = &Entry{Addr: addr, Words: len(data), live: -1}
		// Realloc linkage (Figure 5's old_entry): if this address was freed
		// and re-allocated, link the new entry to the prior history there.
		if rec := l.alloc(addr); rec != nil && rec.Realloc {
			e.OldEntry = l.firstAt(addr)
		}
		l.entries[key] = e
		l.order = append(l.order, e)
	} else {
		e = l.mut(e)
	}
	l.seq++
	v := Version{Data: append([]uint64(nil), data...), Seq: l.seq}
	if l.inTx {
		v.Tx = l.txSeq
	}
	// Drop-oldest when at capacity.
	if len(e.Versions) >= l.MaxVersions {
		l.dropSeq(e.Versions[0].Seq)
		e.Versions = append(e.Versions[:0], e.Versions[1:]...)
	}
	e.Versions = append(e.Versions, v)
	e.live = len(e.Versions) - 1
	// A fresh persisted version revives an entry that reversion had killed:
	// leaving dead set with a valid cursor would serialize an inconsistent
	// state (and fail Validate).
	e.dead = false
	l.bySeq[v.Seq] = e
	l.totalVersions++
	l.versionedWords += uint64(len(data))
	if l.obsOn {
		l.sink.Observe("ckpt.versions_per_entry", float64(len(e.Versions)))
		l.sink.Observe("ckpt.hook.ns", float64(time.Since(hookStart).Nanoseconds()))
	}
}

func (l *Log) onAlloc(addr uint64, words int) {
	rec := &AllocRecord{Addr: addr, Words: words, Seq: l.seq}
	if prev := l.alloc(addr); prev == nil {
		l.allocOrder = append(l.allocOrder, addr)
	} else if prev.Freed {
		rec.Realloc = true
	}
	l.allocs[addr] = rec
}

func (l *Log) onFree(addr uint64, words int) {
	if rec := l.alloc(addr); rec != nil {
		if l.base != nil {
			cp := *rec
			rec = &cp
			l.allocs[addr] = rec
		}
		rec.Freed = true
	}
}

// Seq returns the latest sequence number issued.
func (l *Log) Seq() uint64 { return l.seq }

// TotalVersions returns how many PM updates were checkpointed in total.
func (l *Log) TotalVersions() uint64 { return l.totalVersions }

// RevertedVersions returns how many recorded updates are currently
// discarded by reversion (derived from the entries' live cursors, so an
// adopted fork's reversions are reflected automatically).
func (l *Log) RevertedVersions() uint64 {
	var n uint64
	l.each(func(e *Entry) {
		if e.dead {
			n += uint64(len(e.Versions))
		} else if d := len(e.Versions) - 1 - e.live; d > 0 {
			n += uint64(d)
		}
	})
	return n
}

// NumEntries returns the number of distinct versioned ranges.
func (l *Log) NumEntries() int {
	if l.base == nil {
		return len(l.entries)
	}
	return len(l.base.entries) + len(l.entries)
}

// Entries returns every entry in creation order (the version table view
// used by forensic tooling). The returned entries are the live ones —
// callers must not mutate them.
func (l *Log) Entries() []*Entry {
	out := make([]*Entry, 0, l.NumEntries())
	l.each(func(e *Entry) { out = append(out, e) })
	return out
}

// AllocRecords returns every allocation record in allocation order.
func (l *Log) AllocRecords() []*AllocRecord {
	var out []*AllocRecord
	for _, part := range l.allocOrders() {
		for _, a := range part {
			out = append(out, l.alloc(a))
		}
	}
	return out
}

// EntryAt returns the first-created entry starting exactly at addr, or nil.
func (l *Log) EntryAt(addr uint64) *Entry { return l.view(l.firstAt(addr)) }

// firstAt is EntryAt before the fork's view: the entry as first recorded.
func (l *Log) firstAt(addr uint64) *Entry {
	for _, part := range l.orders() {
		for _, e := range part {
			if e.Addr == addr {
				return e
			}
		}
	}
	return nil
}

// EntryBySeq returns the entry owning a sequence number, or nil.
func (l *Log) EntryBySeq(seq uint64) *Entry { return l.seqEntry(seq) }

// Locate resolves a sequence number to its entry and the index of the
// version carrying that seq — the entry↔lineage linkage incident reports
// use to cite "checkpoint entry X, version i" for a reverted write.
func (l *Log) Locate(seq uint64) (*Entry, int, bool) {
	e := l.seqEntry(seq)
	if e == nil {
		return nil, 0, false
	}
	for i, v := range e.Versions {
		if v.Seq == seq {
			return e, i, true
		}
	}
	return nil, 0, false
}

// TxOf returns the transaction id of a sequence number (0 if none).
func (l *Log) TxOf(seq uint64) uint64 {
	e := l.seqEntry(seq)
	if e == nil {
		return 0
	}
	for _, v := range e.Versions {
		if v.Seq == seq {
			return v.Tx
		}
	}
	return 0
}

// SeqsInTx returns every live sequence number recorded under a transaction.
func (l *Log) SeqsInTx(tx uint64) []uint64 {
	if tx == 0 {
		return nil
	}
	var out []uint64
	l.each(func(e *Entry) {
		for _, v := range e.Versions {
			if v.Tx == tx {
				out = append(out, v.Seq)
			}
		}
	})
	slices.Sort(out)
	return out
}

// SeqsCovering returns, for each of addrs, the ascending sequence numbers
// of every version of every entry whose range covers it — the join used
// when mapping trace addresses to checkpoint entries. An address no entry
// covers is absent from the result. It is one pass over the log however
// many addresses are asked, so callers batch every address they need.
func (l *Log) SeqsCovering(addrs []uint64) map[uint64][]uint64 {
	out := map[uint64][]uint64{}
	if len(addrs) == 0 {
		return out
	}
	sorted := slices.Clone(addrs)
	slices.Sort(sorted)
	sorted = slices.Compact(sorted)
	lo, hi := sorted[0], sorted[len(sorted)-1]
	for _, part := range l.orders() {
		for _, e := range part {
			end := e.Addr + uint64(e.Words)
			if end <= lo || e.Addr > hi {
				continue
			}
			i, _ := slices.BinarySearch(sorted, e.Addr)
			for ; i < len(sorted) && sorted[i] < end; i++ {
				a := sorted[i]
				for _, v := range l.view(e).Versions {
					out[a] = append(out[a], v.Seq)
				}
			}
		}
	}
	for _, seqs := range out {
		slices.Sort(seqs)
	}
	return out
}

// AllSeqs returns every live sequence number in ascending order.
func (l *Log) AllSeqs() []uint64 { return l.seqsFrom(0) }

// seqsFrom returns every retained sequence number >= from, ascending.
func (l *Log) seqsFrom(from uint64) []uint64 {
	var out []uint64
	l.each(func(e *Entry) {
		for _, v := range e.Versions {
			if v.Seq >= from {
				out = append(out, v.Seq)
			}
		}
	})
	slices.Sort(out)
	return out
}

// ownerOf returns the covering live entry with the newest live version for
// a word — the entry whose data governs that durable word. Overlapping
// entries (an init-time whole-struct persist vs later per-field persists)
// are arbitrated by this ownership: only the owner may rewrite the word.
func (l *Log) ownerOf(addr uint64) (*Entry, uint64, bool) {
	var best *Entry
	var bestSeq uint64
	for _, part := range l.orders() {
		for _, ent := range part {
			if addr < ent.Addr || addr >= ent.Addr+uint64(ent.Words) {
				continue
			}
			ent = l.view(ent)
			lv := ent.LiveVersion()
			if lv == nil {
				continue
			}
			if best == nil || lv.Seq >= bestSeq {
				best, bestSeq = ent, lv.Seq
			}
		}
	}
	if best == nil {
		return nil, 0, false
	}
	return best, best.LiveVersion().Data[addr-best.Addr], true
}

// CheckpointedValueAt returns the newest checkpointed value covering addr,
// if any live entry owns that word. This is the scrubber's ground-truth
// source (internal/scrub): a word the log checkpointed can be rewritten to
// its last-known-good value when the medium corrupts it — the same version
// store the reactor reverts through, used in the forward direction.
func (l *Log) CheckpointedValueAt(addr uint64) (uint64, bool) {
	_, val, ok := l.ownerOf(addr)
	return val, ok
}

// Revert reverts the entry owning seq by one version step: the address
// range is durably rewritten with the version preceding the currently-live
// one at or above seq. Reverting the oldest recorded version "kills" the
// entry: ownership of its words transfers to the next-newest covering live
// entry, whose values are written back (nothing is written for words no
// live entry covers — the log never captured their prior state).
// Returns the number of versions discarded.
//
// Out-of-band corruption (a hardware bit flip, a stray write outside any
// persistence call) never produces a checkpoint version, so the durable
// image can disagree with the checkpointed state. Revert therefore first
// re-syncs the words this entry OWNS: it rewrites only differing words from
// the live version and stops there — restoring the last checkpointed state
// is itself a reversion step and often the entire fix for hardware faults
// (paper §2.4).
func (l *Log) Revert(pool *pmem.Pool, seq uint64) (int, error) {
	e := l.seqEntry(seq)
	if e == nil {
		return 0, fmt.Errorf("checkpoint: no entry for seq %d", seq)
	}
	l.reverts++
	if l.obsOn {
		defer l.noteReversion()
	}
	if !e.resynced {
		fixed, err := l.resync(pool, e)
		if err != nil {
			return 0, err
		}
		if fixed > 0 {
			l.mut(e).resynced = true
			return 0, nil
		}
	}
	// Locate the version index for seq.
	idx := -1
	for i, v := range e.Versions {
		if v.Seq == seq {
			idx = i
			break
		}
	}
	if idx == -1 {
		return 0, fmt.Errorf("checkpoint: seq %d vanished from entry %#x", seq, e.Addr)
	}
	if e.dead || e.live <= idx-1 {
		return 0, nil // already reverted at or below this version
	}
	if idx == 0 {
		// Reverting the first recorded version: the entry dies and its
		// words fall back to whatever older covering entries still hold.
		// The cursor drops to -1 with it: a dead entry carrying a stale
		// live index would serialize an inconsistent state.
		discarded := e.live + 1
		e = l.mut(e)
		e.dead = true
		e.live = -1
		for w := 0; w < e.Words; w++ {
			a := e.Addr + uint64(w)
			if !pool.InAllocatedPayload(a) {
				continue
			}
			if _, val, ok := l.ownerOf(a); ok {
				if err := pool.WriteDurable(a, val); err != nil {
					return 0, err
				}
			}
		}
		return discarded, nil
	}
	discarded := e.live - (idx - 1)
	e = l.mut(e)
	e.live = idx - 1

	data := e.Versions[e.live].Data
	for w := 0; w < len(data); w++ {
		a := e.Addr + uint64(w)
		if !pool.InAllocatedPayload(a) {
			continue // the block was freed since: leave the allocator alone
		}
		if err := pool.WriteDurable(a, data[w]); err != nil {
			return 0, err
		}
	}
	return discarded, nil
}

// Resync repairs out-of-band corruption for the entry owning seq WITHOUT
// stepping versions: words this entry owns whose durable value disagrees
// with the live checkpointed version are rewritten. It is the minimal
// reversion — "back to the last checkpointed state" — and the first thing
// the reactor's rollback mode tries before discarding any history.
// Returns the number of words repaired.
func (l *Log) Resync(pool *pmem.Pool, seq uint64) (int, error) {
	e := l.seqEntry(seq)
	if e == nil {
		return 0, fmt.Errorf("checkpoint: no entry for seq %d", seq)
	}
	if e.LiveVersion() != nil {
		l.resyncs++
	}
	return l.resync(pool, e)
}

// resync rewrites the words e owns whose durable value disagrees with its
// live version and returns how many it rewrote.
func (l *Log) resync(pool *pmem.Pool, e *Entry) (int, error) {
	lv := e.LiveVersion()
	if lv == nil {
		return 0, nil
	}
	fixed := 0
	for w, want := range lv.Data {
		a := e.Addr + uint64(w)
		if !pool.InAllocatedPayload(a) {
			continue // never scribble into freed blocks
		}
		if owner, _, ok := l.ownerOf(a); !ok || owner != e {
			continue // a newer covering entry governs this word
		}
		got, err := pool.ReadDurable(a)
		if err != nil {
			return fixed, err
		}
		if got != want {
			if err := pool.WriteDurable(a, want); err != nil {
				return fixed, err
			}
			fixed++
		}
	}
	return fixed, nil
}

// RevertSeqAndTx reverts seq plus, if it belongs to a transaction, every
// other sequence number of that transaction (§4.6 transaction-level
// consistency). Returns total versions discarded.
func (l *Log) RevertSeqAndTx(pool *pmem.Pool, seq uint64) (int, error) {
	total := 0
	n, err := l.Revert(pool, seq)
	if err != nil {
		return total, err
	}
	total += n
	if tx := l.TxOf(seq); tx != 0 {
		for _, s := range l.SeqsInTx(tx) {
			if s == seq {
				continue
			}
			n, err := l.Revert(pool, s)
			if err != nil {
				return total, err
			}
			total += n
		}
	}
	return total, nil
}

// RevertAllAfter reverts every entry that has live versions with sequence
// numbers >= seq, in descending order — the strict time-order rollback used
// by the rollback mode and the ArCkpt baseline.
func (l *Log) RevertAllAfter(pool *pmem.Pool, seq uint64) (int, error) {
	seqs := l.seqsFrom(seq)
	slices.Reverse(seqs)
	total := 0
	for _, s := range seqs {
		n, err := l.Revert(pool, s)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// LiveAllocs returns allocation records never freed, in allocation order.
func (l *Log) LiveAllocs() []*AllocRecord {
	var out []*AllocRecord
	for _, rec := range l.AllocRecords() {
		if !rec.Freed {
			out = append(out, rec)
		}
	}
	return out
}
