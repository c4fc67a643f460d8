package checkpoint

import (
	"maps"
	"slices"

	"arthas/internal/obs"
)

// Log forking for speculative mitigation (see docs/PARALLEL_MITIGATION.md).
//
// Every reversion trial runs on a fork of the target pool and of this log:
// it reverts candidates, which MOVES entry cursors (live indexes, dead and
// resynced flags), and re-executes, whose persists APPEND versions and
// entries. A trial touches a handful of entries while the log holds the
// whole history, so a fork follows the pool's copy-on-write discipline
// (internal/pmem/fork.go) instead of copying:
//
//   - it shares its base's entries, creation order, sequence index and
//     allocation table, read-only;
//   - it clones an entry the first time a revert moves its cursor or a
//     persist appends to it (mut), and reads every entry through its
//     clones (view);
//   - its maps and order slices hold only what it added or overrode: new
//     entries, the sequence numbers it recorded or dropped (a dropped one
//     maps to nil), allocation records it wrote;
//   - Adopt applies all of that onto the base in O(touched).
//
// Maps and order slices always hold an entry's canonical pointer — the
// base's entry, or the fork's own for an entry it created — so adopting a
// clone is copying it over its original. While forks live the base is
// read-only, as the pool's is. A fork supports what a trial does (hooks,
// reverts, resyncs, queries); serialization and Validate take a root log.

// Fork returns a copy-on-write fork of the log for one speculative trial.
// It costs O(1) however long the history: cursors, sequence counters and
// allocation records diverge from the base only where the fork writes
// them, and version payloads are shared read-only. The fork's hooks
// (Hooks()) feed the fork, so wiring them into a forked pool isolates the
// trial completely. The fork starts with the no-op sink. Fork must be
// called on a root log.
func (l *Log) Fork() *Log {
	if l.base != nil {
		panic("checkpoint: Fork of a fork")
	}
	return &Log{
		MaxVersions:    l.MaxVersions,
		entries:        map[entryKey]*Entry{},
		bySeq:          map[uint64]*Entry{},
		allocs:         map[uint64]*AllocRecord{},
		seq:            l.seq,
		txSeq:          l.txSeq,
		inTx:           l.inTx,
		totalVersions:  l.totalVersions,
		versionedWords: l.versionedWords,
		reverts:        l.reverts,
		resyncs:        l.resyncs,
		sink:           obs.Nop(),
		base:           l,
	}
}

// Adopt makes the fork's state this log's — the promotion step after a
// speculative trial wins — in O(what the fork touched). The receiver keeps
// its own sink, and the hook closures previously handed out by Hooks()
// remain valid. What the fork recorded (versions, reversions) is published
// to that sink as this log's own activity: the winner's work happened to
// the state this log now holds. The fork must come from this log's Fork()
// and must no longer be in use by any worker.
func (l *Log) Adopt(f *Log) {
	if f.base != l {
		panic("checkpoint: Adopt of a log that is not this log's fork")
	}
	orig := make(map[*Entry]*Entry, len(f.clones))
	for e, c := range f.clones {
		*e = *c
		orig[c] = e
	}
	maps.Copy(l.entries, f.entries)
	l.order = append(l.order, f.order...)
	for s, e := range f.bySeq {
		switch {
		case e == nil:
			delete(l.bySeq, s)
		case orig[e] != nil:
			l.bySeq[s] = orig[e]
		default:
			l.bySeq[s] = e
		}
	}
	maps.Copy(l.allocs, f.allocs)
	l.allocOrder = append(l.allocOrder, f.allocOrder...)
	l.seq, l.txSeq, l.inTx = f.seq, f.txSeq, f.inTx
	l.totalVersions, l.versionedWords = f.totalVersions, f.versionedWords
	l.reverts, l.resyncs = f.reverts, f.resyncs
	l.FlushObs()
	l.noteReversion()
}

// orders returns the log's entries in creation order, as canonical
// pointers: a fork's base prefix, then what the log created itself.
func (l *Log) orders() [2][]*Entry {
	if l.base == nil {
		return [2][]*Entry{l.order}
	}
	return [2][]*Entry{l.base.order, l.order}
}

// allocOrders is orders for allocation addresses.
func (l *Log) allocOrders() [2][]uint64 {
	if l.base == nil {
		return [2][]uint64{l.allocOrder}
	}
	return [2][]uint64{l.base.allocOrder, l.allocOrder}
}

// each calls fn with every entry in creation order, as this log sees it.
func (l *Log) each(fn func(*Entry)) {
	for _, part := range l.orders() {
		for _, e := range part {
			fn(l.view(e))
		}
	}
}

// view returns the entry behind a canonical pointer as this log sees it
// (nil for nil).
func (l *Log) view(e *Entry) *Entry {
	if c := l.clones[e]; c != nil {
		return c
	}
	return e
}

// mut returns an entry this log may write: a fork clones a base entry the
// first time it writes it. e is a view (from entry, seqEntry or view).
func (l *Log) mut(e *Entry) *Entry {
	if l.base == nil || l.base.entries[entryKey{e.Addr, e.Words}] != e {
		return e
	}
	c := *e
	c.Versions = slices.Clone(e.Versions)
	if l.clones == nil {
		l.clones = map[*Entry]*Entry{}
	}
	l.clones[e] = &c
	return &c
}

// entry returns the entry for a range as this log sees it, or nil.
func (l *Log) entry(k entryKey) *Entry {
	if e := l.entries[k]; e != nil || l.base == nil {
		return e
	}
	return l.view(l.base.entries[k])
}

// seqEntry returns the entry retaining a sequence number as this log sees
// it, or nil.
func (l *Log) seqEntry(seq uint64) *Entry {
	if e, ok := l.bySeq[seq]; ok || l.base == nil {
		return e
	}
	return l.view(l.base.bySeq[seq])
}

// dropSeq forgets a sequence number whose version was dropped.
func (l *Log) dropSeq(seq uint64) {
	if l.base == nil {
		delete(l.bySeq, seq)
	} else {
		l.bySeq[seq] = nil
	}
}

// alloc returns the allocation record at addr, or nil. A fork copies a
// base record before writing it (onFree).
func (l *Log) alloc(addr uint64) *AllocRecord {
	if rec, ok := l.allocs[addr]; ok || l.base == nil {
		return rec
	}
	return l.base.allocs[addr]
}
