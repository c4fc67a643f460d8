package checkpoint

import "arthas/internal/obs"

// Log forking for speculative mitigation (see docs/PARALLEL_MITIGATION.md).
//
// A parallel reversion search runs one trial per fork of the target pool;
// each trial reverts and re-executes, which both MOVE entry cursors (live
// indexes, dead flags) and APPEND new versions (the probe's own persists).
// The shared log must see none of that until a winner is chosen, so each
// trial gets a fork: entry structs and version slices are copied (cheap —
// the Version.Data payloads are immutable once recorded and stay shared),
// while reversion cursors, the seq counters, and the allocation table are
// all fork-local. The winning trial's log replaces the shared one via Adopt;
// losing forks are dropped.

// Fork returns a deep-enough copy of the log for one speculative trial:
// entries, version slices, cursors, sequence counters, and allocation
// records are fork-local; version payload data is shared read-only. The
// fork's hooks (Hooks()) feed the fork, so wiring them into a forked pool
// isolates the trial completely. The fork starts with the no-op sink.
func (l *Log) Fork() *Log {
	f := &Log{
		MaxVersions:    l.MaxVersions,
		entries:        make(map[entryKey]*Entry, len(l.entries)),
		order:          append([]entryKey(nil), l.order...),
		bySeq:          make(map[uint64]*Entry, len(l.bySeq)),
		seq:            l.seq,
		txSeq:          l.txSeq,
		inTx:           l.inTx,
		allocs:         make(map[uint64]*AllocRecord, len(l.allocs)),
		allocOrder:     append([]uint64(nil), l.allocOrder...),
		totalVersions:  l.totalVersions,
		versionedWords: l.versionedWords,
		sink:           obs.Nop(),
	}
	// Copy entries with fresh Version slice headers: onPersist's drop-oldest
	// shifts elements of the backing array in place, so sharing headers
	// would let a fork's appends corrupt its siblings. Data payloads are
	// never mutated after recording and are safely shared.
	remap := make(map[*Entry]*Entry, len(l.entries))
	for k, e := range l.entries {
		ne := &Entry{
			Addr:     e.Addr,
			Words:    e.Words,
			Versions: append([]Version(nil), e.Versions...),
			live:     e.live,
			resynced: e.resynced,
			dead:     e.dead,
		}
		remap[e] = ne
		f.entries[k] = ne
	}
	for k, e := range l.entries {
		if e.OldEntry != nil {
			if ne, ok := remap[e.OldEntry]; ok {
				f.entries[k].OldEntry = ne
			}
		}
	}
	// bySeq holds only retained seqs; rebuild it against the forked entries.
	for s, e := range l.bySeq {
		if ne, ok := remap[e]; ok {
			f.bySeq[s] = ne
		}
	}
	for a, r := range l.allocs {
		cp := *r
		f.allocs[a] = &cp
	}
	return f
}

// Adopt replaces the log's contents with a fork's — the promotion step after
// a speculative trial wins. The receiver keeps its own sink (and the hook
// closures previously handed out by Hooks() remain valid: they capture the
// *Log pointer, whose contents this rewrites). The fork must come from this
// log's Fork() and must no longer be in use by any worker.
func (l *Log) Adopt(f *Log) {
	// The fork ran dark: what this log recorded itself is published, what
	// the fork recorded is adopted as already accounted for.
	l.FlushObs()
	l.MaxVersions = f.MaxVersions
	l.entries = f.entries
	l.order = f.order
	l.bySeq = f.bySeq
	l.seq = f.seq
	l.txSeq = f.txSeq
	l.inTx = f.inTx
	l.allocs = f.allocs
	l.allocOrder = f.allocOrder
	l.totalVersions = f.totalVersions
	l.versionedWords = f.versionedWords
	l.markPublished()
	if l.obsOn {
		l.sink.SetGauge("ckpt.entries", int64(len(l.entries)))
		l.sink.SetGauge("ckpt.total_versions", int64(l.totalVersions))
	}
	l.noteReversion()
}
