package checkpoint

import "fmt"

// Structural validation of a checkpoint log.
//
// The log is itself persistent state (paper §4.2: it lives in PM), so a
// crash — real or injected by the torture harness — must never leave it in
// a state that breaks the invariants reversion relies on. Validate checks
// exactly those invariants; the torture harness runs it on every recovered
// log, and `arthas-inspect verify` fails an image whose log does not pass.

// ValidateReport collects structural problems found in a log.
type ValidateReport struct {
	Problems []string
}

// OK reports whether the log is well-formed.
func (r *ValidateReport) OK() bool { return len(r.Problems) == 0 }

func (r *ValidateReport) String() string {
	if r.OK() {
		return "checkpoint log OK"
	}
	s := fmt.Sprintf("checkpoint log: %d problem(s)", len(r.Problems))
	for _, p := range r.Problems {
		s += "\n  " + p
	}
	return s
}

func (r *ValidateReport) addf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Validate checks the log's structural invariants:
//
//   - every entry's live cursor indexes a real version (or -1 = fully
//     reverted), and dead entries sit at live == -1;
//   - version sequence numbers within an entry are strictly ascending
//     (versions are recorded in logical-time order) and none exceeds the
//     log's global sequence counter;
//   - version data lengths match the entry's range width — an entry whose
//     recorded bytes could not restore its own range is useless for
//     reversion;
//   - version counts respect MaxVersions;
//   - no two versions anywhere share a sequence number (the global order
//     is total), and the bySeq index agrees with the entries;
//   - transaction ids never exceed the transaction counter;
//   - allocation records are consistent (positive sizes, seqs within
//     range).
func (l *Log) Validate() *ValidateReport {
	r := &ValidateReport{}
	versionCount := 0
	seqSeen := map[uint64]bool{}
	for _, e := range l.order {
		name := fmt.Sprintf("entry {%#x,%d}", e.Addr, e.Words)
		if l.entries[entryKey{e.Addr, e.Words}] != e {
			r.addf("%s: not the entry its range indexes", name)
		}
		if e.Words <= 0 {
			r.addf("%s: non-positive range width", name)
		}
		if e.live < -1 || e.live >= len(e.Versions) {
			r.addf("%s: live cursor %d out of range [-1,%d)", name, e.live, len(e.Versions))
		}
		if e.dead && e.live != -1 {
			r.addf("%s: dead but live cursor is %d", name, e.live)
		}
		if len(e.Versions) > l.MaxVersions {
			r.addf("%s: %d versions exceed cap %d", name, len(e.Versions), l.MaxVersions)
		}
		prevSeq := uint64(0)
		for i, v := range e.Versions {
			if len(v.Data) != e.Words {
				r.addf("%s: version %d has %d data words, want %d", name, i, len(v.Data), e.Words)
			}
			if v.Seq > l.seq {
				r.addf("%s: version %d seq %d exceeds log seq %d", name, i, v.Seq, l.seq)
			}
			if i > 0 && v.Seq <= prevSeq {
				r.addf("%s: version seqs not ascending (%d after %d)", name, v.Seq, prevSeq)
			}
			prevSeq = v.Seq
			if seqSeen[v.Seq] {
				r.addf("%s: duplicate sequence number %d", name, v.Seq)
			}
			seqSeen[v.Seq] = true
			if v.Tx > l.txSeq {
				r.addf("%s: version %d tx id %d exceeds tx counter %d", name, i, v.Tx, l.txSeq)
			}
			versionCount++
		}
	}
	// The bySeq index must agree with the entries exactly: an index entry
	// with no backing version (or vice versa) would misdirect reversion.
	if len(l.bySeq) != versionCount {
		r.addf("seq index has %d entries, versions total %d", len(l.bySeq), versionCount)
	}
	for seq, e := range l.bySeq {
		if !seqSeen[seq] {
			r.addf("seq index references unknown sequence %d", seq)
			continue
		}
		found := false
		for _, v := range e.Versions {
			if v.Seq == seq {
				found = true
				break
			}
		}
		if !found {
			r.addf("seq index maps %d to an entry that lacks that version", seq)
		}
	}
	for i, a := range l.allocOrder {
		rec := l.allocs[a]
		if rec == nil {
			r.addf("alloc order references missing record %#x", a)
			continue
		}
		if rec.Words <= 0 {
			r.addf("alloc record %d (%#x): non-positive size %d", i, rec.Addr, rec.Words)
		}
		if rec.Seq > l.seq {
			r.addf("alloc record %d (%#x): seq %d exceeds log seq %d", i, rec.Addr, rec.Seq, l.seq)
		}
	}
	return r
}
