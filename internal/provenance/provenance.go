// Package provenance is the fault-provenance layer: a ring-buffered per-word
// write-lineage index maintained at the pool's persistence points, plus the
// persist-amplification accounting built on the same hooks.
//
// The Index answers "who wrote this durable word, when, and under which
// checkpoint version?" — the causal evidence the paper's whole pipeline is
// built to exploit but that the PR 1/PR 2 telemetry never captured. Two feeds
// keep it current:
//
//   - the VM's WriteSink reports <GUID, address> for every instrumented PM
//     store, stamping the volatile last-writer map with the machine's logical
//     clock;
//   - the pool's persistence hooks (wrapped around the checkpoint log's via
//     WrapHooks) snapshot that last-writer state into a lineage Record per
//     persisted word, correlated with the checkpoint sequence number and
//     transaction id the log just assigned.
//
// Records live in a bounded ring (MaxRecords), so memory stays fixed no
// matter how hot the persist path is; a per-word index resolves the newest
// resident record in O(1). Nothing here runs unless an Index is attached:
// the disabled path is the existing nil-check per event site the rest of the
// observability layer already pays (see obs_overhead_bench_test.go).
//
// On top of the same per-word stream the Index accounts persist
// amplification: persists per durable word, the redundant-persist ratio
// (words persisted with no recorded write since their previous persist —
// exactly the flushes a Bentō-style flush-elimination pass would drop), and
// per-site hot-write tallies. Export via Stats or Publish.
package provenance

import (
	"sort"

	"arthas/internal/checkpoint"
	"arthas/internal/obs"
	"arthas/internal/pmem"
)

// DefaultMaxRecords bounds the lineage ring (per-word records).
const DefaultMaxRecords = 1 << 16

// Record is one lineage fact: the most recent persistence of one durable
// word, annotated with the write that produced the value.
type Record struct {
	// Addr is the persisted word.
	Addr uint64
	// Seq is the checkpoint sequence number assigned to the persist that
	// produced this record (0 when no checkpoint log was attached).
	Seq uint64
	// Tx is the checkpoint transaction id (0 = not transactional).
	Tx uint64
	// GUID is the instrumented instruction that last stored to the word
	// before it persisted (0 = unattributed: allocator zeroing, header
	// maintenance, or an uninstrumented write).
	GUID int
	// WriteStep is the VM logical time of that last store (0 if unknown).
	WriteStep int64
	// PersistStep is the VM logical time when the word became durable.
	PersistStep int64
	// Persists is the word's lifetime persist count at record time.
	Persists uint64
}

// writer is the volatile last-writer state of one word.
type writer struct {
	guid int
	step int64
	// dirty marks a recorded write since the word's last persist; a persist
	// finding dirty=false is redundant (flush-elimination candidate).
	dirty bool
	// durable marks a word whose current value is already durable with no
	// program persist recorded yet: the allocator zeroes and persists fresh
	// payloads behind the hooks, so persisting an untouched fresh word is
	// redundant even on its first recorded persist.
	durable bool
}

// SiteStat is one write site's amplification tally.
type SiteStat struct {
	GUID           int
	Writes         uint64 // stores recorded via NoteWrite
	PersistedWords uint64 // word-persists attributed to this site as last writer
}

// Stats is a point-in-time amplification snapshot.
type Stats struct {
	// Records counts lineage records ever appended; Resident is how many the
	// ring currently holds.
	Records  uint64
	Resident int
	// PersistOps counts persistence-hook invocations (one per persisted
	// range — the program's persist/fence barriers as the pool sees them).
	PersistOps uint64
	// PersistedWords counts word-persists; DistinctWords is how many
	// distinct durable words ever persisted. Their ratio is the mean
	// persist amplification per word.
	PersistedWords      uint64
	DistinctWords       int
	MeanPersistsPerWord float64
	// RedundantPersists counts word-persists with no recorded write since
	// the word's previous persist; RedundantRatio = redundant/persisted.
	RedundantPersists uint64
	RedundantRatio    float64
	// Transactions counts persistence transactions observed.
	Transactions uint64
	// Sites is the per-site hot-write table, hottest (most persisted words)
	// first, GUID ascending on ties — deterministic.
	Sites []SiteStat
}

// Index is the write-lineage ring plus amplification accounting for one
// pool. It is not safe for concurrent use; like the trace, it records only
// from the (single-threaded) machine and is queried while the machine idles.
// Speculative mitigation forks install plain log hooks, so probe traffic
// never pollutes the index — lineage always describes the primary timeline.
type Index struct {
	// MaxRecords bounds the ring (default DefaultMaxRecords). Set before
	// the first persist.
	MaxRecords int

	ring []Record
	next uint64 // lifetime records appended; next-1 is the newest id

	byAddr    map[uint64]uint64 // word -> id of its newest record
	lastWrite map[uint64]writer
	persists  map[uint64]uint64 // word -> lifetime persist count

	siteWrites   map[int]uint64
	sitePersists map[int]uint64

	persistOps     uint64
	persistedWords uint64
	redundant      uint64
	txCount        uint64

	clock func() int64

	// sink receives prov.lineage_records, which is next less published (the
	// part the sink has been told); notePersist never calls it, FlushObs does.
	sink      obs.Sink
	obsOn     bool
	published uint64
}

// New creates an empty lineage index.
func New() *Index {
	return &Index{
		MaxRecords:   DefaultMaxRecords,
		byAddr:       map[uint64]uint64{},
		lastWrite:    map[uint64]writer{},
		persists:     map[uint64]uint64{},
		siteWrites:   map[int]uint64{},
		sitePersists: map[int]uint64{},
		sink:         obs.Nop(),
	}
}

// SetClock installs the logical clock (normally the machine's step counter).
// Re-wire after every reboot: the machine is replaced on restart.
func (x *Index) SetClock(fn func() int64) { x.clock = fn }

// SetSink installs an observability sink (nil restores the no-op). The
// outgoing sink is flushed first; the incoming one hears only what happens
// from here on.
func (x *Index) SetSink(s obs.Sink) {
	x.FlushObs()
	x.sink = obs.OrNop(s)
	x.obsOn = x.sink.Enabled()
	x.published = x.next
}

// FlushObs publishes the lineage records appended since the last flush. The
// machine calls it at the end of every Call (vm.Machine.ObsFlush).
func (x *Index) FlushObs() {
	if x.obsOn {
		obs.CountDelta(x.sink, "prov.lineage_records", x.next, &x.published)
	}
}

func (x *Index) now() int64 {
	if x.clock == nil {
		return 0
	}
	return x.clock()
}

// NoteWrite records an instrumented PM store: it is the VM's WriteSink. The
// hot path is two map writes behind the machine's nil-check.
func (x *Index) NoteWrite(guid int, addr uint64) {
	x.lastWrite[addr] = writer{guid: guid, step: x.now(), dirty: true}
	x.siteWrites[guid]++
}

// noteAlloc marks a raw allocation's words as written (the payload may hold
// residue the program must overwrite); attribution is GUID 0 until an
// instrumented store lands.
func (x *Index) noteAlloc(addr uint64, words int) {
	step := x.now()
	for w := 0; w < words; w++ {
		x.lastWrite[addr+uint64(w)] = writer{step: step, dirty: true}
	}
}

// noteZeroed marks a zero-allocated payload durably clean: Zalloc zeroed and
// persisted it behind the hooks, so until a store lands, persisting any of
// these words is redundant — the durable and current values already agree.
func (x *Index) noteZeroed(addr uint64, words int) {
	step := x.now()
	for w := 0; w < words; w++ {
		x.lastWrite[addr+uint64(w)] = writer{step: step, durable: true}
	}
}

// notePersist appends one lineage record per persisted word. log, when
// non-nil, has already processed this persist (WrapHooks delegates first),
// so log.Seq() is the sequence number of the version just recorded.
func (x *Index) notePersist(addr uint64, words int, log *checkpoint.Log) {
	var seq, tx uint64
	if log != nil {
		seq = log.Seq()
		tx = log.TxOf(seq)
	}
	step := x.now()
	if x.ring == nil {
		if x.MaxRecords <= 0 {
			x.MaxRecords = DefaultMaxRecords
		}
		x.ring = make([]Record, x.MaxRecords)
	}
	x.persistOps++
	for w := 0; w < words; w++ {
		a := addr + uint64(w)
		x.persistedWords++
		n := x.persists[a] + 1
		x.persists[a] = n
		lw := x.lastWrite[a]
		if !lw.dirty && (n > 1 || lw.durable) {
			x.redundant++
		}
		if lw.dirty || !lw.durable {
			lw.dirty = false
			lw.durable = true
			x.lastWrite[a] = lw
		}
		x.sitePersists[lw.guid]++
		id := x.next
		x.next++
		x.ring[id%uint64(len(x.ring))] = Record{
			Addr: a, Seq: seq, Tx: tx,
			GUID: lw.guid, WriteStep: lw.step, PersistStep: step,
			Persists: n,
		}
		x.byAddr[a] = id
	}
}

// WrapHooks composes the index onto existing pool hooks (normally the
// checkpoint log's): every event reaches the inner hooks first, then the
// index stamps lineage using the state the log just committed. Install the
// result with pool.SetHooks. log may be nil (lineage then carries no
// checkpoint correlation).
func (x *Index) WrapHooks(h pmem.Hooks, log *checkpoint.Log) pmem.Hooks {
	return pmem.Hooks{
		OnPersist: func(addr uint64, data []uint64) {
			if h.OnPersist != nil {
				h.OnPersist(addr, data)
			}
			x.notePersist(addr, len(data), log)
		},
		OnTxBegin: func() {
			if h.OnTxBegin != nil {
				h.OnTxBegin()
			}
			x.txCount++
		},
		OnTxCommit: func() {
			if h.OnTxCommit != nil {
				h.OnTxCommit()
			}
		},
		OnAlloc: func(addr uint64, words int) {
			if h.OnAlloc != nil {
				h.OnAlloc(addr, words)
			}
			x.noteAlloc(addr, words)
		},
		OnFree: func(addr uint64, words int) {
			if h.OnFree != nil {
				h.OnFree(addr, words)
			}
		},
		OnZero: func(addr uint64, words int) {
			if h.OnZero != nil {
				h.OnZero(addr, words)
			}
			x.noteZeroed(addr, words)
		},
	}
}

// Snapshot deep-copies the index. Incident reports are built from a snapshot
// taken at failure time so that sequential mitigation — whose probe
// re-executions persist through the primary pool and keep feeding the live
// index — cannot make the report depend on the worker count (parallel forks
// install plain log hooks and leave the index frozen instead).
func (x *Index) Snapshot() *Index {
	c := New()
	c.MaxRecords = x.MaxRecords
	c.ring = append([]Record(nil), x.ring...)
	c.next = x.next
	for k, v := range x.byAddr {
		c.byAddr[k] = v
	}
	for k, v := range x.lastWrite {
		c.lastWrite[k] = v
	}
	for k, v := range x.persists {
		c.persists[k] = v
	}
	for k, v := range x.siteWrites {
		c.siteWrites[k] = v
	}
	for k, v := range x.sitePersists {
		c.sitePersists[k] = v
	}
	c.persistOps = x.persistOps
	c.persistedWords = x.persistedWords
	c.redundant = x.redundant
	c.txCount = x.txCount
	c.clock = x.clock
	return c
}

// Lookup returns the newest resident lineage record for a word. ok is false
// when the word never persisted or its record aged out of the ring.
func (x *Index) Lookup(addr uint64) (Record, bool) {
	id, present := x.byAddr[addr]
	if !present || len(x.ring) == 0 || x.next-id > uint64(len(x.ring)) {
		return Record{}, false
	}
	r := x.ring[id%uint64(len(x.ring))]
	if r.Addr != addr {
		return Record{}, false
	}
	return r, true
}

// Persists returns a word's lifetime persist count (0 = never persisted).
// Unlike Lookup it never ages out: the count survives ring eviction.
func (x *Index) Persists(addr uint64) uint64 { return x.persists[addr] }

// Stats snapshots the amplification accounting.
func (x *Index) Stats() Stats {
	st := Stats{
		Records:           x.next,
		PersistOps:        x.persistOps,
		PersistedWords:    x.persistedWords,
		DistinctWords:     len(x.persists),
		RedundantPersists: x.redundant,
		Transactions:      x.txCount,
	}
	if st.Records > uint64(len(x.ring)) {
		st.Resident = len(x.ring)
	} else {
		st.Resident = int(st.Records)
	}
	if st.DistinctWords > 0 {
		st.MeanPersistsPerWord = float64(st.PersistedWords) / float64(st.DistinctWords)
	}
	if st.PersistedWords > 0 {
		st.RedundantRatio = float64(st.RedundantPersists) / float64(st.PersistedWords)
	}
	for g, pw := range x.sitePersists {
		st.Sites = append(st.Sites, SiteStat{GUID: g, Writes: x.siteWrites[g], PersistedWords: pw})
	}
	for g, wr := range x.siteWrites {
		if _, seen := x.sitePersists[g]; !seen {
			st.Sites = append(st.Sites, SiteStat{GUID: g, Writes: wr})
		}
	}
	sort.Slice(st.Sites, func(i, j int) bool {
		if st.Sites[i].PersistedWords != st.Sites[j].PersistedWords {
			return st.Sites[i].PersistedWords > st.Sites[j].PersistedWords
		}
		return st.Sites[i].GUID < st.Sites[j].GUID
	})
	return st
}

// Publish exports the amplification snapshot through an observability sink:
// prov.* gauges for the scalar tallies plus one prov.site.persisted_words
// histogram sample per write site (the hot-write distribution).
func (x *Index) Publish(s obs.Sink) {
	if !obs.Enabled(s) {
		return
	}
	st := x.Stats()
	s.SetGauge("prov.records", int64(st.Records))
	s.SetGauge("prov.persist_ops", int64(st.PersistOps))
	s.SetGauge("prov.persisted_words", int64(st.PersistedWords))
	s.SetGauge("prov.distinct_words", int64(st.DistinctWords))
	s.SetGauge("prov.redundant_persists", int64(st.RedundantPersists))
	s.SetGauge("prov.transactions", int64(st.Transactions))
	for _, site := range st.Sites {
		s.Observe("prov.site.persisted_words", float64(site.PersistedWords))
	}
}
