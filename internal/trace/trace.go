// Package trace implements the lightweight runtime PM-address tracing of
// paper §4.1: instrumented PM instructions emit <GUID, pmem_address> events;
// the tracer buffers them in memory and flushes in batches so the hot path
// is a plain append. All lookup indexes are built lazily and incrementally
// at query time — mirroring the paper's reactor server, which parses the
// trace file on a background thread rather than taxing the target system
// (§5). The Arthas reactor joins the trace with the static GUID metadata
// and the checkpoint log to map slice nodes to concrete checkpoint
// sequence numbers.
package trace

import (
	"sort"
	"sync"

	"arthas/internal/obs"
)

// Event is one <GUID, address> record, stamped with the global event index
// so the reactor can reason about relative order.
type Event struct {
	GUID int
	Addr uint64
	Idx  uint64
}

// Trace accumulates PM address events for one system run (including across
// restarts — the paper's trace file outlives the process).
type Trace struct {
	// BufSize is the in-memory buffer capacity before a flush (default 4096).
	BufSize int

	buf     []Event
	flushed []Event
	next    uint64
	flushes int

	// Read events (PM loads) never create checkpoint entries; they only
	// feed the recency signal, so they live in a bounded ring rather than
	// the persistent event list. This keeps the per-load cost at one
	// fixed-slot write and the memory bounded no matter how hot the read
	// path is.
	ring     []Event
	ringNext int

	// Lazily built indexes over flushed[:indexed] and ring[:ringIndexed].
	indexed     int
	ringIndexed int
	byGUID      map[int][]uint64
	byAddr      map[uint64][]int
	// lastTouch records, per GUID, the most recent event index per address
	// — the recency signal the reactor's candidate ordering uses (the
	// failing execution touches the bad state last).
	lastTouch map[int]map[uint64]uint64

	// sink receives tracing telemetry; obsOn caches sink.Enabled(). Record
	// and RecordRead never call it: FlushObs publishes what tally() counts,
	// less what published says the sink has already been told.
	sink      obs.Sink
	obsOn     bool
	published tally

	// qmu serializes the query side (ensureIndex lazily mutates the index
	// maps): parallel speculative-mitigation workers query one shared
	// trace concurrently. Recording stays lock-free — it never runs
	// concurrently with itself or with queries (the traced machine is
	// idle while the reactor searches, and forks record no trace).
	qmu sync.Mutex
}

// ringSize bounds retained read events (a power of two).
const ringSize = 1 << 16

// New creates a trace with the default buffer size.
func New() *Trace {
	t := NewWithoutReads()
	t.ring = make([]Event, ringSize)
	return t
}

// NewWithoutReads creates a trace with no read ring, for an instance whose
// machine is never wired to RecordRead (a fork, whose trace layer is
// detached): it answers every query, but RecordRead on it panics.
func NewWithoutReads() *Trace {
	return &Trace{
		BufSize:   4096,
		byGUID:    map[int][]uint64{},
		byAddr:    map[uint64][]int{},
		lastTouch: map[int]map[uint64]uint64{},
		sink:      obs.Nop(),
	}
}

// SetSink installs an observability sink (nil restores the no-op). The
// outgoing sink is flushed first; the incoming one hears only what happens
// from here on.
func (t *Trace) SetSink(s obs.Sink) {
	t.FlushObs()
	t.sink = obs.OrNop(s)
	t.obsOn = t.sink.Enabled()
	t.published = t.tally()
}

// tally is the trace's lifetime activity, read off the state the hot paths
// maintain anyway.
type tally struct{ events, reads, flushes, flushed uint64 }

func (t *Trace) tally() tally {
	return tally{uint64(t.Len()), uint64(t.Reads()), uint64(t.flushes), uint64(len(t.flushed))}
}

// FlushObs publishes the activity since the last flush — one Count per
// counter that moved — and samples trace.buffered when the buffer changed.
// The machine calls it at the end of every Call (vm.Machine.ObsFlush), so
// counters are exact at request boundaries at no cost per event.
func (t *Trace) FlushObs() {
	if !t.obsOn {
		return
	}
	cur, pub := t.tally(), &t.published
	recorded := obs.CountDelta(t.sink, "trace.events", cur.events, &pub.events)
	obs.CountDelta(t.sink, "trace.read_events", cur.reads, &pub.reads)
	drained := obs.CountDelta(t.sink, "trace.flushes", cur.flushes, &pub.flushes)
	obs.CountDelta(t.sink, "trace.flushed_events", cur.flushed, &pub.flushed)
	if recorded || drained {
		t.sink.SetGauge("trace.buffered", int64(len(t.buf)))
	}
}

// Record appends one event; it is the VM's TraceSink for PM writes
// (stores, persists, allocations, frees, root updates). The hot path is a
// single slice append (the paper inlines its tracing call and buffers
// events for the same reason).
func (t *Trace) Record(guid int, addr uint64) {
	t.buf = append(t.buf, Event{GUID: guid, Addr: addr, Idx: t.next})
	t.next++
	if len(t.buf) >= t.BufSize {
		t.Flush()
	}
}

// RecordRead notes a PM read. Reads never map to checkpoint entries of
// their own; they contribute only the recency signal, so they are kept in
// a fixed-size ring (one slot write, no allocation) holding the most recent
// ringSize reads.
func (t *Trace) RecordRead(guid int, addr uint64) {
	t.ring[t.ringNext&(ringSize-1)] = Event{GUID: guid, Addr: addr, Idx: t.next}
	t.ringNext++
	t.next++
}

// Flush drains the buffer into the persistent side of the trace. Called
// automatically when the buffer fills and by readers before queries.
// Indexing is NOT done here: it happens lazily at query time.
func (t *Trace) Flush() {
	if len(t.buf) == 0 {
		return
	}
	t.flushes++
	t.flushed = append(t.flushed, t.buf...)
	t.buf = t.buf[:0]
}

// ensureIndex incrementally indexes write events not yet covered, then
// overlays the retained read ring onto the recency map.
func (t *Trace) ensureIndex() {
	t.Flush()
	touch := func(guid int, addr, idx uint64) {
		lt := t.lastTouch[guid]
		if lt == nil {
			lt = map[uint64]uint64{}
			t.lastTouch[guid] = lt
		}
		if idx >= lt[addr] {
			lt[addr] = idx
		}
	}
	for _, e := range t.flushed[t.indexed:] {
		addrs := t.byGUID[e.GUID]
		if len(addrs) == 0 || addrs[len(addrs)-1] != e.Addr {
			t.byGUID[e.GUID] = append(addrs, e.Addr)
		}
		guids := t.byAddr[e.Addr]
		if len(guids) == 0 || guids[len(guids)-1] != e.GUID {
			t.byAddr[e.Addr] = append(guids, e.GUID)
		}
		touch(e.GUID, e.Addr, e.Idx)
	}
	t.indexed = len(t.flushed)
	if t.ringNext != t.ringIndexed {
		n := t.ringNext
		if n > ringSize {
			n = ringSize
		}
		for i := 0; i < n; i++ {
			e := t.ring[i]
			if e.GUID != 0 {
				touch(e.GUID, e.Addr, e.Idx)
			}
		}
		t.ringIndexed = t.ringNext
	}
}

// Events returns all recorded events in order.
func (t *Trace) Events() []Event {
	t.Flush()
	return t.flushed
}

// Len returns the number of recorded events.
func (t *Trace) Len() int { return len(t.flushed) + len(t.buf) }

// Reads returns the number of read events ever recorded (the ring retains
// only the most recent ringSize of them).
func (t *Trace) Reads() int { return t.ringNext }

// Flushes returns how many buffer flushes occurred (overhead diagnostics).
func (t *Trace) Flushes() int { return t.flushes }

// AddrsOfGUID returns the distinct addresses an instrumented instruction
// touched, in first-touch order. "One dependent instruction in a slice may
// be invoked many times" (paper §6.4) — this is exactly that aliasing.
func (t *Trace) AddrsOfGUID(guid int) []uint64 {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	t.ensureIndex()
	seen := map[uint64]bool{}
	var out []uint64
	for _, a := range t.byGUID[guid] {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// AddrsOfGUIDByRecency returns the distinct addresses an instrumented
// instruction touched, most recently touched first. The failing execution
// is the last to run, so its addresses — the contaminated ones — lead.
func (t *Trace) AddrsOfGUIDByRecency(guid int) []uint64 {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	t.ensureIndex()
	lt := t.lastTouch[guid]
	out := make([]uint64, 0, len(lt))
	for a := range lt {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if lt[out[i]] != lt[out[j]] {
			return lt[out[i]] > lt[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// GUIDsOfAddr returns the distinct GUIDs that touched an address.
func (t *Trace) GUIDsOfAddr(addr uint64) []int {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	t.ensureIndex()
	seen := map[int]bool{}
	var out []int
	for _, g := range t.byAddr[addr] {
		if !seen[g] {
			seen[g] = true
			out = append(out, g)
		}
	}
	sort.Ints(out)
	return out
}
