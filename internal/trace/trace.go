// Package trace implements the lightweight runtime PM-address tracing of
// paper §4.1: instrumented PM instructions emit <GUID, pmem_address> events;
// the tracer buffers them in memory and flushes in batches so the hot path
// is a plain append. There is no lookup index: a query makes one pass over
// the retained events — every write, and the reads still in the bounded
// read ring — for a whole batch of GUIDs, off the traced system's critical
// path like the paper's reactor server, which parses the trace file on a
// background thread (§5). The Arthas reactor joins the answers with the
// static GUID metadata and the checkpoint log to map slice nodes to
// concrete checkpoint sequence numbers.
package trace

import (
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
	// path is. Read number n (from 0) sits in slot n%ringSize.
	ring     []Event
	ringNext int

	// sink receives tracing telemetry; obsOn caches sink.Enabled(). Record
	// and RecordRead never call it: FlushObs publishes what tally() counts,
	// less what published says the sink has already been told.
	sink      obs.Sink
	obsOn     bool
	published tally

	// qmu serializes the query side (a query drains the buffer):
	// parallel speculative-mitigation workers query one shared trace
	// concurrently. Recording stays lock-free — it never runs concurrently
	// with itself or with queries (the traced machine is idle while the
	// reactor searches, and forks record no trace).
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
	return &Trace{BufSize: 4096, sink: obs.Nop()}
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
func (t *Trace) Flush() {
	if len(t.buf) == 0 {
		return
	}
	t.flushes++
	t.flushed = append(t.flushed, t.buf...)
	t.buf = t.buf[:0]
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

// oldestRead is the number of the oldest read still in the ring.
func (t *Trace) oldestRead() int { return max(t.ringNext-len(t.ring), 0) }

// AddrsOfGUID returns the distinct addresses an instrumented instruction
// wrote, in first-touch order. "One dependent instruction in a slice may
// be invoked many times" (paper §6.4) — this is exactly that aliasing.
func (t *Trace) AddrsOfGUID(guid int) []uint64 {
	return t.AddrsByFirstWrite([]int{guid})[0]
}

// AddrsByFirstWrite answers AddrsOfGUID for every GUID in guids with one
// forward pass over the write events: out[i] lists the distinct addresses
// guids[i] wrote, in first-touch order (nil if it wrote none). Reads play
// no part.
func (t *Trace) AddrsByFirstWrite(guids []int) [][]uint64 {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	t.Flush()
	q := newQuery(guids)
	for i := range t.flushed {
		q.see(&t.flushed[i])
	}
	return q.result(guids)
}

// AddrsByRecency returns, for every GUID in guids, the distinct addresses
// it touched — writes, and the reads still in the ring — most recently
// touched first. The failing execution is the last to run, so its
// addresses (the contaminated ones) lead. One newest-first pass merges the
// write list with the read ring by event index; the first time it meets an
// address of a wanted GUID is that address's last retained touch, so the
// lists come out in order without a sort.
func (t *Trace) AddrsByRecency(guids []int) [][]uint64 {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	t.Flush()
	q := newQuery(guids)
	writes, ring := t.flushed, t.ring
	w, r, oldest := len(writes)-1, t.ringNext-1, t.oldestRead()
	for w >= 0 || r >= oldest {
		if r < oldest || w >= 0 && writes[w].Idx > ring[r&(ringSize-1)].Idx {
			q.see(&writes[w])
			w--
		} else {
			q.see(&ring[r&(ringSize-1)])
			r--
		}
	}
	return q.result(guids)
}

// query collects, per position of a batch of GUIDs, the distinct addresses
// of the events shown to it, in the order shown.
type query struct {
	slot  []int32    // GUID -> 1 + its first position; 0 = unwanted
	addrs [][]uint64 // per position, the answer so far
	seen  []map[uint64]struct{}
}

func newQuery(guids []int) *query {
	top := -1
	for _, g := range guids {
		top = max(top, g)
	}
	q := &query{slot: make([]int32, top+1), addrs: make([][]uint64, len(guids)),
		seen: make([]map[uint64]struct{}, len(guids))}
	for i, g := range guids {
		if g >= 0 && q.slot[g] == 0 {
			q.slot[g] = int32(i + 1)
		}
	}
	return q
}

// see is the per-event step: one slice lookup on the GUID, and add only
// for a wanted one.
func (q *query) see(e *Event) {
	if uint(e.GUID) < uint(len(q.slot)) {
		if k := q.slot[e.GUID]; k != 0 {
			q.add(k, e.Addr)
		}
	}
}

// add appends addr to position k-1's answer unless it is already there:
// one map assignment.
func (q *query) add(k int32, addr uint64) {
	m := q.seen[k-1]
	if m == nil {
		m = map[uint64]struct{}{}
		q.seen[k-1] = m
	}
	n := len(m)
	m[addr] = struct{}{}
	if len(m) > n {
		q.addrs[k-1] = append(q.addrs[k-1], addr)
	}
}

// result returns the per-position answers; a GUID listed twice shares its
// first position's slice.
func (q *query) result(guids []int) [][]uint64 {
	for i, g := range guids {
		if g >= 0 {
			q.addrs[i] = q.addrs[q.slot[g]-1]
		}
	}
	return q.addrs
}
