package trace

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Trace serialization: the paper's PM address trace is a file that outlives
// the process (§4.1 tracing flushes to a file; §5 the reactor server parses
// it incrementally). Serializing the trace alongside the pool file keeps
// slice→address resolution working across process restarts.

const (
	traceMagic   uint64 = 0x41525448_54524345 // "ARTH TRCE"
	traceVersion uint64 = 1
)

// WriteTo serializes the trace (flushed events, the clock, and the recent-
// reads ring, oldest read first). It implements io.WriterTo.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	t.Flush()
	var (
		written int64
		err     error
		buf     []byte
	)
	put := func(vs ...uint64) { // a no-op once a write has failed
		if err != nil {
			return
		}
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		var n int
		n, err = w.Write(buf)
		written += int64(n)
	}
	put(traceMagic, traceVersion, t.next, uint64(len(t.flushed)))
	for _, e := range t.flushed {
		put(uint64(e.GUID), e.Addr, e.Idx)
	}
	// Ring: persist only the retained reads, oldest first, so the reader
	// can load them into slots 0..n-1 and keep evicting the oldest.
	oldest := t.oldestRead()
	put(uint64(t.ringNext - oldest))
	for i := oldest; i < t.ringNext; i++ {
		e := t.ring[i&(ringSize-1)]
		put(uint64(e.GUID), e.Addr, e.Idx)
	}
	return written, err
}

// ReadTrace deserializes a trace written by WriteTo.
func ReadTrace(r io.Reader) (*Trace, error) {
	get := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	getEvent := func() (Event, error) {
		var buf [24]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return Event{}, err
		}
		le := binary.LittleEndian
		return Event{GUID: int(le.Uint64(buf[:])), Addr: le.Uint64(buf[8:]), Idx: le.Uint64(buf[16:])}, nil
	}
	magic, err := get()
	if err != nil {
		return nil, fmt.Errorf("trace: reading image: %w", err)
	}
	if magic != traceMagic {
		return nil, fmt.Errorf("trace: not a trace image (magic %#x)", magic)
	}
	version, err := get()
	if err != nil {
		return nil, err
	}
	if version != traceVersion {
		return nil, fmt.Errorf("trace: image version %d, want %d", version, traceVersion)
	}
	t := New()
	next, err := get()
	if err != nil {
		return nil, err
	}
	t.next = next
	nEvents, err := get()
	if err != nil {
		return nil, err
	}
	if nEvents > 1<<30 {
		return nil, fmt.Errorf("trace: implausible event count %d", nEvents)
	}
	for i := uint64(0); i < nEvents; i++ {
		e, err := getEvent()
		if err != nil {
			return nil, err
		}
		t.flushed = append(t.flushed, e)
	}
	nRing, err := get()
	if err != nil {
		return nil, err
	}
	if nRing > ringSize {
		return nil, fmt.Errorf("trace: implausible ring count %d", nRing)
	}
	for i := uint64(0); i < nRing; i++ {
		if t.ring[i], err = getEvent(); err != nil {
			return nil, err
		}
		t.ringNext++
	}
	return t, nil
}
