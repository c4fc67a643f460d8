package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrCorruptLog marks a checkpoint-log image that is truncated or
// structurally undecodable. All ReadLog failures wrap it so callers can
// classify with errors.Is instead of string matching.
var ErrCorruptLog = errors.New("checkpoint: corrupt log image")

// Checkpoint log serialization. The paper's checkpoint log lives in
// persistent memory (§4.2 "initializes a checkpoint log in persistent
// memory"), so it survives process restarts; reversion history recorded
// before a crash remains usable after. Serializing the log alongside the
// pool file reproduces that property.

const (
	logMagic   uint64 = 0x41525448_434B5054 // "ARTH CKPT"
	logVersion uint64 = 1
)

type u64Writer struct {
	w   io.Writer
	n   int64
	err error
}

func (u *u64Writer) put(v uint64) {
	if u.err != nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	n, err := u.w.Write(buf[:])
	u.n += int64(n)
	u.err = err
}

type u64Reader struct {
	r   io.Reader
	err error
}

func (u *u64Reader) get() uint64 {
	if u.err != nil {
		return 0
	}
	var buf [8]byte
	if _, err := io.ReadFull(u.r, buf[:]); err != nil {
		u.err = err
		return 0
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// WriteTo serializes the log. It implements io.WriterTo.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	u := &u64Writer{w: w}
	u.put(logMagic)
	u.put(logVersion)
	u.put(uint64(l.MaxVersions))
	u.put(l.seq)
	u.put(l.txSeq)
	u.put(l.totalVersions)

	// Entries in creation order; OldEntry references encode as the order
	// index of the target (+1; 0 = none).
	orderIdx := map[*Entry]uint64{}
	for i, e := range l.order {
		orderIdx[e] = uint64(i + 1)
	}
	u.put(uint64(len(l.order)))
	for _, e := range l.order {
		u.put(e.Addr)
		u.put(uint64(e.Words))
		u.put(uint64(int64(e.live))) // two's complement for -1
		u.put(b2u(e.dead))
		u.put(b2u(e.resynced))
		u.put(orderIdx[e.OldEntry]) // 0 when nil
		u.put(uint64(len(e.Versions)))
		for _, v := range e.Versions {
			u.put(v.Seq)
			u.put(v.Tx)
			u.put(uint64(len(v.Data)))
			for _, word := range v.Data {
				u.put(word)
			}
		}
	}

	u.put(uint64(len(l.allocOrder)))
	for _, a := range l.allocOrder {
		rec := l.allocs[a]
		u.put(rec.Addr)
		u.put(uint64(rec.Words))
		u.put(rec.Seq)
		u.put(b2u(rec.Freed))
		u.put(b2u(rec.Realloc))
	}
	return u.n, u.err
}

// ReadLog deserializes a log written by WriteTo.
func ReadLog(r io.Reader) (*Log, error) {
	u := &u64Reader{r: r}
	if m := u.get(); u.err != nil || m != logMagic {
		return nil, fmt.Errorf("%w: not a log image (err=%v)", ErrCorruptLog, u.err)
	}
	if v := u.get(); v != logVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCorruptLog, v, logVersion)
	}
	l := NewLog(int(u.get()))
	l.seq = u.get()
	l.txSeq = u.get()
	l.totalVersions = u.get()

	nEntries := u.get()
	if u.err != nil {
		return nil, fmt.Errorf("%w: truncated header: %v", ErrCorruptLog, u.err)
	}
	if nEntries > 1<<28 {
		return nil, fmt.Errorf("%w: implausible entry count %d", ErrCorruptLog, nEntries)
	}
	oldRefs := make([]uint64, nEntries)
	for i := uint64(0); i < nEntries; i++ {
		e := &Entry{
			Addr:  u.get(),
			Words: int(u.get()),
		}
		e.live = int(int64(u.get()))
		e.dead = u.get() != 0
		e.resynced = u.get() != 0
		oldRefs[i] = u.get()
		nv := u.get()
		if u.err != nil {
			return nil, fmt.Errorf("%w: truncated entry %d: %v", ErrCorruptLog, i, u.err)
		}
		if e.Words <= 0 || e.Words > 1<<24 {
			return nil, fmt.Errorf("%w: entry %d has implausible size %d", ErrCorruptLog, i, e.Words)
		}
		if nv > 1<<20 {
			return nil, fmt.Errorf("%w: implausible version count %d", ErrCorruptLog, nv)
		}
		for j := uint64(0); j < nv; j++ {
			v := Version{Seq: u.get(), Tx: u.get()}
			nd := u.get()
			if u.err != nil {
				return nil, fmt.Errorf("%w: truncated entry %d version %d: %v", ErrCorruptLog, i, j, u.err)
			}
			if nd > 1<<24 {
				return nil, fmt.Errorf("%w: implausible data length %d", ErrCorruptLog, nd)
			}
			v.Data = make([]uint64, nd)
			for w := range v.Data {
				v.Data[w] = u.get()
			}
			e.Versions = append(e.Versions, v)
			l.bySeq[v.Seq] = e
		}
		l.entries[entryKey{e.Addr, e.Words}] = e
		l.order = append(l.order, e)
	}
	for i, ref := range oldRefs {
		if ref != 0 && int(ref-1) < len(l.order) {
			l.order[i].OldEntry = l.order[ref-1]
		}
	}

	nAllocs := u.get()
	if u.err != nil {
		return nil, fmt.Errorf("%w: truncated alloc section: %v", ErrCorruptLog, u.err)
	}
	if nAllocs > 1<<28 {
		return nil, fmt.Errorf("%w: implausible alloc count %d", ErrCorruptLog, nAllocs)
	}
	for i := uint64(0); i < nAllocs; i++ {
		rec := &AllocRecord{
			Addr:  u.get(),
			Words: int(u.get()),
			Seq:   u.get(),
		}
		rec.Freed = u.get() != 0
		rec.Realloc = u.get() != 0
		if u.err == nil && (rec.Words <= 0 || rec.Words > 1<<24) {
			return nil, fmt.Errorf("%w: alloc record %d has implausible size %d", ErrCorruptLog, i, rec.Words)
		}
		l.allocs[rec.Addr] = rec
		l.allocOrder = append(l.allocOrder, rec.Addr)
	}
	if u.err != nil {
		return nil, fmt.Errorf("%w: truncated alloc section: %v", ErrCorruptLog, u.err)
	}
	return l, nil
}
