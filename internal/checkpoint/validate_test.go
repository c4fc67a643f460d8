package checkpoint

import (
	"bytes"
	"errors"
	"testing"

	"arthas/internal/pmem"
)

func buildValidLog(t *testing.T) (*pmem.Pool, *Log) {
	t.Helper()
	pool, log := newRig(3)
	a, _ := pool.Alloc(4)
	for gen := uint64(1); gen <= 4; gen++ {
		pool.Store(a, gen)
		pool.Persist(a, 1)
	}
	pool.Store(a+1, 7)
	pool.Store(a+2, 8)
	pool.PersistTx([]pmem.Range{{Addr: a + 1, Words: 1}, {Addr: a + 2, Words: 1}})
	b, _ := pool.Alloc(2)
	pool.Free(b)
	log.Revert(pool, log.Seq())
	return pool, log
}

func TestValidateAcceptsHealthyLog(t *testing.T) {
	_, log := buildValidLog(t)
	if rep := log.Validate(); !rep.OK() {
		t.Fatalf("healthy log flagged: %v", rep)
	}
	// A serialization round trip stays valid.
	var buf bytes.Buffer
	log.WriteTo(&buf)
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep := got.Validate(); !rep.OK() {
		t.Fatalf("round-tripped log flagged: %v", rep)
	}
}

func TestValidateCatchesDamage(t *testing.T) {
	damage := []struct {
		name string
		hurt func(l *Log)
	}{
		{"live cursor out of range", func(l *Log) {
			l.order[0].live = 99
		}},
		{"dead with live cursor", func(l *Log) {
			e := l.order[0]
			e.dead = true
			e.live = 0
		}},
		{"version data width mismatch", func(l *Log) {
			e := l.order[0]
			e.Versions[0].Data = e.Versions[0].Data[:0]
		}},
		{"seq beyond counter", func(l *Log) {
			e := l.order[0]
			old := e.Versions[0].Seq
			e.Versions[0].Seq = l.seq + 1000
			delete(l.bySeq, old)
			l.bySeq[e.Versions[0].Seq] = e
		}},
		{"non-ascending version seqs", func(l *Log) {
			e := l.order[0]
			if len(e.Versions) < 2 {
				t.Skip("need 2 versions")
			}
			e.Versions[0].Seq, e.Versions[1].Seq = e.Versions[1].Seq, e.Versions[0].Seq
		}},
		{"tx beyond counter", func(l *Log) {
			e := l.order[0]
			e.Versions[0].Tx = l.txSeq + 50
		}},
		{"stale seq index", func(l *Log) {
			l.bySeq[l.seq+77] = l.order[0]
		}},
		{"alloc seq beyond counter", func(l *Log) {
			for _, a := range l.allocOrder {
				l.allocs[a].Seq = l.seq + 9
				return
			}
		}},
		{"alloc non-positive size", func(l *Log) {
			for _, a := range l.allocOrder {
				l.allocs[a].Words = 0
				return
			}
		}},
	}
	for _, d := range damage {
		_, log := buildValidLog(t)
		d.hurt(log)
		if rep := log.Validate(); rep.OK() {
			t.Fatalf("%s: not detected", d.name)
		}
	}
}

func TestReadLogTypedErrors(t *testing.T) {
	_, log := buildValidLog(t)
	var buf bytes.Buffer
	if _, err := log.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Every truncation point yields ErrCorruptLog, never a panic or nil.
	for cut := 0; cut < len(full); cut += 7 {
		_, err := ReadLog(bytes.NewReader(full[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !errors.Is(err, ErrCorruptLog) {
			t.Fatalf("truncation at %d: untyped error %v", cut, err)
		}
	}
	// Garbage and version damage too.
	if _, err := ReadLog(bytes.NewReader([]byte("junkjunkjunkjunk"))); !errors.Is(err, ErrCorruptLog) {
		t.Fatalf("garbage: %v", err)
	}
}
