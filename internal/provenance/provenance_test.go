package provenance

import (
	"testing"

	"arthas/internal/checkpoint"
	"arthas/internal/obs"
	"arthas/internal/obs/obstest"
	"arthas/internal/pmem"
)

// newPersisted builds a pool+log+index with the index's hooks installed and
// one allocated buffer, returning all three plus the buffer address.
func newPersisted(t *testing.T, maxRecords int) (*pmem.Pool, *checkpoint.Log, *Index, uint64) {
	t.Helper()
	p := pmem.New(1 << 12)
	log := checkpoint.NewLog(3)
	x := New()
	if maxRecords > 0 {
		x.MaxRecords = maxRecords
	}
	p.SetHooks(x.WrapHooks(log.Hooks(), log))
	buf, err := p.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	return p, log, x, buf
}

func TestLineageStampsSeqAndTx(t *testing.T) {
	p, log, x, buf := newPersisted(t, 0)
	step := int64(0)
	x.SetClock(func() int64 { return step })

	step = 10
	x.NoteWrite(7, buf)
	p.Store(buf, 0xbeef)
	step = 20
	if err := p.Persist(buf, 1); err != nil {
		t.Fatal(err)
	}

	rec, ok := x.Lookup(buf)
	if !ok {
		t.Fatal("no lineage for persisted word")
	}
	if rec.GUID != 7 || rec.WriteStep != 10 || rec.PersistStep != 20 {
		t.Fatalf("record = %+v, want guid=7 write=10 persist=20", rec)
	}
	if rec.Seq != log.Seq() {
		t.Fatalf("record seq = %d, want log seq %d", rec.Seq, log.Seq())
	}
	if rec.Tx != 0 {
		t.Fatalf("non-tx persist carried tx %d", rec.Tx)
	}

	// Transactional persist carries the log's tx id.
	x.NoteWrite(9, buf+1)
	p.Store(buf+1, 0xcafe)
	if err := p.PersistTx([]pmem.Range{{Addr: buf + 1, Words: 1}}); err != nil {
		t.Fatal(err)
	}
	rec2, ok := x.Lookup(buf + 1)
	if !ok {
		t.Fatal("no lineage for tx-persisted word")
	}
	if rec2.GUID != 9 {
		t.Fatalf("tx record guid = %d, want 9", rec2.GUID)
	}
	if rec2.Tx == 0 || rec2.Tx != log.TxOf(rec2.Seq) {
		t.Fatalf("tx record tx = %d, want %d", rec2.Tx, log.TxOf(rec2.Seq))
	}
}

func TestRingEvictionAndStaleness(t *testing.T) {
	p, _, x, buf := newPersisted(t, 4)

	// Persist 8 distinct words through a 4-record ring: the first four
	// records age out.
	for w := 0; w < 8; w++ {
		p.Store(buf+uint64(w), uint64(w))
		if err := p.Persist(buf+uint64(w), 1); err != nil {
			t.Fatal(err)
		}
	}
	for w := 0; w < 4; w++ {
		if _, ok := x.Lookup(buf + uint64(w)); ok {
			t.Fatalf("word %d should have aged out of the 4-record ring", w)
		}
	}
	for w := 4; w < 8; w++ {
		if _, ok := x.Lookup(buf + uint64(w)); !ok {
			t.Fatalf("word %d should be resident", w)
		}
	}
	// Persist counts survive eviction.
	if n := x.Persists(buf); n != 1 {
		t.Fatalf("evicted word persist count = %d, want 1", n)
	}
	if _, ok := x.Lookup(buf + 100); ok {
		t.Fatal("never-persisted word resolved a record")
	}
}

func TestRedundantPersistAccounting(t *testing.T) {
	p, _, x, buf := newPersisted(t, 0)

	// Write+persist, then persist again with no intervening write: the
	// second word-persist is redundant.
	x.NoteWrite(3, buf)
	p.Store(buf, 1)
	if err := p.Persist(buf, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Persist(buf, 1); err != nil {
		t.Fatal(err)
	}
	// A fresh write clears the redundancy.
	x.NoteWrite(3, buf)
	p.Store(buf, 2)
	if err := p.Persist(buf, 1); err != nil {
		t.Fatal(err)
	}

	st := x.Stats()
	if st.RedundantPersists != 1 {
		t.Fatalf("redundant persists = %d, want 1", st.RedundantPersists)
	}
	if got := x.Persists(buf); got != 3 {
		t.Fatalf("lifetime persists = %d, want 3", got)
	}
	if st.PersistedWords != 3 || st.DistinctWords != 1 {
		t.Fatalf("persisted=%d distinct=%d, want 3/1", st.PersistedWords, st.DistinctWords)
	}
}

func TestStatsSitesDeterministicOrder(t *testing.T) {
	p, _, x, buf := newPersisted(t, 0)
	// Site 5 persists two words, sites 2 and 8 one each (tie broken by GUID).
	for i, guid := range []int{5, 5, 8, 2} {
		a := buf + uint64(i)
		x.NoteWrite(guid, a)
		p.Store(a, uint64(i))
		if err := p.Persist(a, 1); err != nil {
			t.Fatal(err)
		}
	}
	st := x.Stats()
	if len(st.Sites) != 3 {
		t.Fatalf("sites = %d, want 3", len(st.Sites))
	}
	if st.Sites[0].GUID != 5 || st.Sites[1].GUID != 2 || st.Sites[2].GUID != 8 {
		t.Fatalf("site order = %d,%d,%d, want 5,2,8",
			st.Sites[0].GUID, st.Sites[1].GUID, st.Sites[2].GUID)
	}
}

func TestAllocAttributionAndPublish(t *testing.T) {
	p, _, x, _ := newPersisted(t, 0)
	// A fresh alloc marks words dirty under GUID 0; persisting them is not
	// redundant even though no NoteWrite landed.
	b2, err := p.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	p.Store(b2, 9)
	if err := p.Persist(b2, 2); err != nil {
		t.Fatal(err)
	}
	if st := x.Stats(); st.RedundantPersists != 0 {
		t.Fatalf("fresh-alloc persist counted redundant: %+v", st)
	}
	rec, ok := x.Lookup(b2)
	if !ok || rec.GUID != 0 {
		t.Fatalf("alloc-attributed record = %+v ok=%v, want guid 0", rec, ok)
	}

	rec2 := obs.NewRecorder()
	x.Publish(rec2)
	if rec2.GaugeValue("prov.persisted_words") == 0 {
		t.Fatal("Publish exported no persisted-word gauge")
	}
}

// Lineage notes only append to the ring; FlushObs publishes how many.
func TestFlushObsPublishesLineageRecords(t *testing.T) {
	p, _, x, buf := newPersisted(t, 0)
	p.Store(buf, 1)
	p.Persist(buf, 1) // before any sink: nobody hears it
	rec := obs.NewRecorder()
	calls := &obstest.CallCounter{Inner: rec}
	x.SetSink(calls)
	for i := uint64(0); i < 4; i++ {
		x.NoteWrite(7, buf+i)
		p.Store(buf+i, i)
		p.Persist(buf+i, 3)
	}
	if n := calls.Calls(); n != 0 {
		t.Fatalf("4 noted persists made %d sink calls", n)
	}
	x.FlushObs()
	if got := rec.CounterValue("prov.lineage_records"); got != 12 {
		t.Fatalf("prov.lineage_records = %d, want 12", got)
	}
	if st := x.Stats(); st.PersistedWords != 13 {
		t.Fatalf("index counted %d persisted words, want 13", st.PersistedWords)
	}
	x.FlushObs()
	if calls.Calls() != 1 {
		t.Fatalf("idle flush made sink calls (%d in all)", calls.Calls())
	}
}
