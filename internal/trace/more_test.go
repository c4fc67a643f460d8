package trace

import "testing"

func TestRecordReadRecency(t *testing.T) {
	tr := New()
	tr.Record(1, 100)     // write
	tr.RecordRead(2, 200) // read
	tr.RecordRead(2, 300)
	tr.RecordRead(2, 200) // 200 touched again, most recent

	addrs := recency(tr, 2)
	if len(addrs) != 2 || addrs[0] != 200 || addrs[1] != 300 {
		t.Fatalf("read recency = %v", addrs)
	}
	// Reads do not count as writes.
	if got := tr.AddrsOfGUID(2); got != nil {
		t.Fatalf("reads leaked into the write query: %v", got)
	}
}

func TestReadsAndWritesShareRecencyClock(t *testing.T) {
	tr := New()
	tr.Record(1, 100)
	tr.RecordRead(1, 500)
	// The read came later: it leads the recency list for guid 1.
	addrs := recency(tr, 1)
	if len(addrs) != 2 || addrs[0] != 500 || addrs[1] != 100 {
		t.Fatalf("recency = %v", addrs)
	}
}

func TestReadRingWraps(t *testing.T) {
	tr := New()
	// Overfill the ring; only recent reads remain influential, but the
	// tracer must not crash or mis-index.
	for i := 0; i < ringSize+500; i++ {
		tr.RecordRead(7, uint64(1000+i%64))
	}
	addrs := recency(tr, 7)
	if len(addrs) != 64 {
		t.Fatalf("distinct addrs = %d", len(addrs))
	}
}

func TestIncrementalIndexing(t *testing.T) {
	tr := New()
	tr.Record(1, 100)
	_ = tr.AddrsOfGUID(1) // an earlier query
	tr.Record(1, 200)     // an event after it
	addrs := tr.AddrsOfGUID(1)
	if len(addrs) != 2 {
		t.Fatalf("query missed a later event: %v", addrs)
	}
	tr.Record(2, 100)
	if got := recency(tr, 2); len(got) != 1 || got[0] != 100 {
		t.Fatalf("recency(2) = %v", got)
	}
}

func TestEventsIncludeIdx(t *testing.T) {
	tr := New()
	tr.Record(1, 10)
	tr.RecordRead(2, 20) // consumes a clock tick
	tr.Record(3, 30)
	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("events = %v", evs)
	}
	if evs[1].Idx != 2 {
		t.Fatalf("write idx = %d, want 2 (read consumed tick 1)", evs[1].Idx)
	}
}

func TestEmptyTraceQueries(t *testing.T) {
	tr := New()
	if tr.Len() != 0 || tr.Flushes() != 0 {
		t.Fatal("fresh trace not empty")
	}
	if tr.AddrsOfGUID(1) != nil || len(tr.AddrsByFirstWrite(nil)) != 0 {
		t.Fatal("empty queries returned data")
	}
	if got := recency(tr, 1); len(got) != 0 {
		t.Fatalf("recency on empty = %v", got)
	}
}
