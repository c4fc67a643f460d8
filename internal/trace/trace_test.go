package trace

import (
	"reflect"
	"testing"
	"testing/quick"

	"arthas/internal/obs"
	"arthas/internal/obs/obstest"
)

func TestRecordAndQuery(t *testing.T) {
	tr := New()
	tr.Record(1, 100)
	tr.Record(2, 200)
	tr.Record(1, 100)
	tr.Record(1, 300)

	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
	addrs := tr.AddrsOfGUID(1)
	if len(addrs) != 2 || addrs[0] != 100 || addrs[1] != 300 {
		t.Fatalf("AddrsOfGUID(1) = %v", addrs)
	}
	rec := recency(tr, 1)
	if len(rec) != 2 || rec[0] != 300 || rec[1] != 100 {
		t.Fatalf("recency(1) = %v", rec)
	}
	if got := tr.AddrsOfGUID(99); got != nil {
		t.Fatalf("unknown GUID addrs = %v", got)
	}
}

func TestEventOrdering(t *testing.T) {
	tr := New()
	for i := 0; i < 10; i++ {
		tr.Record(i, uint64(1000+i))
	}
	evs := tr.Events()
	for i, e := range evs {
		if e.Idx != uint64(i) || e.GUID != i {
			t.Fatalf("event %d = %+v", i, e)
		}
	}
}

func TestBufferedFlush(t *testing.T) {
	tr := New()
	tr.BufSize = 8
	for i := 0; i < 20; i++ {
		tr.Record(1, uint64(i))
	}
	if tr.Flushes() < 2 {
		t.Fatalf("flushes = %d, want >= 2 with BufSize 8", tr.Flushes())
	}
	// Queries see buffered events too.
	if got := len(tr.AddrsOfGUID(1)); got != 20 {
		t.Fatalf("addrs = %d, want 20", got)
	}
}

func TestSharedAddressMultipleGUIDs(t *testing.T) {
	tr := New()
	tr.Record(5, 777)
	tr.Record(9, 777)
	tr.Record(5, 777)
	tr.Record(9, 778)
	byWrite := tr.AddrsByFirstWrite([]int{5, 9})
	if !reflect.DeepEqual(byWrite, [][]uint64{{777}, {777, 778}}) {
		t.Fatalf("AddrsByFirstWrite = %v", byWrite)
	}
	byRecency := tr.AddrsByRecency([]int{9, 5})
	if !reflect.DeepEqual(byRecency, [][]uint64{{778, 777}, {777}}) {
		t.Fatalf("AddrsByRecency = %v", byRecency)
	}
}

// Property: every recorded (guid, addr) pair is later discoverable through
// both queries, regardless of buffer-size-induced flush boundaries.
func TestPropIndexesComplete(t *testing.T) {
	f := func(pairs []struct {
		G uint8
		A uint16
	}, bufSize uint8) bool {
		tr := New()
		tr.BufSize = int(bufSize%16) + 1
		for _, p := range pairs {
			tr.Record(int(p.G), uint64(p.A))
		}
		for _, p := range pairs {
			foundAddr := false
			for _, a := range tr.AddrsOfGUID(int(p.G)) {
				if a == uint64(p.A) {
					foundAddr = true
				}
			}
			if !foundAddr {
				return false
			}
			foundRecent := false
			for _, a := range recency(tr, int(p.G)) {
				if a == uint64(p.A) {
					foundRecent = true
				}
			}
			if !foundRecent {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Record and RecordRead only tally; FlushObs publishes exact counts and the
// current buffer fill, and a sink hears only what happened on its watch.
func TestFlushObsPublishesTallies(t *testing.T) {
	rec := obs.NewRecorder()
	calls := &obstest.CallCounter{Inner: rec}
	tr := New()
	tr.BufSize = 8
	tr.Record(9, 900) // before any sink: nobody hears it
	tr.SetSink(calls)
	for i := 0; i < 20; i++ {
		tr.Record(1, uint64(100+i))
		tr.RecordRead(2, uint64(200+i))
	}
	if n := calls.Calls(); n != 0 {
		t.Fatalf("Record/RecordRead made %d sink calls", n)
	}
	tr.FlushObs()
	for name, want := range map[string]int{
		"trace.events": 20, "trace.read_events": 20,
		"trace.flushes": tr.Flushes(), "trace.flushed_events": 16,
	} {
		if got := rec.CounterValue(name); got != int64(want) {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if tr.Len() != 21 || tr.Reads() != 20 || tr.Flushes() != 2 {
		t.Fatalf("Len=%d Reads=%d Flushes=%d", tr.Len(), tr.Reads(), tr.Flushes())
	}
	if got := rec.GaugeValue("trace.buffered"); got != 5 {
		t.Errorf("trace.buffered = %d, want 5", got)
	}
	before := calls.Calls()
	tr.FlushObs()
	if calls.Calls() != before {
		t.Fatal("idle flush made sink calls")
	}
	tr.Events() // a query drains the buffer
	tr.FlushObs()
	if rec.CounterValue("trace.flushed_events") != 21 || rec.GaugeValue("trace.buffered") != 0 {
		t.Errorf("after drain: flushed_events=%d buffered=%d",
			rec.CounterValue("trace.flushed_events"), rec.GaugeValue("trace.buffered"))
	}
}
