package trace

import (
	"bytes"
	"testing"
)

func TestTraceSerializationRoundTrip(t *testing.T) {
	tr := New()
	tr.Record(1, 100)
	tr.Record(2, 200)
	tr.RecordRead(3, 300)
	tr.Record(1, 150)

	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() {
		t.Fatalf("events: %d vs %d", got.Len(), tr.Len())
	}
	addrs := got.AddrsOfGUID(1)
	if len(addrs) != 2 || addrs[0] != 100 || addrs[1] != 150 {
		t.Fatalf("guid 1 addrs = %v", addrs)
	}
	// Read-ring recency travels.
	rec := recency(got, 3)
	if len(rec) != 1 || rec[0] != 300 {
		t.Fatalf("guid 3 recency = %v", rec)
	}
	// The restored clock continues monotonically.
	got.Record(9, 900)
	evs := got.Events()
	if evs[len(evs)-1].Idx <= evs[len(evs)-2].Idx {
		t.Fatal("clock not monotone after reopen")
	}
}

func TestTraceSerializationEmpty(t *testing.T) {
	tr := New()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("len = %d", got.Len())
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("x"))); err == nil {
		t.Fatal("garbage accepted")
	}
	tr := New()
	tr.Record(1, 1)
	var buf bytes.Buffer
	tr.WriteTo(&buf)
	data := buf.Bytes()
	if _, err := ReadTrace(bytes.NewReader(data[:len(data)-4])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}
