package arthas

import (
	"bytes"
	"strings"
	"testing"
)

func TestOpenSavePoolRoundTrip(t *testing.T) {
	inst := newDemo(t)
	for i := int64(0); i < 8; i++ {
		inst.Call("put", i, 700+i)
	}
	var buf bytes.Buffer
	if err := inst.SavePool(&buf); err != nil {
		t.Fatal(err)
	}

	// A second "process" reopens the pool and reads the durable data.
	inst2, err := Open("demo", demoSource, Config{RecoverFn: "recover_"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if trap := inst2.Restart(); trap != nil {
		t.Fatal(trap)
	}
	for i := int64(0); i < 8; i++ {
		v, trap := inst2.Call("get", i)
		if trap != nil || v != 700+i {
			t.Fatalf("get(%d) = %d (%v)", i, v, trap)
		}
	}
}

func TestOpenCrashSemantics(t *testing.T) {
	inst := newDemo(t)
	inst.Call("put", 0, 111)
	// Scribble without persisting: must not travel.
	root, _ := inst.Pool.Root(0)
	bufAddr, _ := inst.Pool.Load(root)
	inst.Pool.Store(uint64(bufAddr)+1, 999)

	var buf bytes.Buffer
	inst.SavePool(&buf)
	inst2, err := Open("demo", demoSource, Config{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := inst2.Call("get", 1)
	if v == 999 {
		t.Fatal("unpersisted store survived the pool file")
	}
	if v0, _ := inst2.Call("get", 0); v0 != 111 {
		t.Fatalf("persisted value = %d", v0)
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	if _, err := Open("demo", demoSource, Config{}, strings.NewReader("junk")); err == nil {
		t.Fatal("garbage pool file accepted")
	}
}

func TestImageRoundTripPreservesHistory(t *testing.T) {
	// A full image carries the checkpoint log and trace (as the paper's
	// durable metadata does), so a hard fault persisted in one process is
	// mitigable in the NEXT process, even though the contamination
	// happened entirely before the save.
	inst := newDemo(t)
	for i := int64(0); i < 8; i++ {
		inst.Call("put", i, 100+i)
	}
	inst.Call("corrupt", 5) // the bug fires BEFORE the save
	var buf bytes.Buffer
	if err := inst.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}

	inst2, err := OpenImage("demo", demoSource, Config{RecoverFn: "recover_"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if inst2.Log.TotalVersions() == 0 {
		t.Fatal("checkpoint history did not travel")
	}
	inst2.Restart()
	_, trap := inst2.Call("get", 0)
	if trap == nil {
		t.Fatal("hard fault did not travel")
	}
	inst2.Observe(trap)
	rep, err := inst2.Mitigate(func(on *Instance) *Trap {
		if tp := on.Restart(); tp != nil {
			return tp
		}
		_, tp := on.Call("get", 0)
		return tp
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recovered {
		t.Fatalf("not recovered: %v (last %v)", rep, rep.LastTrap)
	}
	// All pre-save independent updates survive.
	for i := int64(0); i < 8; i++ {
		v, tp := inst2.Call("get", i)
		if tp != nil || v != 100+i {
			t.Fatalf("get(%d) = %d (%v)", i, v, tp)
		}
	}
}

func TestImageRejectsGarbage(t *testing.T) {
	if _, err := OpenImage("demo", demoSource, Config{}, strings.NewReader("xx")); err == nil {
		t.Fatal("garbage image accepted")
	}
	// A bare pool file is not a full image.
	inst := newDemo(t)
	var buf bytes.Buffer
	inst.SavePool(&buf)
	if _, err := OpenImage("demo", demoSource, Config{}, &buf); err == nil {
		t.Fatal("bare pool file accepted as image")
	}
}

func TestImagePreservesTraceRecency(t *testing.T) {
	inst := newDemo(t)
	inst.Call("put", 1, 42)
	inst.Call("get", 1)
	var buf bytes.Buffer
	if err := inst.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	inst2, err := OpenImage("demo", demoSource, Config{}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if inst2.Trace.Len() != inst.Trace.Len() {
		t.Fatalf("trace events: %d vs %d", inst2.Trace.Len(), inst.Trace.Len())
	}
}
