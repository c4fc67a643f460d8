package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNopSink(t *testing.T) {
	s := Nop()
	if s.Enabled() {
		t.Fatal("nop sink reports enabled")
	}
	// All operations must be safe and do nothing.
	s.Count("x", 1)
	s.SetGauge("y", 2)
	s.Observe("z", 3)
	sp := s.Start("span", A("k", "v"))
	sp.SetAttr("k2", 7)
	sp.End()

	if OrNop(nil) != Nop() {
		t.Fatal("OrNop(nil) is not the nop sink")
	}
	if Enabled(nil) || Enabled(Nop()) {
		t.Fatal("nil/nop sinks report enabled")
	}
}

func TestRecorderMetrics(t *testing.T) {
	r := NewRecorder()
	if !r.Enabled() {
		t.Fatal("recorder not enabled")
	}
	r.Count("pmem.store", 1)
	r.Count("pmem.store", 2)
	r.SetGauge("pmem.dirty_words", 9)
	r.SetGauge("pmem.dirty_words", 4)
	r.Observe("ckpt.hook.ns", 100)
	r.Observe("ckpt.hook.ns", 300)

	if got := r.CounterValue("pmem.store"); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	if got := r.GaugeValue("pmem.dirty_words"); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	h := r.Histogram("ckpt.hook.ns")
	if h == nil || h.Count != 2 || h.Min != 100 || h.Max != 300 || h.Mean() != 200 {
		t.Fatalf("hist = %+v", h)
	}
	if r.CounterValue("absent") != 0 || r.GaugeValue("absent") != 0 || r.Histogram("absent") != nil {
		t.Fatal("absent metrics not zero-valued")
	}
}

func TestRecorderSpanNesting(t *testing.T) {
	r := NewRecorder()
	step := int64(0)
	r.SetClock(func() int64 { return step })

	root := r.Start("pipeline.run")
	step = 10
	child := r.Start("vm.call", A("fn", "put"))
	child.SetAttr("trap", "none")
	step = 25
	child.End()
	root.End()
	sibling := r.Start("pipeline.detect")
	sibling.End()

	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Parent != 0 || spans[2].Parent != 0 {
		t.Fatal("root spans have parents")
	}
	if spans[1].Parent != spans[0].ID {
		t.Fatal("child span not parented to the active span")
	}
	if spans[1].StartStep != 10 || spans[1].EndStep != 25 {
		t.Fatalf("logical stamps = %d..%d, want 10..25", spans[1].StartStep, spans[1].EndStep)
	}
	if len(spans[1].Attrs) != 2 {
		t.Fatalf("child attrs = %v", spans[1].Attrs)
	}
	if got := r.SpanNames(); strings.Join(got, ",") != "pipeline.run,vm.call,pipeline.detect" {
		t.Fatalf("span order = %v", got)
	}
	if r.SpanCount("vm.call") != 1 || r.SpanCount("nope") != 0 {
		t.Fatal("SpanCount wrong")
	}
}

func TestSpanEndIdempotentAndAbandonedChildren(t *testing.T) {
	r := NewRecorder()
	root := r.Start("outer")
	r.Start("abandoned") // never ended
	root.End()
	root.End() // second End must be a no-op

	// After the root ended, new spans must not be parented to the
	// abandoned child left above it on the stack.
	next := r.Start("next")
	next.End()
	spans := r.Spans()
	if spans[2].Parent != 0 {
		t.Fatalf("span after root End parented to %d", spans[2].Parent)
	}
	if !spans[0].Ended || spans[1].Ended {
		t.Fatal("Ended flags wrong")
	}
}

func TestWriteJSONL(t *testing.T) {
	r := NewRecorder()
	sp := r.Start("reactor.revert", A("seq", 7))
	sp.End()
	r.Count("pmem.store", 5)
	r.SetGauge("ckpt.entries", 2)
	r.Observe("ckpt.hook.ns", 42)

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	types := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		typ, _ := line["type"].(string)
		types[typ]++
		if typ == "span" {
			attrs, _ := line["attrs"].(map[string]any)
			if attrs["seq"] != float64(7) {
				t.Fatalf("span attrs = %v", line["attrs"])
			}
		}
	}
	if types["span"] != 1 || types["counter"] != 1 || types["gauge"] != 1 || types["hist"] != 1 {
		t.Fatalf("line types = %v", types)
	}
}

func TestSummary(t *testing.T) {
	r := NewRecorder()
	root := r.Start("pipeline.run")
	child := r.Start("vm.call")
	child.End()
	root.End()
	r.Count("pmem.store", 3)
	r.SetGauge("ckpt.entries", 1)
	r.Observe("ckpt.hook.ns", 10)

	s := r.Summary()
	for _, want := range []string{"pipeline.run", "vm.call", "pmem.store", "ckpt.entries", "ckpt.hook.ns"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
	// The child renders deeper than the root.
	runLine, callLine := "", ""
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, "pipeline.run") {
			runLine = line
		}
		if strings.Contains(line, "vm.call") {
			callLine = line
		}
	}
	if indent(callLine) <= indent(runLine) {
		t.Fatalf("child not indented:\n%s", s)
	}
}

func indent(s string) int {
	return len(s) - len(strings.TrimLeft(s, " "))
}

func TestMulti(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	m := Multi(a, nil, Nop(), b)
	if !m.Enabled() {
		t.Fatal("multi not enabled")
	}
	m.Count("c", 2)
	m.SetGauge("g", 3)
	m.Observe("h", 4)
	sp := m.Start("s", A("k", 1))
	sp.SetAttr("k2", 2)
	sp.End()
	for _, r := range []*Recorder{a, b} {
		if r.CounterValue("c") != 2 || r.GaugeValue("g") != 3 || r.Histogram("h").Count != 1 {
			t.Fatal("multi did not fan out metrics")
		}
		spans := r.Spans()
		if len(spans) != 1 || !spans[0].Ended || len(spans[0].Attrs) != 2 {
			t.Fatal("multi did not fan out spans")
		}
	}
	if Multi() != Nop() || Multi(nil, Nop()) != Nop() {
		t.Fatal("empty Multi is not nop")
	}
	if s := Multi(a, nil); s != Sink(a) {
		t.Fatal("single-member Multi not unwrapped")
	}
}

func TestWireClock(t *testing.T) {
	a, b := NewRecorder(), NewRecorder()
	step := int64(5)
	WireClock(Multi(a, b), func() int64 { return step })
	WireClock(Nop(), func() int64 { return step }) // must not panic
	sa := a.Start("x")
	sa.End()
	sb := b.Start("y")
	sb.End()
	if a.Spans()[0].StartStep != 5 || b.Spans()[0].StartStep != 5 {
		t.Fatal("clock not wired through Multi")
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder()
	r.Count("c", 1)
	sp := r.Start("s")
	r.Reset()
	sp.End() // ending a pre-reset span must not corrupt state
	if r.CounterValue("c") != 0 || len(r.Spans()) != 0 {
		t.Fatal("reset did not clear")
	}
	nsp := r.Start("t")
	nsp.End()
	if got := r.Spans(); len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("post-reset spans = %+v", got)
	}
}

func TestRecorderConcurrency(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Count("c", 1)
				r.Observe("h", float64(i))
				sp := r.Start("s")
				sp.SetAttr("i", i)
				sp.End()
				if i%100 == 0 {
					var buf bytes.Buffer
					_ = r.WriteJSONL(&buf)
					_ = r.Summary()
				}
			}
		}()
	}
	wg.Wait()
	if r.CounterValue("c") != 8*500 {
		t.Fatalf("counter = %d", r.CounterValue("c"))
	}
}

func TestHistBuckets(t *testing.T) {
	var h Hist
	h.observe(0.5) // bucket 0
	h.observe(1)   // bucket 1
	h.observe(3)   // bucket 2
	h.observe(1 << 40)
	if h.Buckets[0] != 1 || h.Buckets[1] != 1 || h.Buckets[2] != 1 {
		t.Fatalf("buckets = %v", h.Buckets[:4])
	}
	if h.Count != 4 || h.Min != 0.5 || h.Max != 1<<40 {
		t.Fatalf("digest = %+v", h)
	}
}

func TestCountDelta(t *testing.T) {
	r := NewRecorder()
	var last uint64
	if CountDelta(r, "x", 0, &last) {
		t.Fatal("no movement reported as movement")
	}
	if got := len(r.CountersInOrder()); got != 0 {
		t.Fatalf("a zero delta registered %d counters", got)
	}
	if !CountDelta(r, "x", 7, &last) || last != 7 || r.CounterValue("x") != 7 {
		t.Fatalf("after 0→7: last=%d counter=%d", last, r.CounterValue("x"))
	}
	if CountDelta(r, "x", 7, &last) || r.CounterValue("x") != 7 {
		t.Fatal("republished an unchanged tally")
	}
	if !CountDelta(r, "x", 10, &last) || r.CounterValue("x") != 10 {
		t.Fatalf("after 7→10: counter=%d", r.CounterValue("x"))
	}
}

// A name may be counted, gauged and observed at once: the kinds stay
// separate series in every export, in first-seen order per kind.
func TestRecorderOneNameThreeKinds(t *testing.T) {
	r := NewRecorder()
	r.SetGauge("b", 1)
	r.Count("a", 2)
	r.Count("b", 3)
	r.Observe("a", 4)
	if r.CounterValue("b") != 3 || r.GaugeValue("b") != 1 || r.GaugeValue("a") != 0 {
		t.Fatalf("kinds bled into each other: %s", r.Summary())
	}
	if h := r.Histogram("a"); h == nil || h.Count != 1 || r.Histogram("b") != nil {
		t.Fatalf("histograms: a=%v b=%v", r.Histogram("a"), r.Histogram("b"))
	}
	cs := r.CountersInOrder()
	if len(cs) != 2 || cs[0].Name != "b" || cs[1].Name != "a" {
		t.Fatalf("counters not in first-seen order: %+v", cs)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	want := `{"type":"counter","name":"b","value":3}
{"type":"counter","name":"a","value":2}
{"type":"gauge","name":"b","value":1}
`
	if !strings.HasPrefix(buf.String(), want) {
		t.Fatalf("JSONL:\n%s\nwant prefix:\n%s", buf.String(), want)
	}
	merged := NewRecorder()
	merged.Absorb(r, "s.")
	if merged.CounterValue("s.b") != 3 || merged.GaugeValue("s.b") != 1 || merged.Histogram("s.a").Count != 1 {
		t.Fatalf("Absorb lost a kind: %s", merged.Summary())
	}
}
