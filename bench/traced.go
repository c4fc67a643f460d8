package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// spanName identifies a layer boundary the benchmark puts a span around.
type spanName uint8

const (
	spReq         spanName = iota // one request through the rig
	spCall                        // arthas.Instance.Call
	spHooks                       // checkpoint[+provenance] persist hooks
	spReplRecord                  // the replication shipper's hook wrapper
	spTraceRecord                 // trace.Record via Machine.TraceSink
	spNoteWrite                   // provenance.NoteWrite via Machine.WriteSink
	spReplShip                    // repl.Session.Ship
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"req", "arthas.call", "hooks.persist", "repl.record", "trace.record", "prov.notewrite", "repl.ship",
}

// spanRec is one finished span. start and end are ns since the tracer's
// epoch; parent is the id of the span that caused it (0 for a request);
// spans of one request share req.
type spanRec struct {
	start, end int64
	id, parent uint32
	req        uint32
	name       spanName
}

// tracer records spans from the benchmark's own call sites. It is
// single-goroutine by design (the traced run has one client). Totals are
// kept for every span; the first cap(buf) spans are also kept whole and
// written out when the run ends.
type tracer struct {
	on    bool
	epoch time.Time
	buf   []spanRec
	stack []openSpan
	next  uint32
	req   uint32

	count [numSpanNames]int64
	total [numSpanNames]int64 // ns inside spans of this name
	self  [numSpanNames]int64 // ns not covered by child spans
}

type openSpan struct {
	name     spanName
	id       uint32
	start    int64
	children int64 // ns covered by finished child spans
}

// maxKeptSpans bounds the span file (about 90 bytes a span).
const maxKeptSpans = 1 << 17

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		buf:   make([]spanRec, 0, maxKeptSpans),
		stack: make([]openSpan, 0, 8),
	}
}

func (t *tracer) begin(name spanName) {
	if !t.on {
		return
	}
	t.next++
	if name == spReq {
		t.req++
	}
	t.stack = append(t.stack, openSpan{name: name, id: t.next, start: int64(time.Since(t.epoch))})
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	now := int64(time.Since(t.epoch))
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := now - s.start
	t.count[s.name]++
	t.total[s.name] += dur
	t.self[s.name] += dur - s.children
	var parent uint32
	if n > 0 {
		t.stack[n-1].children += dur
		parent = t.stack[n-1].id
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, spanRec{start: s.start, end: now, id: s.id, parent: parent, req: t.req, name: s.name})
	}
}

// perReq returns the mean ns a request spent inside spans of this name.
func (t *tracer) perReq(name spanName) float64 {
	if t.count[spReq] == 0 {
		return 0
	}
	return float64(t.total[name]) / float64(t.count[spReq])
}

// writeJSONL writes the kept spans, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range t.buf {
		fmt.Fprintf(w, `{"req":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.req, s.id, s.parent, spanNames[s.name], s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
