package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// jsonLine is one exported JSONL record. Type is "span", "counter", "gauge",
// or "hist"; unused fields are omitted.
type jsonLine struct {
	Type string `json:"type"`
	Name string `json:"name"`

	// span fields
	ID        uint64         `json:"id,omitempty"`
	Parent    uint64         `json:"parent,omitempty"`
	StartNS   int64          `json:"start_ns,omitempty"`
	DurNS     int64          `json:"dur_ns,omitempty"`
	StartStep int64          `json:"start_step,omitempty"`
	EndStep   int64          `json:"end_step,omitempty"`
	Open      bool           `json:"open,omitempty"` // never ended
	Attrs     map[string]any `json:"attrs,omitempty"`

	// metric fields
	Value *int64 `json:"value,omitempty"`

	// histogram fields
	Count int64   `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// spanJSONLine renders one span record relative to epoch.
func spanJSONLine(s SpanRecord, epoch time.Time) jsonLine {
	line := jsonLine{
		Type:      "span",
		Name:      s.Name,
		ID:        s.ID,
		Parent:    s.Parent,
		StartNS:   s.Start.Sub(epoch).Nanoseconds(),
		DurNS:     s.Dur.Nanoseconds(),
		StartStep: s.StartStep,
		EndStep:   s.EndStep,
		Open:      !s.Ended,
	}
	if len(s.Attrs) > 0 {
		line.Attrs = map[string]any{}
		for _, a := range s.Attrs {
			line.Attrs[a.Key] = a.Val
		}
	}
	return line
}

// histSample is one named histogram digest.
type histSample struct {
	name string
	h    Hist
}

// metricsSnapshot is a copy of every metric for export: counters and gauges
// in first-seen order (which groups each component's metrics together),
// histograms by name.
type metricsSnapshot struct {
	counters, gauges []CounterSample
	hists            []histSample
}

// metricsSnapshotLocked captures every metric. Caller holds the lock.
func (r *Recorder) metricsSnapshotLocked() metricsSnapshot {
	var snap metricsSnapshot
	for _, m := range r.ordered {
		if m.isCounter {
			snap.counters = append(snap.counters, CounterSample{Name: m.name, Value: m.counter})
		}
		if m.isGauge {
			snap.gauges = append(snap.gauges, CounterSample{Name: m.name, Value: m.gauge})
		}
		if m.hist != nil {
			snap.hists = append(snap.hists, histSample{name: m.name, h: *m.hist})
		}
	}
	sort.Slice(snap.hists, func(i, j int) bool { return snap.hists[i].name < snap.hists[j].name })
	return snap
}

// encodeMetrics writes the counter/gauge/hist lines of a snapshot.
func encodeMetrics(enc *json.Encoder, snap metricsSnapshot) error {
	for _, c := range snap.counters {
		if err := enc.Encode(jsonLine{Type: "counter", Name: c.Name, Value: &c.Value}); err != nil {
			return err
		}
	}
	for _, g := range snap.gauges {
		if err := enc.Encode(jsonLine{Type: "gauge", Name: g.Name, Value: &g.Value}); err != nil {
			return err
		}
	}
	for i := range snap.hists {
		h := &snap.hists[i].h
		if err := enc.Encode(jsonLine{
			Type: "hist", Name: snap.hists[i].name,
			Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max, Mean: h.Mean(),
			P50: h.Quantile(0.5), P99: h.Quantile(0.99),
		}); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONL streams every span (in start order) and then every metric as
// one JSON object per line. Span start_ns is relative to the first span's
// start, so streams from different runs diff cleanly.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	r.mu.Lock()
	spans := snapshotSpans(r.spans)
	snap := r.metricsSnapshotLocked()
	r.mu.Unlock()

	enc := json.NewEncoder(w)
	var epoch time.Time
	if len(spans) > 0 {
		epoch = spans[0].Start
	}
	for _, s := range spans {
		if err := enc.Encode(spanJSONLine(s, epoch)); err != nil {
			return err
		}
	}
	return encodeMetrics(enc, snap)
}

// StreamTo switches the recorder into streaming mode: from now on every
// span is written to w as a JSONL line the moment it ends, so a process
// that panics or exits mid-run keeps the telemetry recorded up to that
// point (only spans still open at the crash are lost). Metrics aggregate
// as usual and are appended by CloseStream. Writes happen under the
// recorder lock; w must not call back into the recorder.
func (r *Recorder) StreamTo(w io.Writer) {
	r.mu.Lock()
	r.stream = json.NewEncoder(w)
	r.streamErr = nil
	r.epochSet = false
	r.mu.Unlock()
}

// streamSpanLocked emits one ended span. Caller holds the lock.
func (r *Recorder) streamSpanLocked(rec *SpanRecord) {
	if r.stream == nil || r.streamErr != nil {
		return
	}
	if !r.epochSet {
		r.streamEpoch = rec.Start
		r.epochSet = true
	}
	cp := *rec
	cp.Attrs = append([]Attr(nil), rec.Attrs...)
	if err := r.stream.Encode(spanJSONLine(cp, r.streamEpoch)); err != nil {
		r.streamErr = err
	}
}

// CloseStream finishes streaming mode: spans still open are written with
// "open":true, the final counter/gauge/histogram values follow, and the
// first write error encountered during streaming (if any) is returned.
// The recorder keeps its data and can still WriteJSONL/Summary afterwards.
func (r *Recorder) CloseStream() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	enc := r.stream
	err := r.streamErr
	r.stream = nil
	r.streamErr = nil
	if enc == nil || err != nil {
		return err
	}
	epoch := r.streamEpoch
	for _, s := range r.spans {
		if s.Ended {
			continue
		}
		if !r.epochSet {
			epoch = s.Start
			r.epochSet = true
			r.streamEpoch = epoch
		}
		cp := *s
		cp.Attrs = append([]Attr(nil), s.Attrs...)
		if err := enc.Encode(spanJSONLine(cp, epoch)); err != nil {
			return err
		}
	}
	return encodeMetrics(enc, r.metricsSnapshotLocked())
}

// snapshotSpans deep-copies span records (caller must hold the lock) so
// exports never race with spans still being annotated or ended.
func snapshotSpans(spans []*SpanRecord) []SpanRecord {
	out := make([]SpanRecord, len(spans))
	for i, s := range spans {
		out[i] = *s
		out[i].Attrs = append([]Attr(nil), s.Attrs...)
	}
	return out
}

// Summary renders the recorded telemetry as text: the span tree first
// (indentation = nesting), then counters, gauges, and histogram digests.
func (r *Recorder) Summary() string {
	r.mu.Lock()
	spans := snapshotSpans(r.spans)
	snap := r.metricsSnapshotLocked()
	r.mu.Unlock()

	var sb strings.Builder
	if len(spans) > 0 {
		sb.WriteString("spans:\n")
		depth := map[uint64]int{}
		for _, s := range spans {
			d := 0
			if s.Parent != 0 {
				d = depth[s.Parent] + 1
			}
			depth[s.ID] = d
			fmt.Fprintf(&sb, "  %s%s", strings.Repeat("  ", d), s.Name)
			if s.Ended {
				fmt.Fprintf(&sb, " %v", s.Dur.Round(time.Microsecond))
				if steps := s.EndStep - s.StartStep; steps > 0 {
					fmt.Fprintf(&sb, " (%d steps)", steps)
				}
			} else {
				sb.WriteString(" [open]")
			}
			for _, a := range s.Attrs {
				fmt.Fprintf(&sb, " %s=%v", a.Key, a.Val)
			}
			sb.WriteString("\n")
		}
	}
	if len(snap.counters) > 0 {
		sb.WriteString("counters:\n")
		for _, c := range snap.counters {
			fmt.Fprintf(&sb, "  %-32s %d\n", c.Name, c.Value)
		}
	}
	if len(snap.gauges) > 0 {
		sb.WriteString("gauges:\n")
		for _, g := range snap.gauges {
			fmt.Fprintf(&sb, "  %-32s %d\n", g.Name, g.Value)
		}
	}
	if len(snap.hists) > 0 {
		sb.WriteString("histograms:\n")
		for i := range snap.hists {
			h := &snap.hists[i].h
			fmt.Fprintf(&sb, "  %-32s n=%d min=%.0f mean=%.1f p50=%.0f p99=%.0f max=%.0f\n",
				snap.hists[i].name, h.Count, h.Min, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), h.Max)
		}
	}
	return sb.String()
}
