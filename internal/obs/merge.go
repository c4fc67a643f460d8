package obs

// Merging per-worker telemetry.
//
// A Recorder's span stack assumes single-goroutine nesting, so concurrent
// speculative-mitigation workers each record into a private Recorder and the
// reactor replays them into the session's main sink afterwards, in
// deterministic trial order (see docs/PARALLEL_MITIGATION.md). Replay
// reconstructs the span tree (spans re-nest under their recorded parents)
// and re-emits counters; wall-clock timing cannot be transplanted onto the
// destination's clock, so each replayed span carries its recorded duration
// as a "replayed_dur_ns" attribute instead. Gauges and histograms are NOT
// replayed: a speculative worker's point-in-time values and latency samples
// describe its private fork, not the main session.

// ReplayInto re-emits src's spans (with their recorded attributes plus
// extra, preserving parent/child structure) and counters into dst. A nil
// src or disabled dst is a no-op.
func ReplayInto(dst Sink, src *Recorder, extra ...Attr) {
	if src == nil || !Enabled(dst) {
		return
	}
	spans := src.Spans()
	children := make(map[uint64][]*SpanRecord, len(spans))
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	var replay func(rec *SpanRecord)
	replay = func(rec *SpanRecord) {
		attrs := make([]Attr, 0, len(rec.Attrs)+len(extra)+1)
		attrs = append(attrs, rec.Attrs...)
		attrs = append(attrs, extra...)
		attrs = append(attrs, A("replayed_dur_ns", rec.Dur.Nanoseconds()))
		sp := dst.Start(rec.Name, attrs...)
		for _, c := range children[rec.ID] {
			replay(c)
		}
		sp.End()
	}
	// Spans() returns start order, so roots (Parent 0) replay in the order
	// the worker opened them.
	for _, s := range children[0] {
		replay(s)
	}
	for _, c := range src.CountersInOrder() {
		dst.Count(c.Name, c.Value)
	}
}

// Merge folds o's samples into h bin-wise: counts and sums add, min/max
// widen, and power-of-two buckets combine exactly (both sides share the
// same fixed bucket bounds). A nil or empty o is a no-op.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if h.Count == 0 || o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	for i := range h.Buckets {
		h.Buckets[i] += o.Buckets[i]
	}
}

// Absorb folds src's counters, gauges, and histograms into r, with every
// metric name prefixed (e.g. "shard0."). Fleet-wide /metrics merges the
// per-shard Recorders this way: counters add, gauges overwrite (they are
// point-in-time values of distinct shards, hence the prefix), and
// histograms merge bin-wise. Counters and gauges register in src's first-seen
// order so repeated merges of identical inputs render identically. Spans are not
// absorbed — use ReplayInto for those. A nil src (or r itself) is a no-op.
func (r *Recorder) Absorb(src *Recorder, prefix string) {
	if src == nil || src == r {
		return
	}
	src.mu.Lock()
	snap := src.metricsSnapshotLocked()
	src.mu.Unlock()

	for _, c := range snap.counters {
		r.Count(prefix+c.Name, c.Value)
	}
	for _, g := range snap.gauges {
		r.SetGauge(prefix+g.Name, g.Value)
	}
	r.mu.Lock()
	for i := range snap.hists {
		r.histLocked(prefix + snap.hists[i].name).Merge(&snap.hists[i].h)
	}
	r.mu.Unlock()
}

// CounterSample is one named counter value (see CountersInOrder).
type CounterSample struct {
	Name  string
	Value int64
}

// CountersInOrder returns the recorder's counters in first-seen order, so
// replay is deterministic.
func (r *Recorder) CountersInOrder() []CounterSample {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []CounterSample
	for _, m := range r.ordered {
		if m.isCounter {
			out = append(out, CounterSample{Name: m.name, Value: m.counter})
		}
	}
	return out
}
