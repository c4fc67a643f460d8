package obs

import (
	"encoding/json"
	"math/bits"
	"sync"
	"time"
)

// Hist summarizes one histogram: a count/sum/min/max digest plus power-of-two
// buckets (bucket i counts samples in [2^(i-1), 2^i); bucket 0 counts v < 1).
// Power-of-two buckets keep recording allocation-free while preserving the
// latency shape well enough for overhead hunting.
type Hist struct {
	Count   int64
	Sum     float64
	Min     float64
	Max     float64
	Buckets [64]int64
}

// Mean returns the histogram mean (0 when empty).
func (h *Hist) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the power-of-two
// buckets: the bucket holding the target rank is located and the value is
// interpolated linearly between the bucket's bounds, then clamped to the
// exact [Min, Max] the histogram observed. The estimate is therefore never
// off by more than one bucket width (a factor of two), and degenerate
// distributions (all samples equal) come back exact via the clamp.
func (h *Hist) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(h.Count-1) // 0-based fractional rank
	cum := 0.0
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		bc := float64(c)
		if rank < cum+bc {
			lo, hi := bucketBounds(i)
			if hi > h.Max {
				hi = h.Max
			}
			v := lo + (hi-lo)*(rank-cum)/bc
			if v < h.Min {
				v = h.Min
			}
			if v > h.Max {
				v = h.Max
			}
			return v
		}
		cum += bc
	}
	return h.Max
}

// bucketBounds returns bucket i's value range: bucket 0 holds v < 1,
// bucket i holds [2^(i-1), 2^i).
func bucketBounds(i int) (lo, hi float64) {
	if i == 0 {
		return 0, 1
	}
	return float64(uint64(1) << (i - 1)), float64(uint64(1) << i)
}

// Add records one sample into a standalone histogram — for callers (the
// workload driver) that aggregate latency locally before merging digests,
// rather than through a Recorder.
func (h *Hist) Add(v float64) { h.observe(v) }

func (h *Hist) observe(v float64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bucketIndex(v)]++
}

// bucketIndex returns the bucket holding v (see Hist): 0 for v < 1 (and
// NaN), otherwise the bit length of v's integer part, capped at the last
// bucket.
func bucketIndex(v float64) int {
	switch {
	case !(v >= 1):
		return 0
	case v >= 1<<63:
		return len(Hist{}.Buckets) - 1
	}
	return bits.Len64(uint64(v))
}

// SpanRecord is one recorded span. ID 0 is never issued; Parent 0 means root.
type SpanRecord struct {
	ID     uint64
	Parent uint64
	Name   string
	Attrs  []Attr

	Start     time.Time
	StartStep int64
	Dur       time.Duration
	EndStep   int64
	Ended     bool
}

// Recorder is the standard Sink implementation: it accumulates metrics and
// spans in memory, stamps spans with wall-clock time plus an optional logical
// clock, and renders the result as JSONL (WriteJSONL) or text (Summary).
// All methods are safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	clock   func() int64 // logical clock; nil = always 0
	metrics map[string]*metric
	ordered []*metric     // first-seen order
	spans   []*SpanRecord // in start order
	stack   []*SpanRecord // active spans, innermost last
	nextID  uint64

	// Streaming mode (StreamTo): spans are written out as they end so a
	// crash mid-run loses at most the still-open spans, not the whole trace.
	stream      *json.Encoder
	streamErr   error
	streamEpoch time.Time
	epochSet    bool
}

// metric is everything recorded under one name. The three kinds are
// independent series (a name may be counted and gauged; the exports list
// them separately), held together so that an event costs one map lookup.
type metric struct {
	name      string
	counter   int64
	gauge     int64
	isCounter bool
	isGauge   bool
	hist      *Hist // nil until the first Observe
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder {
	return &Recorder{metrics: map[string]*metric{}, nextID: 1}
}

// SetClock installs the logical clock used to stamp span start/end steps
// (typically the VM's Steps). A nil clock stamps 0.
func (r *Recorder) SetClock(clock func() int64) {
	r.mu.Lock()
	r.clock = clock
	r.mu.Unlock()
}

func (r *Recorder) now() int64 {
	if r.clock == nil {
		return 0
	}
	return r.clock()
}

// metricLocked returns name's metric, registering it on first sight.
// Caller holds the lock.
func (r *Recorder) metricLocked(name string) *metric {
	m := r.metrics[name]
	if m == nil {
		m = &metric{name: name}
		r.metrics[name] = m
		r.ordered = append(r.ordered, m)
	}
	return m
}

// Enabled reports true: a Recorder always records.
func (r *Recorder) Enabled() bool { return true }

// Count implements Sink.
func (r *Recorder) Count(name string, delta int64) {
	r.mu.Lock()
	m := r.metricLocked(name)
	m.counter += delta
	m.isCounter = true
	r.mu.Unlock()
}

// SetGauge implements Sink.
func (r *Recorder) SetGauge(name string, v int64) {
	r.mu.Lock()
	m := r.metricLocked(name)
	m.gauge = v
	m.isGauge = true
	r.mu.Unlock()
}

// Observe implements Sink.
func (r *Recorder) Observe(name string, v float64) {
	r.mu.Lock()
	r.histLocked(name).observe(v)
	r.mu.Unlock()
}

// histLocked returns name's histogram, creating it on first use. Caller
// holds the lock.
func (r *Recorder) histLocked(name string) *Hist {
	m := r.metricLocked(name)
	if m.hist == nil {
		m.hist = &Hist{}
	}
	return m.hist
}

// span is the live handle behind Recorder.Start.
type span struct {
	r   *Recorder
	rec *SpanRecord
}

func (s *span) SetAttr(key string, val any) {
	s.r.mu.Lock()
	s.rec.Attrs = append(s.rec.Attrs, Attr{Key: key, Val: val})
	s.r.mu.Unlock()
}

func (s *span) End() {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	if s.rec.Ended {
		return
	}
	s.rec.Ended = true
	s.rec.Dur = time.Since(s.rec.Start)
	s.rec.EndStep = s.r.now()
	// Pop this span (and any abandoned children above it) off the stack.
	for i := len(s.r.stack) - 1; i >= 0; i-- {
		if s.r.stack[i] == s.rec {
			s.r.stack = s.r.stack[:i]
			break
		}
	}
	s.r.streamSpanLocked(s.rec)
}

// Start implements Sink.
func (r *Recorder) Start(name string, attrs ...Attr) Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec := &SpanRecord{
		ID:        r.nextID,
		Name:      name,
		Attrs:     append([]Attr(nil), attrs...),
		Start:     time.Now(),
		StartStep: r.now(),
	}
	r.nextID++
	if n := len(r.stack); n > 0 {
		rec.Parent = r.stack[n-1].ID
	}
	r.spans = append(r.spans, rec)
	r.stack = append(r.stack, rec)
	return &span{r: r, rec: rec}
}

// CounterValue returns a counter's current value (0 when absent).
func (r *Recorder) CounterValue(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.metrics[name]; m != nil {
		return m.counter
	}
	return 0
}

// GaugeValue returns a gauge's current value (0 when absent).
func (r *Recorder) GaugeValue(name string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.metrics[name]; m != nil {
		return m.gauge
	}
	return 0
}

// Quantile estimates the q-quantile of a named histogram (0 when absent).
// See Hist.Quantile for the estimation error bound.
func (r *Recorder) Quantile(name string, q float64) float64 {
	if h := r.Histogram(name); h != nil {
		return h.Quantile(q)
	}
	return 0
}

// Histogram returns a copy of a named histogram (nil when absent).
func (r *Recorder) Histogram(name string) *Hist {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.metrics[name]
	if m == nil || m.hist == nil {
		return nil
	}
	cp := *m.hist
	return &cp
}

// Spans returns a snapshot of all recorded spans in start order.
func (r *Recorder) Spans() []*SpanRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*SpanRecord, len(r.spans))
	for i, s := range r.spans {
		cp := *s
		cp.Attrs = append([]Attr(nil), s.Attrs...)
		out[i] = &cp
	}
	return out
}

// SpanNames returns the recorded span names in start order.
func (r *Recorder) SpanNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.spans))
	for i, s := range r.spans {
		out[i] = s.Name
	}
	return out
}

// SpanCount returns how many spans with the given name were started.
func (r *Recorder) SpanCount(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, s := range r.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// Reset drops all recorded data (metric registration order included) but
// keeps the clock. Active spans are abandoned.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.metrics = map[string]*metric{}
	r.ordered = nil
	r.spans = nil
	r.stack = nil
	r.nextID = 1
}
