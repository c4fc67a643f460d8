// Package obs is the pipeline-wide observability layer: counters, gauges,
// histograms, and hierarchical trace spans for every stage of the Arthas
// toolchain (analyze → instrument → run → detect → react, paper Figure 4).
//
// Every instrumented component (pmem pool, checkpoint log, VM, tracer,
// detector, reactor, baselines) holds a Sink. The default sink is a no-op
// whose methods compile to nothing, and instrumentation is guarded by a
// cached "enabled" bool, so a system deployed without observability pays no
// measurable cost (see the overhead benchmarks). Installing a Recorder turns
// the same call sites into live telemetry: a JSONL span/metric stream
// (WriteJSONL) and a human-readable summary (Summary).
//
// The per-word and per-instruction paths never call the sink, enabled or
// not: they bump plain fields, and each layer's FlushObs publishes the
// difference as one Count per counter (CountDelta) when the machine finishes
// a Call. Counters are therefore exact at request boundaries, not inside a
// request (docs/OBSERVABILITY.md, "Publication granularity").
//
// Naming scheme (see docs/OBSERVABILITY.md for the full registry):
//
//   - metrics are dot-separated "<component>.<what>", e.g. pmem.store,
//     ckpt.versions, vm.instructions, trace.flushes, detector.hard
//   - histograms carry their unit as the last segment: ckpt.hook.ns
//     (wall-clock nanoseconds), reactor.revert.versions (logical counts)
//   - spans are "<component>.<phase>": pipeline.run, pipeline.detect,
//     reactor.plan, reactor.revert, reactor.reexec
package obs

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string
	Val any
}

// A builds an Attr (shorthand for call sites).
func A(key string, val any) Attr { return Attr{Key: key, Val: val} }

// Span is one timed, attributed region of pipeline work. Spans nest: a span
// started while another is active becomes its child.
type Span interface {
	// SetAttr annotates the span (outcomes discovered after Start).
	SetAttr(key string, val any)
	// End closes the span, stamping wall-clock and logical end times.
	End()
}

// Sink receives telemetry events. All methods must be safe to call with a
// zero value of their arguments; implementations must be concurrency-safe.
type Sink interface {
	// Enabled reports whether events are recorded. Hot paths cache this
	// (or branch on it) and skip event construction entirely when false.
	Enabled() bool
	// Count adds delta to a named monotonic counter.
	Count(name string, delta int64)
	// SetGauge sets a named point-in-time value.
	SetGauge(name string, v int64)
	// Observe adds one sample to a named histogram. The unit (wall-clock
	// nanoseconds, logical steps, plain counts) is part of the name.
	Observe(name string, v float64)
	// Start opens a span as a child of the innermost active span. The
	// implementation must neither retain nor modify attrs: callers on hot
	// paths pass a cached slice.
	Start(name string, attrs ...Attr) Span
}

// nopSink is the zero-cost default sink.
type nopSink struct{}

// nopSpan is the shared no-op span.
type nopSpan struct{}

func (nopSpan) SetAttr(string, any) {}
func (nopSpan) End()                {}

func (nopSink) Enabled() bool              { return false }
func (nopSink) Count(string, int64)        {}
func (nopSink) SetGauge(string, int64)     {}
func (nopSink) Observe(string, float64)    {}
func (nopSink) Start(string, ...Attr) Span { return nopSpan{} }

var nop Sink = nopSink{}

// Nop returns the shared no-op sink.
func Nop() Sink { return nop }

// OrNop maps a nil sink to the no-op sink, so components can store a Sink
// field that is always safe to call.
func OrNop(s Sink) Sink {
	if s == nil {
		return nop
	}
	return s
}

// CountDelta publishes cur-*last to the named counter (nothing when they are
// equal), advances *last to cur, and reports whether the counter moved. It is
// how a layer that tallies in plain fields on its hot path publishes a
// counter at a flush boundary.
func CountDelta(s Sink, name string, cur uint64, last *uint64) bool {
	d := cur - *last
	if d == 0 {
		return false
	}
	*last = cur
	s.Count(name, int64(d))
	return true
}

// Enabled reports whether s records events (false for nil and the no-op).
func Enabled(s Sink) bool { return s != nil && s.Enabled() }

// Clockable is implemented by sinks that stamp spans with logical time
// (the Recorder). WireClock uses it to reach through Multi composition.
type Clockable interface {
	SetClock(func() int64)
}

// WireClock installs a logical clock on every member of s that supports one
// (descending through Multi). Sinks without a clock are unaffected.
func WireClock(s Sink, clock func() int64) {
	switch v := s.(type) {
	case multi:
		for _, member := range v.sinks {
			WireClock(member, clock)
		}
	case Clockable:
		v.SetClock(clock)
	}
}

// multi fans events out to several sinks.
type multi struct{ sinks []Sink }

type multiSpan struct{ spans []Span }

func (m multiSpan) SetAttr(k string, v any) {
	for _, s := range m.spans {
		s.SetAttr(k, v)
	}
}

func (m multiSpan) End() {
	for _, s := range m.spans {
		s.End()
	}
}

func (m multi) Enabled() bool { return true }

func (m multi) Count(name string, delta int64) {
	for _, s := range m.sinks {
		s.Count(name, delta)
	}
}

func (m multi) SetGauge(name string, v int64) {
	for _, s := range m.sinks {
		s.SetGauge(name, v)
	}
}

func (m multi) Observe(name string, v float64) {
	for _, s := range m.sinks {
		s.Observe(name, v)
	}
}

func (m multi) Start(name string, attrs ...Attr) Span {
	ms := multiSpan{spans: make([]Span, len(m.sinks))}
	for i, s := range m.sinks {
		ms.spans[i] = s.Start(name, attrs...)
	}
	return ms
}

// Multi combines sinks, dropping nil and no-op members. It returns the
// no-op sink when nothing remains and the sink itself when one remains.
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if Enabled(s) {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nop
	case 1:
		return live[0]
	}
	return multi{sinks: live}
}
