// Package obstest holds obs.Sink test doubles.
package obstest

import (
	"sync/atomic"

	"arthas/internal/obs"
)

// CallCounter is an enabled sink that counts the Sink calls made to it
// (Count, SetGauge, Observe, Start — not calls on the spans it hands out)
// and forwards them to Inner. Tests use it to pin how many sink calls a code
// path issues, which is what its telemetry costs, without a stopwatch.
type CallCounter struct {
	Inner obs.Sink // nil discards
	n     atomic.Int64
}

// Calls returns how many Sink calls have been made.
func (c *CallCounter) Calls() int { return int(c.n.Load()) }

func (c *CallCounter) inner() obs.Sink {
	c.n.Add(1)
	return obs.OrNop(c.Inner)
}

// Enabled reports true, so instrumented layers take their enabled paths.
func (c *CallCounter) Enabled() bool { return true }

func (c *CallCounter) Count(name string, delta int64) { c.inner().Count(name, delta) }
func (c *CallCounter) SetGauge(name string, v int64)  { c.inner().SetGauge(name, v) }
func (c *CallCounter) Observe(name string, v float64) { c.inner().Observe(name, v) }

func (c *CallCounter) Start(name string, attrs ...obs.Attr) obs.Span {
	return c.inner().Start(name, attrs...)
}
