package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WritePrometheus renders the recorder's metrics in the Prometheus text
// exposition format (version 0.0.4): counters as `counter`, gauges as
// `gauge`, and histograms as summary-style quantile series plus `_sum` and
// `_count`. Metric names are sanitized (dots and dashes become underscores)
// and prefixed `arthas_` so the scrape namespace stays clean. Spans are not
// exported — they belong to the JSONL/flight surface.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	snap := r.metricsSnapshotLocked()
	r.mu.Unlock()

	// The exposition format requires unique, sorted-by-name metric families;
	// sanitization can collide names (a.b vs a-b), so merge via a map keyed
	// by the sanitized name and emit alphabetically.
	type family struct {
		typ   string
		lines []string
	}
	fams := map[string]*family{}
	add := func(name, typ string, lines ...string) {
		f := fams[name]
		if f == nil {
			f = &family{typ: typ}
			fams[name] = f
		}
		f.lines = append(f.lines, lines...)
	}
	for _, c := range snap.counters {
		pn := promName(c.Name)
		add(pn, "counter", fmt.Sprintf("%s %d", pn, c.Value))
	}
	for _, g := range snap.gauges {
		pn := promName(g.Name)
		add(pn, "gauge", fmt.Sprintf("%s %d", pn, g.Value))
	}
	for i := range snap.hists {
		h := &snap.hists[i].h
		pn := promName(snap.hists[i].name)
		add(pn, "summary",
			fmt.Sprintf("%s{quantile=\"0.5\"} %s", pn, promFloat(h.Quantile(0.5))),
			fmt.Sprintf("%s{quantile=\"0.99\"} %s", pn, promFloat(h.Quantile(0.99))),
			fmt.Sprintf("%s_sum %s", pn, promFloat(h.Sum)),
			fmt.Sprintf("%s_count %d", pn, h.Count),
		)
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, f.typ); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
	}
	return nil
}

// promName sanitizes a recorder metric name into a Prometheus metric name:
// every character outside [a-zA-Z0-9_] becomes '_', and the whole name is
// prefixed with "arthas_".
func promName(name string) string {
	var sb strings.Builder
	sb.Grow(len(name) + 7)
	sb.WriteString("arthas_")
	for _, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			sb.WriteRune(c)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// promFloat renders a float the way Prometheus expects (no exponent for the
// magnitudes we emit; %g keeps integers clean).
func promFloat(v float64) string { return fmt.Sprintf("%g", v) }
