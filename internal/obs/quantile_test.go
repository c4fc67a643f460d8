package obs

import (
	"math"
	"strings"
	"testing"
)

func TestQuantileUniform(t *testing.T) {
	r := NewRecorder()
	for v := 1; v <= 1024; v++ {
		r.Observe("lat", float64(v))
	}
	p50 := r.Quantile("lat", 0.5)
	p99 := r.Quantile("lat", 0.99)
	// Power-of-two buckets bound the error by one bucket width: the true
	// p50 (≈512) lies in [256, 1024), the true p99 (≈1014) in [512, 1024].
	if p50 < 256 || p50 > 1024 {
		t.Fatalf("p50 = %v, want within [256, 1024]", p50)
	}
	if p99 < 512 || p99 > 1024 {
		t.Fatalf("p99 = %v, want within [512, 1024]", p99)
	}
	if !(p50 < p99) {
		t.Fatalf("quantiles not monotone: p50=%v p99=%v", p50, p99)
	}
	if min, max := r.Quantile("lat", 0), r.Quantile("lat", 1); min != 1 || max != 1024 {
		t.Fatalf("q0=%v q1=%v, want 1 and 1024", min, max)
	}
}

func TestQuantileDegenerate(t *testing.T) {
	h := &Hist{}
	for i := 0; i < 100; i++ {
		h.observe(5)
	}
	// All samples equal: the clamp to [Min, Max] makes every quantile exact.
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 5 {
			t.Fatalf("Quantile(%v) = %v, want 5", q, got)
		}
	}
}

func TestQuantileBimodal(t *testing.T) {
	// 90 fast samples at ~4, 10 slow at ~4096: p50 sits in the fast mode,
	// p99 in the slow mode — the shape tail-latency hunting needs.
	h := &Hist{}
	for i := 0; i < 90; i++ {
		h.observe(4)
	}
	for i := 0; i < 10; i++ {
		h.observe(4096)
	}
	if p50 := h.Quantile(0.5); p50 < 4 || p50 >= 8 {
		t.Fatalf("p50 = %v, want in the fast mode [4, 8)", p50)
	}
	if p99 := h.Quantile(0.99); p99 < 2048 || p99 > 4096 {
		t.Fatalf("p99 = %v, want in the slow mode [2048, 4096]", p99)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var empty Hist
	if got := empty.Quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	if got := NewRecorder().Quantile("absent", 0.5); got != 0 {
		t.Fatalf("absent quantile = %v", got)
	}
	// Out-of-range q clamps rather than panics.
	h := &Hist{}
	h.observe(10)
	if h.Quantile(-1) != 10 || h.Quantile(2) != 10 {
		t.Fatalf("clamped q = %v / %v", h.Quantile(-1), h.Quantile(2))
	}
	// Sub-1 samples land in bucket 0.
	var sub Hist
	sub.observe(0.25)
	sub.observe(0.75)
	if got := sub.Quantile(0.5); got < 0.25 || got > 0.75 {
		t.Fatalf("sub-1 p50 = %v", got)
	}
}

func TestSummaryShowsQuantiles(t *testing.T) {
	r := NewRecorder()
	for v := 1; v <= 100; v++ {
		r.Observe("ckpt.hook.ns", float64(v))
	}
	s := r.Summary()
	if !strings.Contains(s, "p50=") || !strings.Contains(s, "p99=") {
		t.Fatalf("summary missing quantiles:\n%s", s)
	}
}

// divisionBucket is the halving loop bucketIndex replaced; kept here as the
// reference the table below compares against.
func divisionBucket(v float64) int {
	b := 0
	for x := v; x >= 1 && b < len(Hist{}.Buckets)-1; x /= 2 {
		b++
	}
	return b
}

func TestBucketIndexMatchesDivisionLoop(t *testing.T) {
	type edge struct {
		v    float64
		want int
	}
	two := func(k int) float64 { return math.Ldexp(1, k) }
	capped := func(b int) int { return min(b, len(Hist{}.Buckets)-1) }
	cases := []edge{
		{math.Inf(-1), 0}, {-5, 0}, {0, 0}, {0.5, 0}, {math.Nextafter(1, 0), 0}, {math.NaN(), 0},
		{1, 1}, {1.5, 1}, {math.Nextafter(2, 0), 1}, {2, 2}, {3, 2}, {4, 3},
		{two(62), 63}, {two(63), 63}, {two(64), 63}, {math.MaxFloat64, 63}, {math.Inf(1), 63},
	}
	// Every bucket edge: 2^k, the largest float below it, and 2^k − 1 where
	// a float64 holds that exactly.
	for k := 1; k <= 64; k++ {
		cases = append(cases, edge{two(k), capped(k + 1)}, edge{math.Nextafter(two(k), 0), capped(k)})
		if k <= 53 {
			cases = append(cases, edge{two(k) - 1, capped(k)})
		}
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want || got != divisionBucket(c.v) {
			t.Errorf("bucketIndex(%v) = %d, want %d (division loop: %d)", c.v, got, c.want, divisionBucket(c.v))
		}
	}
	// And a sweep between the edges.
	for v := 0.25; v < 1e20; v *= 1.37 {
		if got, want := bucketIndex(v), divisionBucket(v); got != want {
			t.Fatalf("bucketIndex(%v) = %d, division loop says %d", v, got, want)
		}
	}
}
