package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// modelTarget is a KV that is only a map: the generator's tests need the
// op semantics, not the system.
type modelTarget map[int64]int64

func (m modelTarget) do(o op) (int64, error) {
	v, ok := m[o.key]
	switch o.kind {
	case opGet:
		if !ok {
			return absent, nil
		}
		return v, nil
	case opPut:
		m[o.key] = o.val
		return 0, nil
	default:
		delete(m, o.key)
		if ok {
			return 1, nil
		}
		return 0, nil
	}
}

// TestGeneratorStationary drives every workload's streams for a full run's
// worth of ops: the live key count must stay inside the workload's stated
// band of the preload count (an "insert" is a re-put of a deleted key, so
// nothing grows), and the model must agree with a plain map throughout.
func TestGeneratorStationary(t *testing.T) {
	for i := range workloads {
		spec := &workloads[i]
		for c, keys := range partition(keyRange(spec.keys), spec.clients, func(k int64) int { return int(k) % spec.clients }) {
			s, kv := newStream(spec.name, 7, c, keys, spec.mix), modelTarget{}
			if err := preload(kv, s); err != nil {
				t.Fatal(err)
			}
			if s.live() != len(keys) {
				t.Fatalf("%s: preload left %d of %d keys live", spec.name, s.live(), len(keys))
			}
			for n := 0; n < spec.opsPerSecond*10/spec.clients; n++ {
				o := s.next()
				v, _ := kv.do(o)
				if !s.check(o, v) {
					t.Fatalf("%s client %d op %d: %s %d = %d disagrees with the model", spec.name, c, n, o.kind, o.key, v)
				}
			}
			share := float64(s.live()) / float64(len(keys))
			if share < spec.liveBand[0] || share > spec.liveBand[1] || len(kv) != s.live() {
				t.Errorf("%s client %d: %d of %d keys live (map has %d), band %v", spec.name, c, s.live(), len(keys), len(kv), spec.liveBand)
			}
		}
	}
}

// TestStreamsArePureFunctions: the same (workload, seed, client) gives the
// same ops; changing any one of the three gives different ones.
func TestStreamsArePureFunctions(t *testing.T) {
	draw := func(workload string, seed uint64, client int) string {
		s := newStream(workload, seed, client, keyRange(64), mix{getPct: 40, delPct: 10})
		var b strings.Builder
		for i := 0; i < 32; i++ {
			fmt.Fprint(&b, s.next())
		}
		return b.String()
	}
	base := draw("w", 1, 0)
	if draw("w", 1, 0) != base {
		t.Error("same identity, different stream")
	}
	for _, other := range []string{draw("x", 1, 0), draw("w", 2, 0), draw("w", 1, 1)} {
		if other == base {
			t.Error("different identity, same stream")
		}
	}
}

// TestNoTimedPhaseUsesWorkloadGenerate: internal/workload's generator
// inserts fresh keys, which makes chains grow for as long as a phase runs.
func TestNoTimedPhaseUsesWorkloadGenerate(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(src, []byte("workload.Generate")) {
			t.Errorf("%s uses workload.Generate", f)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4) == [1.75, 3.5, 5.25]
	q1, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q3 != 5.25 {
		t.Errorf("quartiles = %v, %v; want 1.75, 5.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	if q1, q3 := quartiles([]float64{10, 20, 40}); q1 != 10 || q3 != 40 {
		t.Errorf("quartiles of three = %v, %v; want 10, 40", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	lm := func(v ...float64) ledgerMetric {
		m := ledgerMetric{Values: v, Median: median(v)}
		m.Q1, m.Q3 = quartiles(v)
		return m
	}
	lower := &metricSpec{name: "p50_us", better: "lower", bound: 0.07}
	higher := &metricSpec{name: "ops_per_s", better: "higher", bound: 0.07}
	exactly := &metricSpec{name: "failed_share", better: "lower"}
	for _, c := range []struct {
		m    *metricSpec
		a, b ledgerMetric
		want string
	}{
		{lower, lm(100, 101, 102), lm(100, 102, 103), "same"},
		{lower, lm(100, 101, 102), lm(110, 111, 112), "worse"},
		{lower, lm(100, 101, 102), lm(80, 81, 82), "better"},
		{higher, lm(100, 101, 102), lm(80, 81, 82), "worse"},
		{higher, lm(100, 101, 102), lm(120, 121, 122), "better"},
		{lower, lm(80, 100, 120), lm(85, 104, 125), "unresolved"}, // spread wider than the bound
		{lower, lm(80, 100, 120), lm(130, 150, 170), "worse"},     // wide, but every run of B loses
		{exactly, lm(0, 0, 0), lm(0, 0, 0), "same"},
		{exactly, lm(0, 0, 0), lm(0, 0.001, 0.001), "worse"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.name, c.a.Values, c.b.Values, got, c.want)
		}
	}
}

// benchmarkJSON is the contract file at the repo root. The driver reads it;
// the benchmark's own definition is spec.go. This test keeps them in step.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	bm := readBenchmarkJSON(t)
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, spec.go %q / %q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	var e2e []metricSpec
	for _, m := range endToEnd {
		if m.driver {
			e2e = append(e2e, m)
		}
	}
	if len(bm.EndToEnd) != len(e2e) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go declares %d for the driver", len(bm.EndToEnd), len(e2e))
	}
	for i, m := range bm.EndToEnd {
		if s := e2e[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better || m.Bound != s.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, spec.go %+v", i, m, s)
		}
	}
	if len(bm.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d (at most 128)", len(bm.PerLayer), len(perLayer))
	}
	for i, m := range bm.PerLayer {
		if s := perLayer[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, spec.go %+v", i, m, s)
		}
	}
}

var serveBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "arthas-perf-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serveBin = filepath.Join(dir, "arthas-serve")
	if out, err := exec.Command("go", "build", "-o", serveBin, "arthas/cmd/arthas-serve").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building arthas-serve: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestSmoke runs all six workloads, untraced and traced (probes, rig,
// ladder, scale, drill), at 1 % of the op counts. Every metric
// BENCHMARK.json names must be emitted, finite and well-named, and every
// answer must be right — so a benchmark that no longer builds or runs
// against the layers fails here.
func TestSmoke(t *testing.T) {
	bm := readBenchmarkJSON(t)
	wellNamed := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	o := options{seed: 3, seconds: 0.1, serveBin: serveBin, outDir: t.TempDir()}
	start := time.Now()
	for i := range workloads {
		spec := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := runOne(spec, o, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", spec.name, traced, err)
			}
			if !res.correct() || res.attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d, failed %d, violations %q", spec.name, traced, res.attempted, res.failed, res.violations)
			}
			var names []string
			if traced {
				for _, m := range bm.PerLayer {
					names = append(names, m.Name)
				}
			} else {
				for _, m := range bm.EndToEnd {
					names = append(names, m.Name)
				}
				for _, m := range endToEnd {
					if m.appliesTo(spec.name) {
						names = append(names, m.name)
					}
				}
			}
			for _, name := range names {
				v, ok := res.metrics[name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) || !wellNamed.MatchString(name) {
					t.Errorf("%s traced=%v: metric %q = %v (emitted %v)", spec.name, traced, name, v, ok)
				}
			}
			if !traced {
				for _, m := range bm.EndToEnd {
					if res.metrics[m.Name] <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, must never be 0", spec.name, m.Name, res.metrics[m.Name])
					}
				}
			}
			if traced {
				if _, err := os.Stat(filepath.Join(o.outDir, "trace-"+spec.name+".jsonl")); err != nil {
					t.Errorf("%s: no span file: %v", spec.name, err)
				}
			}
		}
	}
	t.Logf("smoke took %v", time.Since(start))
}

// TestTracerSelfTime: a layer's self time is its span minus what its child
// spans cover, and child spans point at the span that caused them.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	tr.on = true
	tr.begin(spReq)
	tr.begin(spCall)
	tr.begin(spHooks)
	time.Sleep(2 * time.Millisecond)
	tr.end()
	tr.end()
	tr.end()
	if tr.count[spReq] != 1 || tr.count[spCall] != 1 || tr.count[spHooks] != 1 {
		t.Fatalf("counts %v", tr.count)
	}
	if tr.total[spReq] < tr.total[spCall] || tr.total[spCall] < tr.total[spHooks] {
		t.Errorf("totals not nested: %v", tr.total)
	}
	if got := tr.self[spCall]; got != tr.total[spCall]-tr.total[spHooks] {
		t.Errorf("call self %d, want %d", got, tr.total[spCall]-tr.total[spHooks])
	}
	hooks, call, req := tr.buf[0], tr.buf[1], tr.buf[2]
	if hooks.parent != call.id || call.parent != req.id || req.parent != 0 || hooks.req != req.req {
		t.Errorf("span tree wrong: %+v %+v %+v", hooks, call, req)
	}
}
