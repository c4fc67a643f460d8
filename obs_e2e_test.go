package arthas_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"

	"arthas/internal/faults"
	"arthas/internal/obs"
)

// TestObsPipelineE2E runs fault f1 end-to-end under Arthas with a recording
// sink and asserts the span tree reproduces the paper's Figure 4 phases in
// order: run → detect → mitigate (plan → revert×N → re-execute) → recovered.
func TestObsPipelineE2E(t *testing.T) {
	rec := obs.NewRecorder()
	out, err := faults.RunArthas(faults.F1(), faults.RunConfig{WorkloadOps: 200, Obs: rec})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Recovered {
		t.Fatalf("f1 not recovered: %+v", out)
	}

	// Phase order: first occurrence of each phase span must be monotone.
	names := rec.SpanNames()
	first := func(name string) int {
		for i, n := range names {
			if n == name {
				return i
			}
		}
		return -1
	}
	phases := []string{
		"pipeline.run", "pipeline.detect", "reactor.mitigate",
		"reactor.plan", "reactor.revert", "reactor.reexec",
		"pipeline.recovered",
	}
	prev := -1
	for _, p := range phases {
		i := first(p)
		if i < 0 {
			t.Fatalf("phase span %q missing; spans: %v", p, names)
		}
		if i < prev {
			t.Fatalf("phase %q out of order at %d (prev phase at %d); spans: %v", p, i, prev, names)
		}
		prev = i
	}

	// Tree shape: plan, revert, and reexec spans all live under mitigate.
	spans := rec.Spans()
	parent := map[uint64]uint64{}
	var mitigateID uint64
	for _, s := range spans {
		parent[s.ID] = s.Parent
		if s.Name == "reactor.mitigate" && mitigateID == 0 {
			mitigateID = s.ID
		}
	}
	underMitigate := func(id uint64) bool {
		for id != 0 {
			if id == mitigateID {
				return true
			}
			id = parent[id]
		}
		return false
	}
	for _, s := range spans {
		switch s.Name {
		case "reactor.plan", "reactor.revert", "reactor.reexec":
			if !underMitigate(s.ID) {
				t.Fatalf("%s span %d not a descendant of reactor.mitigate", s.Name, s.ID)
			}
			if !s.Ended {
				t.Fatalf("%s span %d never ended", s.Name, s.ID)
			}
		}
	}

	// Attempt accounting comes from the same telemetry.
	if got := rec.SpanCount("reactor.reexec"); got != out.Attempts {
		t.Fatalf("reexec spans = %d, Outcome.Attempts = %d", got, out.Attempts)
	}
	if rec.SpanCount("reactor.revert") < 1 {
		t.Fatal("no reactor.revert spans recorded")
	}

	// Every instrumented layer reported.
	for _, c := range []string{
		"pmem.store", "pmem.persist", "ckpt.versions",
		"vm.instructions", "trace.events", "detector.observe",
	} {
		if rec.CounterValue(c) == 0 {
			t.Fatalf("counter %q is zero", c)
		}
	}
	if rec.CounterValue("detector.hard") == 0 {
		t.Fatal("hard-fault classification not recorded")
	}

	// The export is valid JSONL end to end.
	var buf bytes.Buffer
	if err := rec.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var v map[string]any
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < len(spans) {
		t.Fatalf("JSONL has %d lines for %d spans", lines, len(spans))
	}
}

// TestObsDisabledByDefault confirms a plain run attaches no telemetry: the
// instance works identically with the no-op sink (the zero-cost guarantee's
// functional half; the cost half is BenchmarkObs*).
func TestObsDisabledByDefault(t *testing.T) {
	out, err := faults.RunArthas(faults.F1(), faults.RunConfig{WorkloadOps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Recovered {
		t.Fatalf("f1 not recovered without observer: %+v", out)
	}
}
