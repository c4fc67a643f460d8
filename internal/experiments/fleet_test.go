package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// smallFleetConfig keeps the experiment fast enough for the unit suite; the
// tiny op counts still cross the mid-run injection point.
func smallFleetConfig() FleetConfig {
	return FleetConfig{
		Clients:      2,
		OpsPerClient: 80,
		Keys:         40,
		Seed:         7,
	}
}

func TestRunFleetSmall(t *testing.T) {
	res, err := RunFleet(smallFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := res.Baseline
	if b.Done != 160 || b.Errors != 0 || b.Shards != fleetShards {
		t.Fatalf("baseline %+v", b)
	}
	if b.P99US < b.P50US {
		t.Fatalf("p99 < p50 in %+v", b)
	}
	f := res.Fault
	if f == nil {
		t.Fatal("no fault run")
	}
	if !f.Healed {
		t.Fatalf("faulted shard did not heal: %+v", f)
	}
	if f.Mitigations < 1 || f.Recovered < 1 {
		t.Fatalf("no mitigation recorded: %+v", f)
	}
	if f.IncidentJSONBytes == 0 {
		t.Fatal("no incident report from provenance-enabled fault run")
	}
	if f.InjectedAtOp < int64(f.Done)/2 {
		t.Fatalf("injected too early: op %d of %d", f.InjectedAtOp, f.Done)
	}
	text := res.Text()
	for _, want := range []string{"Sharded serving fleet", "fault-free baseline", "healed online", "healthy-shard ratio"} {
		if !strings.Contains(text, want) {
			t.Fatalf("text missing %q:\n%s", want, text)
		}
	}
}

// TestRunFleetDeterministic is the bench determinism contract: same seed ⇒
// identical routing digests and identical end-state digests.
func TestRunFleetDeterministic(t *testing.T) {
	a, err := RunFleet(smallFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleet(smallFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Baseline.RoutingDigest != b.Baseline.RoutingDigest {
		t.Fatal("routing digest differs between runs")
	}
	if a.Baseline.StateDigest != b.Baseline.StateDigest {
		t.Fatal("state digest differs between runs")
	}
	// Different shard counts route differently (the digest covers the
	// assignment, not just the stream).
	if routingDigest(smallFleetConfig(), 1) == routingDigest(smallFleetConfig(), 2) {
		t.Fatal("routing digest ignores shard count")
	}
}

// TestFleetJSONDoc runs the fleet unit through the assembler: the document
// holds the schema and the fleet section, nothing else.
func TestFleetJSONDoc(t *testing.T) {
	rep, err := Run("fleet", Config{Clients: 2, Ops: 80})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &keys); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys["schema"] == nil || keys["fleet"] == nil {
		t.Fatalf("document sections: %s", buf.Bytes())
	}
	var doc struct {
		Schema string        `json:"schema"`
		Fleet  *FleetResults `json:"fleet"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != JSONSchema {
		t.Fatalf("schema %q", doc.Schema)
	}
	if doc.Fleet == nil || doc.Fleet.Clients != 2 || doc.Fleet.Baseline.Done != 160 || doc.Fleet.Fault == nil {
		t.Fatalf("fleet doc: %+v", doc.Fleet)
	}
	if !doc.Fleet.Fault.Healed {
		t.Fatal("fault run not healed in JSON doc")
	}
	if !strings.Contains(rep.Text(), "Sharded serving fleet") {
		t.Fatalf("fleet text:\n%s", rep.Text())
	}
}
