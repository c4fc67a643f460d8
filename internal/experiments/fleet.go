package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arthas/internal/fleet"
	"arthas/internal/workload"
)

// The fleet experiment: the paper's single-system toolchain scaled out to a
// sharded serving fleet (internal/fleet, docs/FLEET.md). A fault-free
// closed-loop baseline at fleetShards shards, then the same workload with a
// hard fault injected mid-run into one shard. The faulted shard escalates
// (trap → restart → hard → online mitigation) while its siblings keep
// serving; the report compares the run against the baseline and tracks how
// much healthy-shard capacity survived. Shard scaling on real work is
// bench/'s fleet.scale_2shard.

// fleetShards is the fleet experiment's shard count.
const fleetShards = 4

// FleetConfig sizes the fleet experiment; its sizing fields head the
// document's fleet section.
type FleetConfig struct {
	// Clients is the closed-loop client count (default 8).
	Clients int `json:"clients"`
	// OpsPerClient is each client's op count (default 10 000).
	OpsPerClient int `json:"ops_per_client"`
	// Keys is the workload keyspace (default 200).
	Keys int `json:"keys"`
	// Seed fixes the deterministic client streams (default 42).
	Seed uint64 `json:"seed"`
	// Workers is per-shard speculative mitigation parallelism.
	Workers int `json:"-"`
}

func (c FleetConfig) withDefaults() FleetConfig {
	if c.Clients == 0 {
		c.Clients = 8
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 10_000
	}
	if c.Keys == 0 {
		c.Keys = 200
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// FleetBaseline is the fault-free closed-loop run.
type FleetBaseline struct {
	Shards    int     `json:"shards"`
	Done      int64   `json:"ops"`
	Errors    int64   `json:"errors"`
	ElapsedMS float64 `json:"elapsed_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50US     float64 `json:"p50_us"`
	P99US     float64 `json:"p99_us"`
	// RoutingDigest folds every client op's shard assignment, in stream
	// order — a pure function of (seed, clients, ops, shard count). Equal
	// digests across runs certify identical routing.
	RoutingDigest uint64 `json:"routing_digest"`
	// StateDigest is the fleet's checksum-validating logical-state digest
	// after the run; equal digests certify byte-equivalent end state.
	StateDigest int64 `json:"state_digest"`
}

// FleetFaultRun is the mid-run hard-fault measurement.
type FleetFaultRun struct {
	FaultShard   int   `json:"fault_shard"`
	FaultKey     int64 `json:"fault_key"`
	InjectedAtOp int64 `json:"injected_at_op"`
	Done         int64 `json:"ops"`
	Errors       int64 `json:"errors"`
	Unavailable  int64 `json:"unavailable"`
	Traps        int64 `json:"traps"`
	Mitigations  int64 `json:"mitigations"`
	Recovered    int64 `json:"recovered"`
	// Healed reports the faulted key serving again (post-mitigation read
	// succeeded) before the measurement window closed.
	Healed    bool    `json:"healed"`
	ElapsedMS float64 `json:"elapsed_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50US     float64 `json:"p50_us"`
	P99US     float64 `json:"p99_us"`
	// HealthyShardRatio compares non-faulted shards' delivered throughput
	// (their completed ops over the run's wall clock) against the same
	// shards in the fault-free baseline: 1.0 means the fault cost the
	// siblings nothing.
	HealthyShardRatio float64 `json:"healthy_shard_ratio"`
	// IncidentJSONBytes sizes the faulted shard's published incident report
	// (provenance-enabled mitigation).
	IncidentJSONBytes int `json:"incident_json_bytes,omitempty"`
}

// FleetResults is the full fleet experiment output (the document's fleet
// section).
type FleetResults struct {
	FleetConfig
	Baseline FleetBaseline  `json:"baseline"`
	Fault    *FleetFaultRun `json:"fault"`
}

// fleetDriver builds the closed-loop driver every fleet and repl run
// shares, so the runs an experiment compares execute identical client
// streams.
//
// Write values are a pure function of the key, not of the stream position:
// concurrent clients race on hot keys (YCSB-A is zipfian), and the state
// digest can only be scheduling-independent if every interleaving of the
// same op multiset converges to the same end state — key-derived values
// make concurrent upserts commute. Throughput and the persist path are
// unaffected; only the payload bytes are pinned.
func fleetDriver(cfg FleetConfig, f *fleet.Fleet) *workload.Driver {
	return &workload.Driver{
		Clients:      cfg.Clients,
		OpsPerClient: cfg.OpsPerClient,
		Shape:        workload.WorkloadA(0, cfg.Keys, cfg.Seed),
		ErrClass:     fleet.ErrClass,
		Do: func(_ int, op workload.Op) error {
			if op.Kind != workload.OpRead {
				op.Value = op.Key*2654435761 + 1
			}
			_, err := f.Do(op)
			return err
		},
	}
}

// routingDigest folds shard assignments of every client stream (FNV-1a).
func routingDigest(cfg FleetConfig, shards int) uint64 {
	d := fleetDriver(cfg, nil) // streams only; Do never called
	h := uint64(14695981039346656037)
	for c := 0; c < cfg.Clients; c++ {
		for _, op := range d.ClientStream(c) {
			h ^= uint64(fleet.RouteFor(op.Key, shards))
			h *= 1099511628211
		}
	}
	return h
}

// errCount pulls one class tally out of a driver report.
func errCount(rep *workload.DriverReport, class string) int64 {
	for _, ec := range rep.ErrCounts {
		if ec.Class == class {
			return ec.N
		}
	}
	return 0
}

// fleetFaultKey finds a key outside the workload keyspace routing to shard 0
// — the deterministic injection target.
func fleetFaultKey(shards int) int64 {
	for k := int64(1) << 40; ; k++ {
		if fleet.RouteFor(k, shards) == 0 {
			return k
		}
	}
}

// healTime injects a hard fault into key and measures until it serves
// again: strike one trips the transient restart, strike two escalates to
// hard-fault mitigation (or failover), and a nil read means healed.
func healTime(f *fleet.Fleet, key int64) (time.Duration, bool) {
	if _, err := f.InjectFault(key, 5); err != nil {
		return 0, false
	}
	start := time.Now()
	deadline := start.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := f.Get(key); err == nil {
			return time.Since(start), true
		}
		time.Sleep(100 * time.Microsecond)
	}
	return time.Since(start), false
}

// RunFleet executes the fleet experiment.
func RunFleet(cfg FleetConfig) (*FleetResults, error) {
	cfg = cfg.withDefaults()
	res := &FleetResults{FleetConfig: cfg}

	// Fault-free baseline. Provenance on, matching the fault run's fleet
	// exactly, so the two runs differ only by the injected fault.
	f, err := fleet.New(fleet.Config{Shards: fleetShards, BaseName: "bench", Workers: cfg.Workers, Provenance: true})
	if err != nil {
		return nil, err
	}
	base := fleetDriver(cfg, f).Run()
	if base.Errors != 0 {
		return nil, fmt.Errorf("fleet: fault-free run had %d errors (%+v)", base.Errors, base.ErrCounts)
	}
	dig, err := f.StateDigest()
	if err != nil {
		return nil, err
	}
	baseStats := f.Stats()
	res.Baseline = FleetBaseline{
		Shards:        fleetShards,
		Done:          base.Done,
		Errors:        base.Errors,
		ElapsedMS:     base.ElapsedMS,
		OpsPerSec:     base.OpsPerSec,
		P50US:         base.P50US,
		P99US:         base.P99US,
		RoutingDigest: routingDigest(cfg, fleetShards),
		StateDigest:   dig,
	}

	// Fault run: inject a hard fault into shard 0 halfway through, watch it
	// heal online while siblings serve.
	f, err = fleet.New(fleet.Config{Shards: fleetShards, BaseName: "bench-fault", Workers: cfg.Workers, Provenance: true})
	if err != nil {
		return nil, err
	}
	faultKey := fleetFaultKey(fleetShards)
	if err := f.Put(faultKey, 31337); err != nil {
		return nil, err
	}

	d := fleetDriver(cfg, f)
	half := int64(cfg.Clients*cfg.OpsPerClient) / 2
	var injectedAt atomic.Int64
	var once sync.Once
	healed := make(chan bool, 1)
	d.Tick = func(done int) {
		if int64(done) < half {
			return
		}
		once.Do(func() {
			injectedAt.Store(int64(done))
			go func() {
				_, ok := healTime(f, faultKey)
				healed <- ok
			}()
		})
	}
	rep := d.Run()
	ok := false
	select {
	case ok = <-healed:
	case <-time.After(30 * time.Second):
	}

	stats := f.Stats()
	fr := &FleetFaultRun{
		FaultShard:   0,
		FaultKey:     faultKey,
		InjectedAtOp: injectedAt.Load(),
		Done:         rep.Done,
		Errors:       rep.Errors,
		Unavailable:  errCount(rep, "unavailable"),
		Traps:        errCount(rep, "trap"),
		Healed:       ok,
		ElapsedMS:    rep.ElapsedMS,
		OpsPerSec:    rep.OpsPerSec,
		P50US:        rep.P50US,
		P99US:        rep.P99US,
	}
	// Healthy-shard capacity: ops delivered by non-faulted shards per wall
	// second, fault run vs fault-free baseline over the same streams.
	var healthyOps, healthyBase int64
	for i := range stats {
		fr.Mitigations += stats[i].Mitigations
		fr.Recovered += stats[i].Recovered
		if i != fr.FaultShard {
			healthyOps += stats[i].Ops
			healthyBase += baseStats[i].Ops
		}
	}
	if healthyBase > 0 && base.Elapsed > 0 && rep.Elapsed > 0 {
		fr.HealthyShardRatio = (float64(healthyOps) / rep.Elapsed.Seconds()) /
			(float64(healthyBase) / base.Elapsed.Seconds())
	}
	if inc := f.Incident(fr.FaultShard); inc != nil {
		fr.IncidentJSONBytes = len(inc.JSON())
	}
	res.Fault = fr
	return res, nil
}

// Text renders the experiment for the terminal.
func (r *FleetResults) Text() string {
	var sb strings.Builder
	b := r.Baseline
	sb.WriteString("Sharded serving fleet (docs/FLEET.md)\n")
	fmt.Fprintf(&sb, "  closed loop: %d clients x %d ops, %d keys, seed %d, %d shards\n",
		r.Clients, r.OpsPerClient, r.Keys, r.Seed, b.Shards)
	fmt.Fprintf(&sb, "  fault-free baseline:  %d ops, %.0f ops/sec, p50 %.1f us, p99 %.1f us, routing digest %x\n",
		b.Done, b.OpsPerSec, b.P50US, b.P99US, b.RoutingDigest)
	if f := r.Fault; f != nil {
		fmt.Fprintf(&sb, "  mid-run hard fault (shard %d of %d, key %d, at op %d):\n",
			f.FaultShard, b.Shards, f.FaultKey, f.InjectedAtOp)
		fmt.Fprintf(&sb, "    healed online:        %v (mitigations %d, recovered %d)\n",
			f.Healed, f.Mitigations, f.Recovered)
		fmt.Fprintf(&sb, "    fleet ops/sec:        %.0f (fault-free baseline %.0f)\n",
			f.OpsPerSec, b.OpsPerSec)
		fmt.Fprintf(&sb, "    healthy-shard ratio:  %.2f (non-faulted shards vs baseline)\n",
			f.HealthyShardRatio)
		fmt.Fprintf(&sb, "    refusals/traps:       %d unavailable, %d trapped of %d ops\n",
			f.Unavailable, f.Traps, f.Done)
		if f.IncidentJSONBytes > 0 {
			fmt.Fprintf(&sb, "    incident report:      %d bytes (arthas-incident/v1)\n", f.IncidentJSONBytes)
		}
	}
	return sb.String()
}
