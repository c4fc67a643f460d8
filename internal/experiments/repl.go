package experiments

import (
	"fmt"
	"strings"
	"sync"

	"arthas/internal/fleet"
	"arthas/internal/obs"
)

// The replication experiment (docs/REPLICATION.md): what does attaching a
// standby replica to every shard cost, how far does the standby trail, and
// what does failover buy when mitigation cannot heal? Three measurements:
//
//   - Overhead: the same closed-loop workload with replicas off and on.
//     Shipping is the checkpoint log the primary already writes, batched at
//     the lag bound, so the gap is the serialization + apply cost.
//   - Lag: the per-shard record lag sampled across the run at request
//     boundaries (repl.Status.Lag), where the shipper keeps it under the
//     bound — the tail the promote-time catch-up drain has to cover.
//   - Failover vs mitigation: the same mid-run hard fault healed two ways —
//     online mitigation (replica idle), and chaos-failed mitigation forcing
//     promotion. Both runs report time from injection to the key serving
//     again, so the failover window is directly comparable to the
//     mitigation window it replaces.

// ReplConfig sizes the replication experiment's closed loop.
type ReplConfig struct {
	// Clients is the closed-loop client count (default 4).
	Clients int `json:"clients"`
	// OpsPerClient is each client's op count (default 10 000).
	OpsPerClient int `json:"ops_per_client"`
}

// The experiment's fixed shape: fleet size, keyspace, stream seed, and the
// record lag a standby may trail before the serving path ships.
const (
	replShards = 2
	replKeys   = 100
	replSeed   = 42
	replMaxLag = 8
)

func (c ReplConfig) withDefaults() ReplConfig {
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 10_000
	}
	return c
}

// ReplOverheadPoint is one closed-loop run, with or without replicas.
type ReplOverheadPoint struct {
	Replicas  bool    `json:"replicas"`
	Done      int64   `json:"ops"`
	Errors    int64   `json:"errors"`
	ElapsedMS float64 `json:"elapsed_ms"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50US     float64 `json:"p50_us"`
	P99US     float64 `json:"p99_us"`
	// StateDigest must match between the two points: replication may not
	// change the served state.
	StateDigest int64 `json:"state_digest"`
	// Ships/Records are the stream totals across shards (replicas only).
	Ships   uint64 `json:"ships,omitempty"`
	Records uint64 `json:"records,omitempty"`
}

// ReplLag summarizes the sampled per-shard record lag.
type ReplLag struct {
	Bound   int     `json:"bound"`
	Samples int64   `json:"samples"`
	P50     float64 `json:"p50"`
	P99     float64 `json:"p99"`
	Max     float64 `json:"max"`
	// FinalLag is the largest per-shard lag left at the run's last request
	// boundary — the tail a promotion would drain once traffic stops.
	FinalLag uint64 `json:"final_lag"`
}

// ReplFailover compares the two heal paths for the same injected fault.
type ReplFailover struct {
	// MitigationHealMS is injection→served-again with mitigation healing
	// online (the replica stays a standby).
	MitigationHealMS float64 `json:"mitigation_heal_ms"`
	MitigationHealed bool    `json:"mitigation_healed"`
	// FailoverHealMS is the same window with mitigation chaos-failed, healed
	// by promoting the standby instead.
	FailoverHealMS float64 `json:"failover_heal_ms"`
	FailoverHealed bool    `json:"failover_healed"`
	Promotions     int64   `json:"promotions"`
	// OriginalValueServed reports the promoted replica returning the
	// pre-fault value (the corruption never shipped).
	OriginalValueServed bool `json:"original_value_served"`
}

// ReplResults is the full replication experiment output (the document's
// repl section).
type ReplResults struct {
	Shards int `json:"shards"`
	ReplConfig
	Keys     int                 `json:"keys"`
	Seed     uint64              `json:"seed"`
	Overhead []ReplOverheadPoint `json:"overhead"`
	Lag      ReplLag             `json:"lag"`
	Failover *ReplFailover       `json:"failover"`
}

// replFleet builds one experiment fleet; withReplicas is the only knob that
// differs between the overhead points.
func replFleet(name string, withReplicas, chaosFail bool) (*fleet.Fleet, error) {
	return fleet.New(fleet.Config{
		Shards: replShards, BaseName: name, Provenance: true,
		Replicas: withReplicas, ReplMaxLag: replMaxLag,
		ChaosMitigationFail: chaosFail,
	})
}

// RunRepl executes the replication experiment.
func RunRepl(cfg ReplConfig) (*ReplResults, error) {
	cfg = cfg.withDefaults()
	res := &ReplResults{Shards: replShards, ReplConfig: cfg, Keys: replKeys, Seed: replSeed}
	// The fleet experiment's driver over this experiment's streams.
	streams := FleetConfig{Clients: cfg.Clients, OpsPerClient: cfg.OpsPerClient, Keys: replKeys, Seed: replSeed}

	// Overhead: replicas off, then on, same streams. The lag histogram rides
	// on the replicated run, sampled from the driver's tick hook.
	var lag obs.Hist
	var lagMu sync.Mutex
	for _, withReplicas := range []bool{false, true} {
		f, err := replFleet(fmt.Sprintf("repl-bench-%v", withReplicas), withReplicas, false)
		if err != nil {
			return nil, err
		}
		d := fleetDriver(streams, f)
		if withReplicas {
			d.Tick = func(done int) {
				if done%32 != 0 {
					return
				}
				lagMu.Lock()
				for _, st := range f.ReplStatus() {
					lag.Add(float64(st.Lag))
				}
				lagMu.Unlock()
			}
		}
		rep := d.Run()
		if rep.Errors != 0 {
			return nil, fmt.Errorf("repl: fault-free run (replicas=%v) had %d errors (%+v)",
				withReplicas, rep.Errors, rep.ErrCounts)
		}
		dig, err := f.StateDigest()
		if err != nil {
			return nil, err
		}
		pt := ReplOverheadPoint{
			Replicas:    withReplicas,
			Done:        rep.Done,
			Errors:      rep.Errors,
			ElapsedMS:   rep.ElapsedMS,
			OpsPerSec:   rep.OpsPerSec,
			P50US:       rep.P50US,
			P99US:       rep.P99US,
			StateDigest: dig,
		}
		if withReplicas {
			var final uint64
			for _, st := range f.ReplStatus() {
				pt.Ships += st.Ships
				pt.Records += st.Records
				if st.Lag > final {
					final = st.Lag
				}
			}
			res.Lag = ReplLag{
				Bound:    replMaxLag,
				Samples:  lag.Count,
				P50:      lag.Quantile(0.5),
				P99:      lag.Quantile(0.99),
				Max:      lag.Max,
				FinalLag: final,
			}
		}
		res.Overhead = append(res.Overhead, pt)
	}
	if res.Overhead[0].StateDigest != res.Overhead[1].StateDigest {
		return nil, fmt.Errorf("repl: replication changed served state: digest %d vs %d",
			res.Overhead[0].StateDigest, res.Overhead[1].StateDigest)
	}

	// Failover vs mitigation: identical fleets, identical fault, the only
	// difference is whether mitigation is allowed to succeed.
	fo := &ReplFailover{}
	faultKey := fleetFaultKey(replShards)
	for _, chaos := range []bool{false, true} {
		f, err := replFleet(fmt.Sprintf("repl-heal-%v", chaos), true, chaos)
		if err != nil {
			return nil, err
		}
		if err := f.Put(faultKey, 31337); err != nil {
			return nil, err
		}
		// Warm state so promotion replays a real log, not just one record.
		d := fleetDriver(streams, f)
		d.OpsPerClient = 50
		if rep := d.Run(); rep.Errors != 0 {
			return nil, fmt.Errorf("repl: warmup had %d errors", rep.Errors)
		}
		heal, ok := healTime(f, faultKey)
		if chaos {
			fo.FailoverHealMS = ms(heal)
			fo.FailoverHealed = ok
			if v, err := f.Get(faultKey); err == nil && v == 31337 {
				fo.OriginalValueServed = true
			}
			for _, st := range f.Stats() {
				fo.Promotions += st.Promotions
			}
		} else {
			fo.MitigationHealMS = ms(heal)
			fo.MitigationHealed = ok
		}
	}
	res.Failover = fo
	return res, nil
}

// Text renders the experiment for the terminal.
func (r *ReplResults) Text() string {
	var sb strings.Builder
	sb.WriteString("Replicated pools (docs/REPLICATION.md)\n")
	fmt.Fprintf(&sb, "closed loop: %d shards, %d clients x %d ops, %d keys, seed %d, lag bound %d\n\n",
		r.Shards, r.Clients, r.OpsPerClient, r.Keys, r.Seed, r.Lag.Bound)
	fmt.Fprintf(&sb, "%-10s %10s %12s %10s %10s\n", "replicas", "ops", "ops/sec", "p50 us", "p99 us")
	var base float64
	for _, p := range r.Overhead {
		if !p.Replicas {
			base = p.OpsPerSec
		}
		note := ""
		if p.Replicas && base > 0 {
			note = fmt.Sprintf("  (%.1f%% overhead, %d records in %d ships)",
				(1-p.OpsPerSec/base)*100, p.Records, p.Ships)
		}
		fmt.Fprintf(&sb, "%-10v %10d %12.0f %10.1f %10.1f%s\n",
			p.Replicas, p.Done, p.OpsPerSec, p.P50US, p.P99US, note)
	}
	fmt.Fprintf(&sb, "\nstandby lag (records, bound %d): p50 %.0f, p99 %.0f, max %.0f over %d samples; final %d\n",
		r.Lag.Bound, r.Lag.P50, r.Lag.P99, r.Lag.Max, r.Lag.Samples, r.Lag.FinalLag)
	if f := r.Failover; f != nil {
		fmt.Fprintf(&sb, "\nsame hard fault, two heal paths:\n")
		fmt.Fprintf(&sb, "  online mitigation:    healed=%v in %.2f ms\n", f.MitigationHealed, f.MitigationHealMS)
		fmt.Fprintf(&sb, "  replica promotion:    healed=%v in %.2f ms (%d promotions, mitigation chaos-failed)\n",
			f.FailoverHealed, f.FailoverHealMS, f.Promotions)
		if f.OriginalValueServed {
			fmt.Fprintf(&sb, "  promoted standby served the pre-fault value (corruption never shipped)\n")
		}
	}
	return sb.String()
}
