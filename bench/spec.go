package main

import "slices"

// The benchmark's definition: which workloads run, how much work each does
// per second of -seconds, and every metric with its unit, direction, bound
// and the layer it belongs to. BENCHMARK.json at the repo root repeats the
// driver-facing part of this (TestBenchmarkJSON keeps the two in step).

// workloadSpec sizes one workload. All op counts are fixed multiples of
// -seconds — a run does the same work on every commit, so counts, retained
// memory and drift are comparable between commits; the rates are sized on
// the 2-core reference box so that a phase lasts about -seconds there.
type workloadSpec struct {
	name string
	why  string
	// idles is the layer this workload leaves with nothing to do: the
	// place where a change to that layer must show no effect.
	idles    string
	shards   int
	clients  int
	keys     int
	mix      mix
	replicas bool
	http     bool
	// opsPerSecond × -seconds is the measured phase's total op count.
	opsPerSecond int
	// tracedOpsPerSecond × -seconds is the traced rig phase's op count.
	tracedOpsPerSecond int
	// setups is how many times set-up is repeated; setup_s is the median.
	setups int
	// liveBand bounds the live key count at the end of a phase, as a share
	// of the preloaded count: the stationarity the generator promises.
	liveBand [2]float64
}

var workloads = []workloadSpec{
	{
		name:   "get-deep",
		why:    "100% uniform gets over 64-node chains: interpreter, pmem.Load and the read-trace ring do all the work, the persist path none",
		idles:  "pmem persist path, checkpoint, provenance, repl",
		shards: 2, clients: 2, keys: 8192, mix: mix{getPct: 100},
		opsPerSecond: 70_000, tracedOpsPerSecond: 12_000, setups: 3, liveBand: [2]float64{1, 1},
	},
	{
		name:   "put-churn",
		why:    "80% upserts, 20% deletes over 128 keys: store/persist/alloc/free, seals, checkpoint, trace, provenance and obs dominate; log and trace growth shows in live_heap_mb",
		idles:  "vm chain walking (chains of about 1)",
		shards: 2, clients: 2, keys: 128, mix: mix{delPct: 20},
		opsPerSecond: 120_000, tracedOpsPerSecond: 20_000, setups: 15, liveBand: [2]float64{0.6, 0.95},
	},
	{
		name:   "mixed-repl",
		why:    "50/50 gets and upserts with standby replicas: the only workload where repl record/encode/ship runs, under the shard lock beside reads",
		idles:  "nothing below http; the only workload that runs repl",
		shards: 2, clients: 2, keys: 2048, mix: mix{getPct: 50}, replicas: true,
		opsPerSecond: 110_000, tracedOpsPerSecond: 16_000, setups: 7, liveBand: [2]float64{1, 1},
	},
	{
		name:   "http-mixed",
		why:    "the same 50/50 mix through an arthas-serve child over 2 keep-alive connections: the request path users hit, dominated by HTTP parse/mux/format",
		idles:  "repl (server runs without replicas)",
		shards: 2, clients: 2, keys: 2048, mix: mix{getPct: 50}, http: true,
		opsPerSecond: 16_000, tracedOpsPerSecond: 16_000, setups: 5, liveBand: [2]float64{1, 1},
	},
	{
		name:  "heal",
		why:   "injected hard faults healed online while a sibling shard keeps serving: detector, reactor, trace index, checkpoint revert and pool crash recovery do the work (paper Fig. 8)",
		idles: "steady-state layers (a heal is about 40 ms against 5 us ops)",
		// 70 % gets: the median request is then a get. At 50 % it sits between
		// the get and the put mode and moved 2.9 % from run to run, not 1.2 %.
		shards: 2, clients: 2, keys: 1024, mix: mix{getPct: 70},
		opsPerSecond:       healRoundsPerSecond * healRoundRequests, // client 0's requests
		tracedOpsPerSecond: 6_000, setups: 1, liveBand: [2]float64{0.95, 1},
	},
	{
		name:   "overhead-ycsb",
		why:    "single-threaded zipfian 50/50 YCSB on a default arthas.Instance against bare vm+pmem on the identical stream: the paper's section 6.7 overhead experiment",
		idles:  "fleet, obs, provenance, repl, http",
		shards: 1, clients: 1, keys: 1024, mix: mix{getPct: 50, zipfTheta: 0.99},
		opsPerSecond: 150_000, tracedOpsPerSecond: 16_000, setups: 15, liveBand: [2]float64{1, 1},
	},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// heal sizing (see heal.go). Rounds scale with -seconds; what a round does
// is fixed, so a heal costs the same whatever the run length.
const (
	healRoundsPerSecond  = 5.0    // fault rounds of the heal workload
	drillRoundsPerSecond = 0.8    // fault rounds of the drill in every traced run
	healHistory          = 20_000 // mixed ops that age a fleet before its fault
	healRePuts           = 3      // puts of the key about to be faulted
	// A round is 50 requests of client 0: mixed ops on the aged shard, the
	// re-puts, the faulted get, and a few mixed ops on the healed shard. So
	// 2 % of the tenant's requests meet a hard fault: its p99 is the median
	// heal, and the driver's bound on p99_us gates heal time. The ordinary
	// ops come before the fault because the first ops after a mitigation run
	// beside the collection of the reactor's garbage, and their median moved
	// 5 % from run to run.
	healOpsBeforeFault = 40
	healOpsAfterHeal   = 6
	healRoundRequests  = healOpsBeforeFault + healRePuts + 1 + healOpsAfterHeal
)

// probesPerSecond × -seconds is how many operations each isolated probe
// averages over.
const probesPerSecond = 20_000

// ladder sizing.
const (
	// A rung's cost is the median over chunks of the chunk mean; a layer's is
	// the difference of two rungs, so 20 chunks, not 10, to keep a 100 ns
	// delta of two 2 us rungs from reading negative.
	ladderChunksPerSecond = 2
	ladderChunkOps        = 4_000 // ops per rung per chunk, in-process rungs
	ladderChunkOpsHTTP    = 400   // the http rung consumes a shorter prefix of the same stream
	overheadChunkOps      = 20_000
)

// metricSpec describes one metric the benchmark emits.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the baseline median by which the metric may
	// worsen before -compare calls it a regression; 0 means informational.
	bound float64
	// layer is "e2e" for what a user of the system sees, else the module.
	layer string
	// moves says which end-to-end metric, on which workload, a change in
	// this metric should show up in.
	moves string
	// driver marks the metrics BENCHMARK.json lists: the end-to-end ones
	// that exist on every workload, and every per-layer one.
	driver bool
	// only restricts an end-to-end metric to the workloads it applies to.
	only []string
	// exact marks counts that repeat exactly for equal seeds.
	exact bool
}

// endToEnd are measured with tracing off. The first five exist on every
// workload and are what BENCHMARK.json declares; the rest apply to some
// workloads only and are gated by -compare on the ledger.
var endToEnd = []metricSpec{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25, layer: "e2e", driver: true},
	{name: "ops_per_s", unit: "1/s", better: "higher", bound: 0.10, layer: "e2e", driver: true},
	{name: "p50_us", unit: "us", better: "lower", bound: 0.10, layer: "e2e", driver: true},
	{name: "p99_us", unit: "us", better: "lower", bound: 0.20, layer: "e2e", driver: true},
	{name: "live_heap_mb", unit: "MB", better: "lower", bound: 0.05, layer: "e2e", driver: true},
	{name: "get_p50_us", unit: "us", better: "lower", bound: 0.10, layer: "e2e",
		only: []string{"get-deep", "mixed-repl", "http-mixed", "heal", "overhead-ycsb"}},
	{name: "get_p99_us", unit: "us", better: "lower", bound: 0.20, layer: "e2e",
		only: []string{"get-deep", "mixed-repl", "http-mixed", "heal", "overhead-ycsb"}},
	{name: "put_p50_us", unit: "us", better: "lower", bound: 0.10, layer: "e2e",
		only: []string{"put-churn", "mixed-repl", "http-mixed", "heal", "overhead-ycsb"}},
	{name: "put_p99_us", unit: "us", better: "lower", bound: 0.20, layer: "e2e",
		only: []string{"put-churn", "mixed-repl", "http-mixed", "heal", "overhead-ycsb"}},
	{name: "failed_share", unit: "ratio", better: "lower", bound: 0, layer: "e2e"},
	{name: "heal_mean_ms", unit: "ms", better: "lower", bound: 0.10, layer: "e2e", only: []string{"heal"}},
	{name: "rel_throughput", unit: "ratio", better: "higher", bound: 0.03, layer: "e2e", only: []string{"overhead-ycsb"}},
	{name: "ops_per_s_wall", unit: "1/s", better: "higher", layer: "e2e",
		only: []string{"get-deep", "put-churn", "mixed-repl", "http-mixed", "overhead-ycsb"}},
	{name: "drift_pct", unit: "%", better: "lower", layer: "e2e",
		only: []string{"get-deep", "put-churn", "mixed-repl", "http-mixed", "overhead-ycsb"}},
	// The bench process's collector during the measured phase.
	{name: "gc_cycles", unit: "count", better: "lower", layer: "e2e",
		only: []string{"get-deep", "put-churn", "mixed-repl", "http-mixed"}},
	{name: "gc_pause_ms", unit: "ms", better: "lower", layer: "e2e",
		only: []string{"get-deep", "put-churn", "mixed-repl", "http-mixed"}},
	{name: "lost_keys", unit: "count", better: "lower", layer: "e2e", only: []string{"heal"}},
	{name: "sibling_p99_us", unit: "us", better: "lower", layer: "e2e", only: []string{"heal"}},
}

func (m *metricSpec) appliesTo(workload string) bool {
	return len(m.only) == 0 || slices.Contains(m.only, workload)
}

// perLayer are measured by the traced run (-trace 1) of every workload.
var perLayer = []metricSpec{
	// http (cmd/arthas-serve)
	{name: "http.ns_per_req", unit: "ns", better: "lower", layer: "http", moves: "ops_per_s, p50_us on http-mixed; nothing elsewhere"},
	{name: "http.non2xx", unit: "count", better: "lower", layer: "http", moves: "failed on http-mixed"},
	// fleet
	{name: "fleet.ns_per_op", unit: "ns", better: "lower", layer: "fleet", moves: "ops_per_s on get-deep, put-churn, mixed-repl"},
	{name: "fleet.scale_2shard", unit: "ratio", better: "higher", layer: "fleet", moves: "ops_per_s on get-deep, put-churn, mixed-repl"},
	{name: "fleet.shard_skew", unit: "ratio", better: "lower", layer: "fleet", moves: "ops_per_s on the 2-shard workloads"},
	{name: "fleet.unavailable", unit: "count", better: "lower", layer: "fleet", moves: "failed everywhere", exact: true},
	{name: "fleet.traps", unit: "count", better: "lower", layer: "fleet", moves: "failed everywhere", exact: true},
	{name: "fleet.sibling_p99_us_in_heal", unit: "us", better: "lower", layer: "fleet", moves: "get_p99_us on heal"},
	// arthas (the facade: one call through the default instance)
	{name: "arthas.get_ns", unit: "ns", better: "lower", layer: "arthas", moves: "p50_us everywhere"},
	{name: "arthas.put_ns", unit: "ns", better: "lower", layer: "arthas", moves: "p50_us everywhere"},
	{name: "arthas.del_ns", unit: "ns", better: "lower", layer: "arthas", moves: "p50_us on put-churn"},
	{name: "arthas.allocs_per_get", unit: "count", better: "lower", layer: "arthas", moves: "p99_us everywhere"},
	{name: "arthas.allocs_per_put", unit: "count", better: "lower", layer: "arthas", moves: "p99_us, live_heap_mb on put-churn"},
	{name: "arthas.bytes_per_put", unit: "B", better: "lower", layer: "arthas", moves: "p99_us, live_heap_mb on put-churn"},
	// vm
	{name: "vm.steps_per_get", unit: "count", better: "lower", layer: "vm", moves: "ops_per_s, p50_us on get-deep", exact: true},
	{name: "vm.steps_per_put", unit: "count", better: "lower", layer: "vm", moves: "little on put-churn", exact: true},
	{name: "vm.step_ns", unit: "ns", better: "lower", layer: "vm", moves: "ops_per_s, p50_us on get-deep"},
	{name: "vm.call_ns", unit: "ns", better: "lower", layer: "vm", moves: "p50_us on put-churn"},
	{name: "vm.allocs_per_call", unit: "count", better: "lower", layer: "vm", moves: "p99_us everywhere"},
	// pmem
	{name: "pmem.loads_per_get", unit: "count", better: "lower", layer: "pmem", moves: "p50_us on get-deep", exact: true},
	{name: "pmem.stores_per_put", unit: "count", better: "lower", layer: "pmem", moves: "put_p50_us on put-churn", exact: true},
	{name: "pmem.persists_per_put", unit: "count", better: "lower", layer: "pmem", moves: "put_p50_us on put-churn", exact: true},
	{name: "pmem.persists_per_op", unit: "count", better: "lower", layer: "pmem", moves: "must be 0 on get-deep", exact: true},
	{name: "pmem.words_per_put", unit: "count", better: "lower", layer: "pmem", moves: "put_p50_us on put-churn", exact: true},
	{name: "pmem.write_amp", unit: "ratio", better: "lower", layer: "pmem", moves: "put_p50_us on put-churn", exact: true},
	{name: "pmem.load_ns", unit: "ns", better: "lower", layer: "pmem", moves: "p50_us on get-deep"},
	{name: "pmem.store_ns", unit: "ns", better: "lower", layer: "pmem", moves: "put_p50_us on put-churn"},
	{name: "pmem.persist1_ns", unit: "ns", better: "lower", layer: "pmem", moves: "put_p50_us on put-churn"},
	{name: "pmem.persist4_ns", unit: "ns", better: "lower", layer: "pmem", moves: "put_p50_us on put-churn"},
	{name: "pmem.alloc_free_ns", unit: "ns", better: "lower", layer: "pmem", moves: "put_p50_us on put-churn"},
	{name: "pmem.seal_ns_per_put", unit: "ns", better: "lower", layer: "pmem", moves: "put_p50_us on put-churn"},
	{name: "pmem.crash_ms", unit: "ms", better: "lower", layer: "pmem", moves: "heal_mean_ms on heal"},
	{name: "pmem.fork_us", unit: "us", better: "lower", layer: "pmem", moves: "heal_mean_ms on heal (speculative workers)"},
	// checkpoint
	{name: "checkpoint.hook_ns_per_persist", unit: "ns", better: "lower", layer: "checkpoint", moves: "put_p50_us on put-churn; nothing on get-deep"},
	{name: "checkpoint.ns_per_put", unit: "ns", better: "lower", layer: "checkpoint", moves: "put_p50_us on put-churn, rel_throughput on overhead-ycsb"},
	{name: "checkpoint.versions_per_put", unit: "count", better: "lower", layer: "checkpoint", moves: "live_heap_mb on put-churn", exact: true},
	{name: "checkpoint.entries_end", unit: "count", better: "lower", layer: "checkpoint", moves: "live_heap_mb on put-churn", exact: true},
	{name: "checkpoint.revert_us", unit: "us", better: "lower", layer: "checkpoint", moves: "heal_mean_ms on heal"},
	// trace
	{name: "trace.record_ns", unit: "ns", better: "lower", layer: "trace", moves: "rel_throughput on overhead-ycsb"},
	{name: "trace.ns_per_put", unit: "ns", better: "lower", layer: "trace", moves: "rel_throughput on overhead-ycsb"},
	{name: "trace.ns_per_get", unit: "ns", better: "lower", layer: "trace", moves: "rel_throughput on overhead-ycsb, p50_us on get-deep"},
	{name: "trace.events_per_put", unit: "count", better: "lower", layer: "trace", moves: "live_heap_mb on put-churn", exact: true},
	{name: "trace.reads_per_get", unit: "count", better: "lower", layer: "trace", moves: "p50_us on get-deep", exact: true},
	{name: "trace.len_end", unit: "count", better: "lower", layer: "trace", moves: "live_heap_mb on put-churn", exact: true},
	{name: "trace.index_ms", unit: "ms", better: "lower", layer: "trace", moves: "heal_mean_ms on heal"},
	// provenance
	{name: "provenance.ns_per_put", unit: "ns", better: "lower", layer: "provenance", moves: "put_p50_us on put-churn, mixed-repl, http-mixed"},
	{name: "provenance.notewrite_ns", unit: "ns", better: "lower", layer: "provenance", moves: "put_p50_us on put-churn"},
	{name: "provenance.redundant_ratio", unit: "ratio", better: "lower", layer: "provenance", moves: "put_p50_us on put-churn", exact: true},
	// obs
	{name: "obs.ns_per_put", unit: "ns", better: "lower", layer: "obs", moves: "every fleet workload; nothing on overhead-ycsb"},
	{name: "obs.ns_per_get", unit: "ns", better: "lower", layer: "obs", moves: "every fleet workload; nothing on overhead-ycsb"},
	// repl
	{name: "repl.ns_per_put", unit: "ns", better: "lower", layer: "repl", moves: "ops_per_s, put_p99_us on mixed-repl; nothing elsewhere"},
	{name: "repl.ship_us", unit: "us", better: "lower", layer: "repl", moves: "put_p99_us on mixed-repl"},
	{name: "repl.records_per_put", unit: "count", better: "lower", layer: "repl", moves: "ops_per_s on mixed-repl", exact: true},
	{name: "repl.bytes_per_put", unit: "B", better: "lower", layer: "repl", moves: "ops_per_s on mixed-repl", exact: true},
	{name: "repl.ships", unit: "count", better: "lower", layer: "repl", moves: "put_p99_us on mixed-repl", exact: true},
	{name: "repl.lag_max", unit: "count", better: "lower", layer: "repl", moves: "put_p99_us on mixed-repl", exact: true},
	{name: "repl.resyncs", unit: "count", better: "lower", layer: "repl", moves: "put_p99_us on mixed-repl", exact: true},
	// reactor / detector (a drill of injected faults in every traced run)
	{name: "reactor.attempts_per_heal", unit: "count", better: "lower", layer: "reactor", moves: "heal_mean_ms on heal", exact: true},
	{name: "reactor.reverted_per_heal", unit: "count", better: "lower", layer: "reactor", moves: "heal.lost_keys", exact: true},
	{name: "reactor.duration_ms_mean", unit: "ms", better: "lower", layer: "reactor", moves: "heal_mean_ms on heal"},
	{name: "reactor.ms_per_attempt", unit: "ms", better: "lower", layer: "reactor", moves: "heal_mean_ms on heal"},
	{name: "detector.strikes_per_fault", unit: "count", better: "lower", layer: "detector", moves: "heal_mean_ms on heal", exact: true},
	{name: "heal.mean_ms", unit: "ms", better: "lower", layer: "reactor", moves: "ops_per_s on heal"},
	{name: "heal.p50_ms", unit: "ms", better: "lower", layer: "reactor", moves: "ops_per_s on heal"},
	{name: "heal.max_ms", unit: "ms", better: "lower", layer: "reactor", moves: "p99_us on heal"},
	{name: "heal.lost_keys", unit: "count", better: "lower", layer: "reactor", moves: "the paper's data-loss figure; reported, not failed", exact: true},
	// setup (pml, ir, analysis)
	{name: "setup.compile_ms", unit: "ms", better: "lower", layer: "setup", moves: "setup_s everywhere"},
	{name: "setup.analyze_ms", unit: "ms", better: "lower", layer: "setup", moves: "setup_s everywhere"},
	{name: "setup.new_instance_ms", unit: "ms", better: "lower", layer: "setup", moves: "setup_s everywhere"},
	{name: "setup.preload_ms", unit: "ms", better: "lower", layer: "setup", moves: "setup_s everywhere"},
	{name: "setup.serve_ready_ms", unit: "ms", better: "lower", layer: "setup", moves: "setup_s on http-mixed"},
	{name: "setup.build_s", unit: "s", better: "lower", layer: "setup", moves: "not in setup_s; the first run in a checkout"},
	// spans of the traced rig phase on the workload's own stream
	{name: "span.req_ns", unit: "ns", better: "lower", layer: "bench", moves: "p50_us on this workload"},
	{name: "span.call_self_pct", unit: "%", better: "lower", layer: "vm+pmem", moves: "share of a request inside Instance.Call but outside every hook and sink"},
	{name: "span.hooks_pct", unit: "%", better: "lower", layer: "checkpoint+provenance", moves: "share of a request in the persist hooks"},
	{name: "span.trace_record_pct", unit: "%", better: "lower", layer: "trace", moves: "share of a request in trace.Record"},
	{name: "span.notewrite_pct", unit: "%", better: "lower", layer: "provenance", moves: "share of a request in NoteWrite"},
	{name: "span.repl_record_pct", unit: "%", better: "lower", layer: "repl", moves: "share of a request in the shipper's hook wrapper"},
	{name: "span.repl_ship_pct", unit: "%", better: "lower", layer: "repl", moves: "share of a request in Session.Ship"},
	{name: "span.vm_est_pct", unit: "%", better: "lower", layer: "vm", moves: "steps x vm.step_ns as a share of a request"},
	{name: "span.pmem_est_pct", unit: "%", better: "lower", layer: "pmem", moves: "loads, stores, persists x probe costs as a share of a request"},
	{name: "span.coverage_pct", unit: "%", better: "higher", layer: "bench", moves: "child spans plus call self time over req; at least 90"},
	// the benchmark itself
	{name: "bench.trace_overhead_pct", unit: "%", better: "lower", layer: "bench", moves: "explains traced vs untraced ops_per_s"},
	{name: "bench.timer_ns", unit: "ns", better: "lower", layer: "bench", moves: "floor under every latency"},
	{name: "bench.gc_cycles", unit: "count", better: "lower", layer: "bench", moves: "explains p99_us"},
	{name: "bench.gc_pause_ms", unit: "ms", better: "lower", layer: "bench", moves: "explains p99_us"},
}

// ladderMetric names the absolute cost of one rung, e.g. ladder.r3_put_ns.
func ladderMetric(rung int, kind opKind) string {
	return "ladder.r" + string(rune('0'+rung)) + "_" + kind.String() + "_ns"
}

func init() {
	for i := range rungNames {
		for _, k := range []opKind{opGet, opPut} {
			perLayer = append(perLayer, metricSpec{
				name: ladderMetric(i, k), unit: "ns", better: "lower", layer: "ladder",
				moves: rungNames[i] + ": every layer up to this rung; deltas between rungs are the *.ns_per_* metrics",
			})
		}
	}
	for i := range perLayer {
		perLayer[i].driver = true
	}
}
