package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"arthas/internal/fleet"
)

// result is what one run measured.
type result struct {
	metrics map[string]float64
	// samples is the sample count behind a timing metric.
	samples   map[string]int
	attempted int64
	failed    int64
	// violations are the correctness checks that did not hold; any makes
	// the run incorrect and the command exit non-zero.
	violations []string
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, samples: map[string]int{}}
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

func (r *result) setN(name string, v float64, n int) {
	r.metrics[name] = v
	r.samples[name] = n
}

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.violations) == 0 }

// deployment is a workload's system under test, built and preloaded.
type deployment struct {
	spec    *workloadSpec
	targets []target  // one per client
	streams []*stream // one per client, holding its model
	fleet   *fleet.Fleet
	srv     *serveProc
	conns   []*httpConn
}

func (d *deployment) stop() error {
	for _, c := range d.conns {
		c.close()
	}
	if d.srv != nil {
		return d.srv.stop()
	}
	return nil
}

// deploy builds the workload's system and preloads every key. It is the
// whole of what setup_s times: compile, analysis, pools, fleet, server
// ready, preload — not `go build`.
func deploy(spec *workloadSpec, seed uint64, serveBin string, owner func(int64) int) (*deployment, error) {
	d := &deployment{spec: spec}
	if owner == nil {
		owner = func(k int64) int { return int(k) % spec.clients }
	}
	for c, keys := range partition(keyRange(spec.keys), spec.clients, owner) {
		d.streams = append(d.streams, newStream(spec.name, seed, c, keys, spec.mix))
	}
	if spec.http {
		srv, err := startServe(serveBin, spec.shards, spec.replicas)
		if err != nil {
			return nil, err
		}
		d.srv = srv
		for c := 0; c < spec.clients; c++ {
			conn, err := srv.dial()
			if err != nil {
				d.stop() //nolint:errcheck // already failing
				return nil, err
			}
			d.conns = append(d.conns, conn)
			d.targets = append(d.targets, conn)
		}
	} else {
		f, err := newFleet(spec.shards, spec.replicas)
		if err != nil {
			return nil, err
		}
		d.fleet = f
		for c := 0; c < spec.clients; c++ {
			d.targets = append(d.targets, fleetTarget{f})
		}
	}
	// Preload one client after the other: the pool layout, and with it each
	// key's chain position, is then the same on every run.
	for c, s := range d.streams {
		if err := preload(d.targets[c], s); err != nil {
			d.stop() //nolint:errcheck // already failing
			return nil, err
		}
	}
	return d, nil
}

func preload(t target, s *stream) error {
	for _, o := range s.preload() {
		v, err := t.do(o)
		if err != nil {
			return fmt.Errorf("preload %s %d: %w", o.kind, o.key, err)
		}
		s.check(o, v)
	}
	return nil
}

// repeatSetup runs setup n times, stopping all but the last deployment,
// and returns the last with every set-up's duration and the live heap
// measured just before the kept one was built.
func repeatSetup[D interface{ stop() error }](n int, setup func() (D, error)) (D, []float64, uint64, error) {
	var kept D
	var times []float64
	var heapBefore uint64
	for i := 0; i < n; i++ {
		heapBefore = liveHeap()
		t0 := time.Now()
		d, err := setup()
		if err != nil {
			return kept, nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			if err := d.stop(); err != nil {
				return kept, nil, 0, err
			}
		}
		kept = d
	}
	return kept, times, heapBefore, nil
}

// liveHeap forces a collection and returns the bytes still allocated.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// clientRun is one client's record of a measured phase.
type clientRun struct {
	lat    []int64 // ns per request, in issue order
	kind   []opKind
	failed int
	first  string // first failure, for the report
	// marks[i] is the time since the phase began when the client finished
	// segment i of phaseSegments equal shares of its requests.
	marks []time.Duration
}

func newClientRuns(clients, opsPerClient int) []clientRun {
	runs := make([]clientRun, clients)
	for i := range runs {
		runs[i].lat = make([]int64, 0, opsPerClient)
		runs[i].kind = make([]opKind, 0, opsPerClient)
	}
	return runs
}

// issue performs one request, times it, checks it against the model and
// records it.
func (c *clientRun) issue(t target, s *stream, o op) {
	t0 := time.Now()
	v, err := t.do(o)
	d := time.Since(t0)
	c.lat = append(c.lat, int64(d))
	c.kind = append(c.kind, o.kind)
	if err != nil {
		c.fail("%s %d: %v", o.kind, o.key, err)
		s.check(o, v) // keep the model moving
		return
	}
	if !s.check(o, v) {
		c.fail("%s %d returned %d, the model disagrees", o.kind, o.key, v)
	}
}

func (c *clientRun) fail(format string, args ...any) {
	c.failed++
	if c.first == "" {
		c.first = fmt.Sprintf(format, args...)
	}
}

// phaseSegments is how many equal shares a client's phase is timed in.
const phaseSegments = 20

// runClients drives every client's stream closed-loop for opsPerClient
// requests each and returns the wall time of the phase.
func runClients(d *deployment, runs []clientRun, opsPerClient int) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			run, t, s := &runs[c], d.targets[c], d.streams[c]
			for seg := 0; seg < phaseSegments; seg++ {
				for i := opsPerClient * seg / phaseSegments; i < opsPerClient*(seg+1)/phaseSegments; i++ {
					run.issue(t, s, s.next())
				}
				run.marks = append(run.marks, time.Since(start))
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// tally counts the clients' requests and failures into the result.
func tally(res *result, what string, runs ...clientRun) {
	for i := range runs {
		res.attempted += int64(len(runs[i].lat))
		res.failed += int64(runs[i].failed)
		if runs[i].first != "" {
			res.violate("%s client %d: %s", what, i, runs[i].first)
		}
	}
}

// latencyMetrics fills p50/p99 overall and per kind from the client runs.
func latencyMetrics(res *result, runs ...clientRun) {
	var all, gets, puts []int64
	for i := range runs {
		for j, l := range runs[i].lat {
			all = append(all, l)
			switch runs[i].kind[j] {
			case opGet:
				gets = append(gets, l)
			case opPut:
				puts = append(puts, l)
			}
		}
	}
	for _, set := range []struct {
		prefix string
		v      []int64
	}{{"", all}, {"get_", gets}, {"put_", puts}} {
		if len(set.v) == 0 {
			continue // the metric does not apply to this workload
		}
		slices.Sort(set.v)
		res.setN(set.prefix+"p50_us", us(percentile(set.v, 0.50)), len(set.v))
		res.setN(set.prefix+"p99_us", us(percentile(set.v, 0.99)), len(set.v))
	}
}

// segmentRates returns the client's throughput in each segment of its phase.
func segmentRates(run *clientRun) []float64 {
	var rates []float64
	n, prev := len(run.lat), time.Duration(0)
	for seg, mark := range run.marks {
		if ops := n*(seg+1)/phaseSegments - n*seg/phaseSegments; ops > 0 {
			rates = append(rates, float64(ops)/(mark-prev).Seconds())
		}
		prev = mark
	}
	return rates
}

// sustainedRate is the phase's ops_per_s: each client's median segment rate,
// summed over the clients. A garbage collection or a burst of interference
// from outside the process lands in a few segments; the median is the rate
// the system sustains between them, and repeats twice as closely from run to
// run as requests over wall time (which is reported beside it).
func sustainedRate(runs []clientRun) float64 {
	var sum float64
	for i := range runs {
		sum += median(segmentRates(&runs[i]))
	}
	return sum
}

// driftPct compares the throughput of the two halves of a phase.
func driftPct(runs []clientRun) float64 {
	var first, second float64
	for i := range runs {
		n := float64(len(runs[i].lat)) / 2
		half, end := runs[i].marks[phaseSegments/2-1], runs[i].marks[phaseSegments-1]
		first += n / half.Seconds()
		second += n / (end - half).Seconds()
	}
	return 100 * (second - first) / first
}

// sweep reads every key a stream owns and checks it against the model.
func sweep(res *result, what string, t target, s *stream) {
	for i, k := range s.keys {
		o := op{kind: opGet, key: k, idx: i}
		v, err := t.do(o)
		res.attempted++
		if err != nil || !s.check(o, v) {
			res.failed++
			res.violate("%s: get %d = %d, %v; model has %d", what, k, v, err, s.model[i])
			return
		}
	}
}

// verify is the correctness oracle run after every measured phase: a final
// sweep of every key, the checksum-validating state digest, and — on an
// in-process fleet — a restart of every shard (Pool.Crash discards whatever
// was not persisted, recover_ runs) followed by a second sweep, so every
// acknowledged write is proven durable.
func verify(res *result, d *deployment, faultFree bool) {
	for c, s := range d.streams {
		sweep(res, "final sweep", d.targets[c], s)
		lo, hi := d.spec.liveBand[0], d.spec.liveBand[1]
		if share := float64(s.live()) / float64(len(s.keys)); share < lo || share > hi {
			res.violate("client %d: %d of %d keys live, outside the stationary band [%g, %g]",
				c, s.live(), len(s.keys), lo, hi)
		}
	}
	if d.fleet == nil {
		return
	}
	if _, err := d.fleet.StateDigest(); err != nil {
		res.violate("state digest: %v", err)
	}
	for shard := 0; shard < d.fleet.Shards(); shard++ {
		if err := d.fleet.Restart(shard); err != nil {
			res.violate("restart shard %d: %v", shard, err)
			return
		}
	}
	for c, s := range d.streams {
		sweep(res, "sweep after restart", d.targets[c], s)
	}
	for _, st := range d.fleet.Stats() {
		if faultFree && (st.Traps != 0 || st.Unavailable != 0) {
			res.violate("shard %d: %d traps, %d refusals on a fault-free workload", st.Shard, st.Traps, st.Unavailable)
		}
	}
}

// runSteady measures one of the closed-loop steady-state workloads
// (get-deep, put-churn, mixed-repl, http-mixed) with tracing off.
func runSteady(spec *workloadSpec, seed uint64, seconds float64, serveBin string) (*result, error) {
	res := newResult()
	opsPerClient := int(float64(spec.opsPerSecond)*seconds) / spec.clients
	runs := newClientRuns(spec.clients, opsPerClient)

	d, setups, heapBefore, err := repeatSetup(spec.setups, func() (*deployment, error) {
		return deploy(spec, seed, serveBin, nil)
	})
	if err != nil {
		return nil, err
	}
	defer d.stop() //nolint:errcheck // the explicit stop below reports
	res.setN("setup_s", median(setups), len(setups))

	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	wall := runClients(d, runs, opsPerClient)
	runtime.ReadMemStats(&gc1)

	res.set("ops_per_s", sustainedRate(runs))
	res.set("ops_per_s_wall", float64(opsPerClient*spec.clients)/wall.Seconds())
	res.set("drift_pct", driftPct(runs))
	tally(res, spec.name, runs...)
	latencyMetrics(res, runs...)
	if d.srv != nil {
		heap, err := d.srv.serverHeapBytes()
		if err != nil {
			return nil, err
		}
		res.set("live_heap_mb", float64(heap)/1e6)
	} else {
		// Measured with the fleet still reachable: without the KeepAlive
		// the collector frees it first and the number is the bench's own.
		heap := liveHeap()
		runtime.KeepAlive(d)
		res.set("live_heap_mb", (float64(heap)-float64(heapBefore))/1e6)
	}
	res.set("gc_cycles", float64(gc1.NumGC-gc0.NumGC))
	res.set("gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)

	verify(res, d, true)
	res.set("failed_share", float64(res.failed)/float64(res.attempted))
	return res, d.stop()
}

// overheadPair is the overhead-ycsb deployment: the default instance and
// the bare program, each with its own copy of the identical stream.
type overheadPair struct {
	inst, bare   target
	sInst, sBare *stream
}

func (*overheadPair) stop() error { return nil }

// runOverhead measures overhead-ycsb: the paper's §6.7 experiment on the
// serving program. The two variants run the identical stream in interleaved
// chunks, so slow drift of the box cancels out of the ratio.
func runOverhead(spec *workloadSpec, seed uint64, seconds float64) (*result, error) {
	res := newResult()
	ops := int(float64(spec.opsPerSecond) * seconds)
	chunk := max(1, min(overheadChunkOps, ops/4))
	runs := newClientRuns(2, ops) // 0: instance, 1: bare

	p, setups, heapBefore, err := repeatSetup(spec.setups, func() (*overheadPair, error) {
		inst, err := newRung(3, "")
		if err != nil {
			return nil, err
		}
		bare, err := newRung(0, "")
		if err != nil {
			return nil, err
		}
		keys := keyRange(spec.keys)
		p := &overheadPair{
			inst: inst.t, bare: bare.t,
			sInst: newStream(spec.name, seed, 0, keys, spec.mix),
			sBare: newStream(spec.name, seed, 0, keys, spec.mix),
		}
		if err := preload(p.inst, p.sInst); err != nil {
			return nil, err
		}
		return p, preload(p.bare, p.sBare)
	})
	if err != nil {
		return nil, err
	}
	res.setN("setup_s", median(setups), len(setups))

	// chunkSecs[v] holds each chunk's duration for variant v (0 instance,
	// 1 bare).
	var chunkSecs [2][]float64
	var chunkOps []float64
	for done := 0; done < ops; done += chunk {
		n := min(chunk, ops-done)
		chunkOps = append(chunkOps, float64(n))
		for v, side := range []struct {
			t target
			s *stream
		}{{p.inst, p.sInst}, {p.bare, p.sBare}} {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				runs[v].issue(side.t, side.s, side.s.next())
			}
			chunkSecs[v] = append(chunkSecs[v], time.Since(t0).Seconds())
		}
	}
	// Per chunk: the instance's rate, and its throughput relative to bare.
	// Both metrics are medians over the chunks, for sustainedRate's reason.
	rates := make([]float64, len(chunkOps))
	ratios := make([]float64, len(chunkOps))
	for i := range rates {
		rates[i] = chunkOps[i] / chunkSecs[0][i]
		ratios[i] = chunkSecs[1][i] / chunkSecs[0][i]
	}
	rate := func(from, to int) float64 {
		var n, secs float64
		for i := from; i < to; i++ {
			n, secs = n+chunkOps[i], secs+chunkSecs[0][i]
		}
		return n / secs
	}
	chunks := len(chunkOps)
	res.setN("ops_per_s", median(rates), chunks)
	res.set("ops_per_s_wall", rate(0, chunks))
	res.setN("rel_throughput", median(ratios), chunks)
	if chunks >= 2 {
		first, second := rate(0, chunks/2), rate(chunks/2, chunks)
		res.set("drift_pct", 100*(second-first)/first)
	}
	heap := liveHeap()
	runtime.KeepAlive(p)
	res.set("live_heap_mb", (float64(heap)-float64(heapBefore))/1e6)

	// Latencies are the instance's; the bare variant must agree with its
	// own model all the same.
	tally(res, "instance, bare:", runs...)
	latencyMetrics(res, runs[0])
	sweep(res, "final sweep (instance)", p.inst, p.sInst)
	sweep(res, "final sweep (bare)", p.bare, p.sBare)
	res.set("failed_share", float64(res.failed)/float64(res.attempted))
	return res, nil
}

// runWorkload measures one workload end to end, tracing off.
func runWorkload(spec *workloadSpec, seed uint64, seconds float64, serveBin string) (*result, error) {
	switch spec.name {
	case "heal":
		return runHeal(spec, seed, seconds)
	case "overhead-ycsb":
		return runOverhead(spec, seed, seconds)
	default:
		return runSteady(spec, seed, seconds, serveBin)
	}
}
