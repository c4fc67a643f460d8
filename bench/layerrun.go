package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// The traced run (-trace 1). It is separate from the end-to-end pass: one
// client, spans on, and every section below measures layers, not users.
// Every workload's traced run has the same five sections, so every
// per-layer metric exists on every workload:
//
//	rig     the workload's own stream through the traced rig: spans at
//	        every layer boundary plus the exact work counts per op
//	probes  one operation of one layer in isolation
//	ladder  the rung ladder on the overhead-ycsb stream
//	scale   1 shard + 1 client against 2 shards + 2 clients
//	drill   a short series of injected faults, healed online
//
// Only the rig section depends on the workload.

const rigChunkOps = 2_000

// runTraced measures every per-layer metric for one workload.
func runTraced(spec *workloadSpec, seed uint64, seconds float64, serveBin, outDir string) (*result, error) {
	res := newResult()
	if err := runProbes(res, max(1_000, int(probesPerSecond*seconds))); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	if err := runRig(res, spec, seed, seconds, outDir); err != nil {
		return nil, fmt.Errorf("rig: %w", err)
	}
	if err := runLadder(res, seed, seconds, serveBin); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	if err := runInstanceProbes(res, seed, max(200, int(probesPerSecond*seconds/10))); err != nil {
		return nil, fmt.Errorf("instance probes: %w", err)
	}
	if err := runScale(res, seed, seconds); err != nil {
		return nil, fmt.Errorf("scale: %w", err)
	}
	if err := runDrill(res, seed, seconds); err != nil {
		return nil, fmt.Errorf("drill: %w", err)
	}
	return res, nil
}

// ratio is a/b, and 0 when the workload has no such op to divide by: the
// counts are then 0 too.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// runRig drives the workload's own stream, single-client, through the
// traced rig. Chunks alternate between spans on and spans off, so the
// overhead of tracing is measured on the same state within the same run.
func runRig(res *result, spec *workloadSpec, seed uint64, seconds float64, outDir string) error {
	tr := newTracer()
	rig, err := newTracedRig(tr, spec.shards, spec.replicas)
	if err != nil {
		return err
	}
	s := newStream(spec.name, seed, 0, keyRange(spec.keys), spec.mix)
	t0 := time.Now()
	if err := preload(rig, s); err != nil {
		return err
	}
	res.set("setup.preload_ms", float64(time.Since(t0))/1e6)
	rig.markBase()

	ops := int(float64(spec.tracedOpsPerSecond) * seconds)
	var byKind [3]layerCounts
	var nKind [3]int64
	var reads [3]int64
	var total layerCounts
	var secs [2]float64 // spans off, spans on
	var done [2]int
	var run clientRun
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	// At least four chunks, so both modes get a share of even a tiny run.
	chunkOps := max(1, min(rigChunkOps, ops/4))
	before, readsBefore := rig.counts(), rig.traceReads()
	for n := 0; n < ops; n += chunkOps {
		on := (n/chunkOps)%2 == 0
		tr.on = on
		chunk := min(chunkOps, ops-n)
		c0 := time.Now()
		for i := 0; i < chunk; i++ {
			o := s.next()
			v, err := rig.do(o)
			after, readsAfter := rig.counts(), rig.traceReads()
			if err != nil || !s.check(o, v) {
				run.fail("%s %d = %d, %v", o.kind, o.key, v, err)
			}
			d := after.minus(before)
			byKind[o.kind].add(d)
			total.add(d)
			reads[o.kind] += readsAfter - readsBefore
			nKind[o.kind]++
			before, readsBefore = after, readsAfter
		}
		mode := 0
		if on {
			mode = 1
		}
		secs[mode] += time.Since(c0).Seconds()
		done[mode] += chunk
	}
	tr.on = false
	runtime.ReadMemStats(&gc1)
	res.attempted += int64(ops)
	res.failed += int64(run.failed)
	if run.first != "" {
		res.violate("rig: %s", run.first)
	}
	if rig.shipErr > 0 {
		res.violate("rig: %d ship errors", rig.shipErr)
	}

	get, put := byKind[opGet], byKind[opPut]
	res.set("vm.steps_per_get", ratio(get.steps, nKind[opGet]))
	res.set("vm.steps_per_put", ratio(put.steps, nKind[opPut]))
	res.set("pmem.loads_per_get", ratio(get.loads, nKind[opGet]))
	res.set("pmem.stores_per_put", ratio(put.stores, nKind[opPut]))
	res.set("pmem.persists_per_put", ratio(put.persists, nKind[opPut]))
	res.set("pmem.words_per_put", ratio(put.words, nKind[opPut]))
	res.set("pmem.persists_per_op", ratio(total.persists, int64(ops)))
	res.set("pmem.write_amp", ratio(total.words, total.stores))
	res.set("trace.events_per_put", ratio(put.traceEvents, nKind[opPut]))
	res.set("trace.reads_per_get", ratio(reads[opGet], nKind[opGet]))

	end := rig.endState()
	res.set("checkpoint.versions_per_put", ratio(end.ckptVersions-rig.base.ckptVersions, nKind[opPut]))
	res.set("checkpoint.entries_end", float64(end.ckptEntries))
	res.set("trace.len_end", float64(end.traceLen))
	res.set("provenance.redundant_ratio", end.redundantRatio)
	res.set("repl.records_per_put", ratio(rig.replRecords-rig.base.replRecords, nKind[opPut]))
	res.set("repl.bytes_per_put", ratio(rig.replBytes-rig.base.replBytes, nKind[opPut]))
	res.set("repl.ships", float64(end.repl.Ships))
	res.set("repl.lag_max", float64(end.repl.Lag))
	res.set("repl.resyncs", float64(end.repl.Resyncs))

	// Spans: where a request's time goes.
	req := tr.perReq(spReq)
	pct := func(ns float64) float64 { return 100 * ns / req }
	res.setN("span.req_ns", req, int(tr.count[spReq]))
	res.set("span.call_self_pct", pct(float64(tr.self[spCall])/float64(tr.count[spReq])))
	res.set("span.hooks_pct", pct(float64(tr.self[spHooks])/float64(tr.count[spReq])))
	res.set("span.trace_record_pct", pct(tr.perReq(spTraceRecord)))
	res.set("span.notewrite_pct", pct(tr.perReq(spNoteWrite)))
	res.set("span.repl_record_pct", pct(float64(tr.self[spReplRecord])/float64(tr.count[spReq])))
	res.set("span.repl_ship_pct", pct(tr.perReq(spReplShip)))
	res.set("span.coverage_pct", pct(tr.perReq(spCall)+tr.perReq(spReplShip)))
	// Instance.Call's self time is vm + pmem; split it by the exact counts
	// times the isolated cost of each operation.
	perOp := func(n int64) float64 { return float64(n) / float64(ops) }
	probe := res.metrics
	res.set("span.vm_est_pct", pct(perOp(total.steps)*probe["vm.step_ns"]))
	res.set("span.pmem_est_pct", pct(perOp(total.loads)*probe["pmem.load_ns"]+
		perOp(total.stores)*probe["pmem.store_ns"]+perOp(total.persists)*probe["pmem.persist1_ns"]))

	off, on := float64(done[0])/secs[0], float64(done[1])/secs[1]
	res.set("bench.trace_overhead_pct", 100*(off-on)/off)
	res.set("bench.gc_cycles", float64(gc1.NumGC-gc0.NumGC))
	res.set("bench.gc_pause_ms", float64(gc1.PauseTotalNs-gc0.PauseTotalNs)/1e6)

	sweep(res, "rig final sweep", rig, s)
	if share := float64(s.live()) / float64(len(s.keys)); share < spec.liveBand[0] || share > spec.liveBand[1] {
		res.violate("rig: %d of %d keys live, outside the stationary band", s.live(), len(s.keys))
	}
	return tr.writeJSONL(filepath.Join(outDir, "trace-"+spec.name+".jsonl"))
}

// ladderStream is the overhead-ycsb stream: every rung consumes the same
// sequence (the http rung a shorter prefix of it).
func ladderStream(seed uint64) *stream {
	spec := workloadByName("overhead-ycsb")
	return newStream(spec.name, seed, 0, keyRange(spec.keys), spec.mix)
}

// runLadder measures get and put ns per op on every rung, interleaved in
// chunks so that drift of the box hits all rungs alike. The value of a rung
// is the median over chunks of the chunk's mean.
func runLadder(res *result, seed uint64, seconds float64, serveBin string) error {
	rungs := make([]*rung, len(rungNames))
	streams := make([]*stream, len(rungNames))
	for i := range rungs {
		t0 := time.Now()
		r, err := newRung(i, serveBin)
		if err != nil {
			return err
		}
		if r.stop != nil {
			defer r.stop() //nolint:errcheck // a killed child has nothing to report
		}
		if i == 8 {
			res.set("setup.serve_ready_ms", float64(time.Since(t0))/1e6)
		}
		rungs[i], streams[i] = r, ladderStream(seed)
		if err := preload(r.t, streams[i]); err != nil {
			return fmt.Errorf("%s: %w", r.name, err)
		}
	}
	chunks := int(math.Max(2, ladderChunksPerSecond*seconds))
	means := make([][2][]float64, len(rungs)) // [rung][get|put][chunk]
	run := newClientRuns(1, ladderChunkOps)[0]
	for c := 0; c < chunks; c++ {
		// Rotate which rung goes first: the slot after the http rung runs on
		// a cold core, and no rung should own that slot.
		for k := range rungs {
			i := (c + k) % len(rungs)
			r := rungs[i]
			n := ladderChunkOps
			if i == 8 {
				n = ladderChunkOpsHTTP
			}
			n = max(10, int(float64(n)*min(1, seconds))) // sub-second runs shrink the chunks too
			run.lat, run.kind = run.lat[:0], run.kind[:0]
			for j := 0; j < n; j++ {
				run.issue(r.t, streams[i], streams[i].next())
			}
			var sum, cnt [3]float64
			for j, l := range run.lat {
				sum[run.kind[j]] += float64(l)
				cnt[run.kind[j]]++
			}
			for _, k := range []opKind{opGet, opPut} {
				means[i][k] = append(means[i][k], sum[k]/cnt[k])
			}
			res.attempted += int64(n)
		}
	}
	res.failed += int64(run.failed)
	if run.first != "" {
		res.violate("ladder: %s", run.first)
	}
	res.set("http.non2xx", float64(run.failed))

	var get, put [9]float64
	for i := range rungs {
		get[i], put[i] = median(means[i][opGet]), median(means[i][opPut])
		res.setN(ladderMetric(i, opGet), get[i], chunks)
		res.setN(ladderMetric(i, opPut), put[i], chunks)
		sweep(res, rungs[i].name+" final sweep", rungs[i].t, streams[i])
	}
	res.set("pmem.seal_ns_per_put", put[1]-put[0])
	res.set("checkpoint.ns_per_put", put[2]-put[1])
	res.set("trace.ns_per_put", put[3]-put[2])
	res.set("trace.ns_per_get", get[3]-get[2])
	res.set("arthas.get_ns", get[3])
	res.set("arthas.put_ns", put[3])
	res.set("provenance.ns_per_put", put[4]-put[3])
	res.set("obs.ns_per_put", put[5]-put[4])
	res.set("obs.ns_per_get", get[5]-get[4])
	res.set("fleet.ns_per_op", (get[6]-get[5]+put[6]-put[5])/2)
	res.set("repl.ns_per_put", put[7]-put[6])
	res.set("http.ns_per_req", (get[8]-get[7]+put[8]-put[7])/2)
	return nil
}

// runInstanceProbes measures what the ladder's stream has none of — deletes
// — and the allocation behaviour of one call through the default instance
// (MemStats deltas around a phase, never around a call).
func runInstanceProbes(res *result, seed uint64, n int) error {
	r, err := newRung(3, "")
	if err != nil {
		return err
	}
	s := newStream("instance-probes", seed, 0, keyRange(1024), mix{})
	if err := preload(r.t, s); err != nil {
		return err
	}
	var run clientRun
	phase := func(kind opKind) (allocs, bytes float64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < n; i++ {
			o := s.next()
			o.kind = kind
			v, err := r.t.do(o)
			if err != nil || !s.check(o, v) {
				run.fail("%s %d = %d, %v", o.kind, o.key, v, err)
			}
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	}
	allocsGet, _ := phase(opGet)
	allocsPut, bytesPut := phase(opPut)
	res.set("arthas.allocs_per_get", allocsGet)
	res.set("arthas.allocs_per_put", allocsPut)
	res.set("arthas.bytes_per_put", bytesPut)

	var delNs time.Duration
	for i := 0; i < n; i++ {
		o := s.next()
		o.kind = opDel
		t0 := time.Now()
		v, err := r.t.do(o)
		delNs += time.Since(t0)
		if err != nil || !s.check(o, v) {
			run.fail("del %d = %d, %v", o.key, v, err)
		}
		o.kind = opPut // put it back: the key set stays fixed
		if v, err := r.t.do(o); err != nil || !s.check(o, v) {
			run.fail("put %d: %v", o.key, err)
		}
	}
	res.setN("arthas.del_ns", float64(delNs)/float64(n), n)
	res.attempted += int64(4 * n)
	res.failed += int64(run.failed)
	if run.first != "" {
		res.violate("instance probes: %s", run.first)
	}
	return nil
}

// runScale compares one shard driven by one client with two shards driven
// by two, on the mixed stream and with no simulated service time: what the
// sharded architecture buys on this box's real cores.
func runScale(res *result, seed uint64, seconds float64) error {
	base := *workloadByName("mixed-repl")
	base.name, base.replicas = "scale", false
	opsPerClient := int(4_000 * seconds)
	rate := func(shards int) (float64, *deployment, error) {
		spec := base
		spec.shards, spec.clients = shards, shards
		d, err := deploy(&spec, seed, "", nil)
		if err != nil {
			return 0, nil, err
		}
		runs := newClientRuns(spec.clients, opsPerClient)
		wall := runClients(d, runs, opsPerClient)
		tally(res, "scale", runs...)
		return float64(opsPerClient*spec.clients) / wall.Seconds(), d, nil
	}
	one, _, err := rate(1)
	if err != nil {
		return err
	}
	two, d, err := rate(2)
	if err != nil {
		return err
	}
	res.set("fleet.scale_2shard", two/one)
	var most, sum int64
	perShard := opsPerShard(d.fleet)
	for _, n := range perShard {
		most, sum = max(most, n), sum+n
	}
	res.set("fleet.shard_skew", float64(most)*float64(len(perShard))/float64(sum))
	return nil
}

// runDrill is the heal workload in miniature, so the reactor and detector
// metrics exist beside every workload's layer numbers.
func runDrill(res *result, seed uint64, seconds float64) error {
	out, err := runHealRounds(res, workloadByName("heal"), seed, healRounds(drillRoundsPerSecond, seconds))
	if err != nil {
		return err
	}
	tally(res, "drill victim, sibling:", out.victim, out.sibling)
	heals := float64(len(out.healMs))
	res.setN("heal.mean_ms", mean(out.healMs), len(out.healMs))
	res.setN("heal.p50_ms", median(out.healMs), len(out.healMs))
	res.set("heal.max_ms", slices.Max(out.healMs))
	res.set("heal.lost_keys", float64(out.lostKeys))
	res.set("reactor.attempts_per_heal", float64(out.attempts)/heals)
	res.set("reactor.reverted_per_heal", float64(out.reverted)/heals)
	res.set("reactor.duration_ms_mean", out.reactorMs/heals)
	res.set("reactor.ms_per_attempt", out.reactorMs/float64(out.attempts))
	res.set("detector.strikes_per_fault", float64(out.strikes)/heals)
	res.set("fleet.unavailable", float64(out.unavailable))
	res.set("fleet.traps", float64(out.traps))
	sib := append([]int64(nil), out.sibling.lat...)
	slices.Sort(sib)
	res.setN("fleet.sibling_p99_us_in_heal", us(percentile(sib, 0.99)), len(sib))
	return nil
}
