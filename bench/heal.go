package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The heal workload, and the drill every traced run holds in miniature.
//
// Every round runs on a freshly built fleet aged with the same amount of
// history. That is deliberate. Sizing probes healed 40 faults in a row on
// one shard, as a long-running server would: the first heal took 6–8
// re-executions and reverted 1–3 checkpoint versions, but every mitigation
// leaves reverted entries, detector history and re-execution traces behind,
// and from the second fault on the reactor's cost was chaotic in the
// faulted key — 4 to 129 re-executions, up to 1 800 versions reverted, heal
// time growing from 40 ms to seconds, different on every seed. A number
// like that cannot gate anything. What is measured here is the repeatable
// thing: the first hard fault on a shard with healHistory ops behind it.

// healOutcome is what a series of independent fault rounds measured.
type healOutcome struct {
	setupS   []float64 // per round: build + preload + history
	heapMB   []float64 // per round: heap the healed fleet retains
	healMs   []float64 // per round: first get after injection -> first success
	strikes  int       // failed requests across all rounds
	attempts int       // reactor re-executions across all rounds
	reverted int       // checkpoint versions the reactor discarded
	// reactorMs is the time inside reactor.Mitigate, summed.
	reactorMs float64
	// lostKeys counts keys whose value after a heal differs from the model:
	// reversion discards checkpointed versions, so the healed store may
	// hold older values than were acknowledged — the paper's data-loss
	// figure. Reported, not failed.
	lostKeys int
	// roundRate is, per round, client 0's requests over the round's window:
	// first re-put to last op.
	roundRate []float64
	// victim is client 0, the tenant whose shard takes the faults; sibling
	// is client 1, which keeps driving the other shard throughout.
	victim, sibling    clientRun
	unavailable, traps int64
}

// deployHeal builds the heal fleet: keys partitioned by shard so that
// client 0 owns shard 0, preloaded, then aged with `history` mixed ops so
// the checkpoint log and the address trace hold a past for the reactor to
// search.
func deployHeal(spec *workloadSpec, seed uint64, history int) (*deployment, error) {
	d, err := deploy(spec, seed, "", func(k int64) int { return shardOf(k, spec.shards) })
	if err != nil {
		return nil, err
	}
	for n := 0; n < history; n++ {
		c := n % spec.clients
		s := d.streams[c]
		o := s.next()
		v, err := d.targets[c].do(o)
		if err != nil || !s.check(o, v) {
			return nil, fmt.Errorf("history %s %d = %d, %v", o.kind, o.key, v, err)
		}
	}
	return d, nil
}

// runHealRounds runs `rounds` independent fault rounds. In each, client 0
// issues healOpsBeforeFault mixed ops against shard 0, then puts a seeded key
// of that shard healRePuts times (a hot key: its checkpoint
// entry holds recent versions to revert to), the fault is injected into the
// key's stored value, and client 0 re-issues the get until it succeeds — the
// first get traps and restarts the shard, the second is classified hard and
// mitigated online. It then sweeps its keys, issues healOpsAfterHeal more mixed
// ops against the healed shard, and the fleet is verified and dropped.
// Client 1 drives shard 1 for as long as the round's window lasts, so
// sibling latency during a heal is measured, not assumed.
func runHealRounds(res *result, spec *workloadSpec, seed uint64, rounds int) (healOutcome, error) {
	var out healOutcome
	out.victim = newClientRuns(1, rounds*healRoundRequests)[0]
	out.sibling = newClientRuns(1, 1<<20)[0]
	pick := rng{s: streamSeed("heal-faults", seed, 0)}
	for r := 0; r < rounds; r++ {
		heapBefore := liveHeap()
		t0 := time.Now()
		d, err := deployHeal(spec, seed+uint64(r)<<32, healHistory)
		if err != nil {
			return out, err
		}
		out.setupS = append(out.setupS, time.Since(t0).Seconds())
		ok := healOneFault(res, d, &out, &pick, r)
		out.heapMB = append(out.heapMB, (float64(liveHeap())-float64(heapBefore))/1e6)
		runtime.KeepAlive(d)
		for _, st := range d.fleet.Stats() {
			out.unavailable += st.Unavailable
			out.traps += st.Traps
		}
		verify(res, d, false)
		if !ok {
			break
		}
	}
	if len(out.healMs) != rounds {
		res.violate("%d of %d faults healed", len(out.healMs), rounds)
	}
	return out, nil
}

// healOneFault is one round's measured window on a fresh deployment. It
// reports whether the fault healed.
func healOneFault(res *result, d *deployment, out *healOutcome, pick *rng, round int) bool {
	victim, t := d.streams[0], d.targets[0]
	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sib, s := &out.sibling, d.streams[1]
		for !done.Load() {
			if len(sib.lat) == cap(sib.lat) {
				// Keep the load on without growing the record.
				sib.lat, sib.kind = sib.lat[:0], sib.kind[:0]
			}
			sib.issue(d.targets[1], s, s.next())
		}
	}()
	defer func() {
		done.Store(true)
		wg.Wait()
	}()

	start := time.Now()
	for n := 0; n < healOpsBeforeFault; n++ {
		out.victim.issue(t, victim, victim.next())
	}
	i := pick.intn(len(victim.keys))
	key := victim.keys[i]
	for n := 0; n < healRePuts; n++ {
		out.victim.issue(t, victim, op{kind: opPut, key: key, idx: i, val: int64(pick.next() >> 2)})
	}
	if _, err := d.fleet.InjectFault(key, uint(pick.intn(48))); err != nil {
		res.violate("round %d: inject into key %d: %v", round, key, err)
		return false
	}
	// One logical request: the get, re-issued until it succeeds.
	get := op{kind: opGet, key: key, idx: i}
	t0 := time.Now()
	var v int64
	var err error
	for tries := 0; tries < 8; tries++ {
		if v, err = t.do(get); err == nil {
			break
		}
		out.strikes++
	}
	heal := time.Since(t0)
	out.victim.lat = append(out.victim.lat, int64(heal))
	out.victim.kind = append(out.victim.kind, opGet)
	if err != nil {
		out.victim.fail("round %d: key %d still failing: %s", round, key, errTrap(err))
		return false
	}
	out.healMs = append(out.healMs, float64(heal)/1e6)
	if rep, ok := lastHeal(d.fleet, 0); ok {
		out.attempts += rep.attempts
		out.reverted += rep.reverted
		out.reactorMs += float64(rep.duration) / 1e6
		if !rep.recovered {
			res.violate("round %d: reactor reports not recovered", round)
		}
	}
	// Data loss is counted here, at the heal boundary, and the model adopts
	// what the store now holds; a mismatch anywhere else is a failure.
	if v != victim.model[i] {
		out.lostKeys++
		victim.model[i] = v
	}
	for j, k := range victim.keys {
		got, err := t.do(op{kind: opGet, key: k, idx: j})
		res.attempted++
		if err != nil {
			res.failed++
			res.violate("round %d: post-heal get %d: %s", round, k, errTrap(err))
		} else if got != victim.model[j] {
			out.lostKeys++
			victim.model[j] = got
		}
	}
	for n := 0; n < healOpsAfterHeal; n++ {
		out.victim.issue(t, victim, victim.next())
	}
	out.roundRate = append(out.roundRate, healRoundRequests/time.Since(start).Seconds())
	return true
}

// healRounds scales a per-second round count, with a floor of one.
func healRounds(perSecond, seconds float64) int {
	return max(1, int(perSecond*seconds))
}

// runHeal measures the heal workload with tracing off. Its requests are
// client 0's: the tenant whose shard takes the faults.
func runHeal(spec *workloadSpec, seed uint64, seconds float64) (*result, error) {
	res := newResult()
	out, err := runHealRounds(res, spec, seed, healRounds(healRoundsPerSecond, seconds))
	if err != nil {
		return nil, err
	}
	res.setN("setup_s", median(out.setupS), len(out.setupS))
	res.setN("live_heap_mb", median(out.heapMB), len(out.heapMB))
	res.setN("ops_per_s", median(out.roundRate), len(out.roundRate))
	res.setN("heal_mean_ms", mean(out.healMs), len(out.healMs))
	res.set("lost_keys", float64(out.lostKeys))
	sib := append([]int64(nil), out.sibling.lat...)
	slices.Sort(sib)
	res.setN("sibling_p99_us", us(percentile(sib, 0.99)), len(sib))
	tally(res, "victim, sibling:", out.victim, out.sibling)
	latencyMetrics(res, out.victim)
	res.set("failed_share", float64(res.failed)/float64(res.attempted))
	return res, nil
}
