package fleet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// newReplFleet builds a replica-backed fleet with a tight lag bound so the
// standby trails by at most a few records.
func newReplFleet(t *testing.T, shards int, mut func(*Config)) *Fleet {
	t.Helper()
	return newTestFleet(t, shards, func(c *Config) {
		c.Replicas = true
		c.ReplMaxLag = 4
		if mut != nil {
			mut(c)
		}
	})
}

// TestFailoverPastMitigation is the tentpole E2E: a hard fault whose
// mitigation is forced to fail (chaos drill) promotes the shard's replica
// instead of leaving it Failed — and the promoted primary serves the
// ORIGINAL value, because the injected corruption bypassed the replication
// hooks and never reached the standby.
func TestFailoverPastMitigation(t *testing.T) {
	f := newReplFleet(t, 2, func(c *Config) { c.ChaosMitigationFail = true })
	for k := int64(1); k <= 40; k++ {
		if err := f.Put(k, k+1000); err != nil {
			t.Fatal(err)
		}
	}
	key := faultKeyFor(0, 2)
	if err := f.Put(key, 777); err != nil {
		t.Fatal(err)
	}
	if _, err := f.InjectFault(key, 3); err != nil {
		t.Fatal(err)
	}

	// Strike one: transient classification, plain restart.
	_, err := f.Get(key)
	var te *TrapError
	if !errors.As(err, &te) || te.Mitigated {
		t.Fatalf("first get: %v, want un-mitigated TrapError", err)
	}
	if f.State(0) != StateServing {
		t.Fatalf("shard 0 after restart: %v", f.State(0))
	}

	// Strike two: hard fault → mitigation (chaos-failed) → promotion. The
	// request is served from the promoted replica with the pre-fault value.
	v, err := f.Get(key)
	if err != nil {
		t.Fatalf("get across failover: %v", err)
	}
	if v != 777 {
		t.Fatalf("promoted replica served %d, want pre-fault 777", v)
	}
	st := f.Stats()[0]
	if st.State != "serving" || st.Promotions != 1 || st.Mitigations != 1 || st.Recovered != 0 {
		t.Fatalf("shard 0 after failover: %+v", st)
	}
	if st.Repl == nil || !st.Repl.Connected || st.Repl.Promotions != 1 {
		t.Fatalf("repl status after failover: %+v", st.Repl)
	}
	// The whole keyspace survived: every pre-failover write is served.
	for k := int64(1); k <= 40; k++ {
		if v, err := f.Get(k); err != nil || (RouteFor(k, 2) == 0 && v != k+1000) {
			if err != nil || v != k+1000 {
				t.Fatalf("get %d after failover = %d, %v", k, v, err)
			}
		}
	}
	// The promoted shard accepts writes and the digest validates checksums.
	if err := f.Put(key, 778); err != nil {
		t.Fatal(err)
	}
	if v, err := f.Get(key); err != nil || v != 778 {
		t.Fatalf("post-failover roundtrip = %d, %v", v, err)
	}
	if _, err := f.StateDigest(); err != nil {
		t.Fatalf("digest after failover: %v", err)
	}
	// Sibling untouched; fleet-level counters recorded the promotion.
	if sib := f.Stats()[1]; sib.Traps != 0 || sib.State != "serving" {
		t.Fatalf("sibling disturbed: %+v", sib)
	}
	mm := f.MergedMetrics()
	if mm.CounterValue("fleet.promotion.completed") != 1 || mm.CounterValue("fleet.chaos.mitigation_fail") != 1 {
		t.Fatalf("promotion counters: completed=%d chaos=%d",
			mm.CounterValue("fleet.promotion.completed"), mm.CounterValue("fleet.chaos.mitigation_fail"))
	}
}

// TestPromotedShardStaysWired: a promoted shard comes up through OpenImage,
// on the replica's checkpoint log. Its telemetry and lineage must attach to
// that log, not to one the reopen discards: ckpt.versions keeps counting and
// the next incident on the shard names the writers of the faulting words.
func TestPromotedShardStaysWired(t *testing.T) {
	f := newReplFleet(t, 2, func(c *Config) {
		c.ChaosMitigationFail = true
		c.Provenance = true
	})
	hardFault := func(key int64) (int64, error) {
		t.Helper()
		if _, err := f.InjectFault(key, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := f.Get(key); err == nil {
			t.Fatal("first strike served")
		}
		return f.Get(key)
	}
	key := faultKeyFor(0, 2)
	if err := f.Put(key, 777); err != nil {
		t.Fatal(err)
	}
	// Mitigation exhausted (the drill fails it) → promotion.
	if v, err := hardFault(key); err != nil || v != 777 {
		t.Fatalf("get across failover = %d, %v", v, err)
	}
	if st := f.Stats()[0]; st.Promotions != 1 {
		t.Fatalf("shard 0 was not promoted: %+v", st)
	}

	shard := f.shards[0]
	counted, logged := shard.rec.CounterValue("ckpt.versions"), shard.inst.Log.TotalVersions()
	if err := f.Put(key, 778); err != nil {
		t.Fatal(err)
	}
	grew := shard.inst.Log.TotalVersions() - logged
	if got := shard.rec.CounterValue("ckpt.versions") - counted; grew == 0 || got != int64(grew) {
		t.Fatalf("put on the promoted shard: log grew %d versions, ckpt.versions moved %d", grew, got)
	}

	// A second hard fault, mitigated for real this time, on the promoted shard.
	f.cfg.ChaosMitigationFail = false
	if v, err := hardFault(key); err != nil || v != 778 {
		t.Fatalf("get across mitigation on the promoted shard = %d, %v", v, err)
	}
	inc := f.Incident(0)
	if inc == nil || len(inc.Lineage) == 0 {
		t.Fatalf("incident on the promoted shard carries no lineage: %+v", inc)
	}
}

// TestFailoverWithoutReplicaStillFails pins the no-regression contract: with
// replicas disabled, the chaos-failed mitigation leaves the shard Failed
// exactly as before the failover path existed.
func TestFailoverWithoutReplicaStillFails(t *testing.T) {
	f := newTestFleet(t, 2, func(c *Config) { c.ChaosMitigationFail = true })
	key := faultKeyFor(0, 2)
	if err := f.Put(key, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := f.InjectFault(key, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Get(key); err == nil {
		t.Fatal("first strike served")
	}
	_, err := f.Get(key)
	var te *TrapError
	if !errors.As(err, &te) || !te.Mitigated {
		t.Fatalf("second get: %v, want mitigated TrapError", err)
	}
	if f.State(0) != StateFailed {
		t.Fatalf("shard 0 state %v, want failed", f.State(0))
	}
}

// TestOperatorPromoteDrill runs the /promote drill: ship, seal, cut over —
// no fault involved. Nothing may be lost and replication must re-establish
// from the promoted primary.
func TestOperatorPromoteDrill(t *testing.T) {
	f := newReplFleet(t, 2, nil)
	for k := int64(1); k <= 60; k++ {
		if err := f.Put(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	before, err := f.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Promote(0); err != nil {
		t.Fatal(err)
	}
	after, err := f.StateDigest()
	if err != nil {
		t.Fatalf("digest after drill: %v", err)
	}
	if before != after {
		t.Fatalf("drill changed logical state: %d vs %d", before, after)
	}
	st := f.Stats()[0]
	if st.State != "serving" || st.Promotions != 1 {
		t.Fatalf("shard 0 after drill: %+v", st)
	}
	if st.Repl == nil || !st.Repl.Connected {
		t.Fatalf("replication not re-established: %+v", st.Repl)
	}
	// A second drill works too: the promoted primary ships like the original.
	for k := int64(61); k <= 80; k++ {
		if err := f.Put(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Promote(0); err != nil {
		t.Fatalf("second drill: %v", err)
	}
	for k := int64(1); k <= 80; k++ {
		if v, err := f.Get(k); err != nil || v != k*3 {
			t.Fatalf("get %d after two drills = %d, %v", k, v, err)
		}
	}
	if err := f.Promote(0); err == nil {
		t.Log("third drill ok")
	}
	if err := f.Promote(99); err == nil {
		t.Fatal("promote of bogus shard succeeded")
	}
}

// TestConcurrentInjectPromoteRace drives writers, fault injection, and
// promote drills concurrently (run under -race) and asserts read-your-writes
// across failovers: once a Put(k, v) succeeds, a later successful Get(k)
// must return v — promotion ships the stream before sealing, so no
// acknowledged write may vanish.
func TestConcurrentInjectPromoteRace(t *testing.T) {
	f := newReplFleet(t, 2, nil)
	const (
		writers      = 3
		keysPerW     = 8
		rounds       = 25
		drills       = 6
		injectRounds = 3
	)
	// retry drives an op until it succeeds or the attempt budget runs out,
	// honoring RetryAfter hints on refusals. Traps surface immediately for
	// writer keys (they are never injected) but are retried for fault keys
	// (the escalation heals them).
	retry := func(op func() error, retryTraps bool) error {
		var err error
		for a := 0; a < 200; a++ {
			err = op()
			if err == nil {
				return nil
			}
			var ue *UnavailableError
			if errors.As(err, &ue) {
				time.Sleep(ue.RetryAfter())
				continue
			}
			var te *TrapError
			if errors.As(err, &te) && retryTraps {
				time.Sleep(time.Millisecond)
				continue
			}
			return err
		}
		return err
	}

	var wg sync.WaitGroup
	errCh := make(chan error, writers+2)

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := map[int64]int64{}
			for r := 0; r < rounds; r++ {
				for i := 0; i < keysPerW; i++ {
					k := int64(100 + w*keysPerW + i)
					v := int64(r*1000 + w*100 + i)
					if err := retry(func() error { return f.Put(k, v) }, false); err != nil {
						errCh <- fmt.Errorf("writer %d put %d: %w", w, k, err)
						return
					}
					last[k] = v
					var got int64
					if err := retry(func() error {
						var err error
						got, err = f.Get(k)
						return err
					}, false); err != nil {
						errCh <- fmt.Errorf("writer %d get %d: %w", w, k, err)
						return
					}
					if got != last[k] {
						errCh <- fmt.Errorf("read-your-writes violated: key %d = %d, want %d", k, got, last[k])
						return
					}
				}
			}
		}(w)
	}

	// Operator drills both shards while traffic flows. "Not serving" errors
	// are expected when a drill races a trap-handling window.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for d := 0; d < drills; d++ {
			_ = retry(func() error {
				err := f.Promote(d % 2)
				if err == nil {
					return nil
				}
				var ue *UnavailableError
				if errors.As(err, &ue) {
					return ue
				}
				return nil // "not serving"/transient drill refusal: skip
			}, false)
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Fault injector: corrupt dedicated keys (outside the writer keyspace)
	// and read them until the escalation — restart, then mitigation or
	// promotion — serves them again.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < injectRounds; r++ {
			k := faultKeyFor(r%2, 2) + int64(r)
			if RouteFor(k, 2) != r%2 {
				continue
			}
			if err := retry(func() error { return f.Put(k, int64(5000+r)) }, true); err != nil {
				continue
			}
			if _, err := f.InjectFault(k, 2); err != nil {
				continue // shard mid-recovery: fine, try next round
			}
			var got int64
			if err := retry(func() error {
				var err error
				got, err = f.Get(k)
				return err
			}, true); err == nil && got != int64(5000+r) {
				errCh <- fmt.Errorf("healed key %d = %d, want %d", k, got, 5000+r)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	// Whatever interleaving happened, the fleet must end consistent: every
	// shard's digest validates its checksums.
	if err := retry(func() error {
		_, err := f.StateDigest()
		return err
	}, true); err != nil {
		t.Fatalf("final digest: %v", err)
	}
}
