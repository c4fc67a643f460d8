package systems

import (
	"strings"
	"testing"

	"arthas"
	"arthas/internal/vm"
)

func optsFull() arthas.Config { return arthas.Config{} }

// --- Memcached ---

func TestMCBasicOps(t *testing.T) {
	mc, err := NewMC(optsFull())
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 20; k++ {
		if err := mc.Set(k, k*10, 2); err != nil {
			t.Fatal(err)
		}
	}
	// Value is sum of [v, v+1] = 2v+1.
	v, err := mc.Get(7)
	if err != nil {
		t.Fatal(err)
	}
	if v != 70+71 {
		t.Fatalf("get(7) = %d", v)
	}
	if v, _ := mc.Get(999); v != -1 {
		t.Fatalf("missing key returned %d", v)
	}
	if err := mc.Delete(7); err != nil {
		t.Fatal(err)
	}
	if v, _ := mc.Get(7); v != -1 {
		t.Fatalf("deleted key returned %d", v)
	}
	n, _ := mc.Count()
	if n != 19 {
		t.Fatalf("count = %d", n)
	}
	w, trap := mc.Call("mc_walk_count")
	if trap != nil || w != 19 {
		t.Fatalf("walk count = %d (%v)", w, trap)
	}
}

func TestMCUpdateExistingKey(t *testing.T) {
	mc, _ := NewMC(optsFull())
	mc.Set(5, 100, 2)
	mc.Set(5, 200, 3)
	v, err := mc.Get(5)
	if err != nil {
		t.Fatal(err)
	}
	if v != 200+201+202 {
		t.Fatalf("updated get = %d", v)
	}
	if n, _ := mc.Count(); n != 1 {
		t.Fatalf("count after update = %d", n)
	}
}

func TestMCSurvivesRestart(t *testing.T) {
	mc, _ := NewMC(optsFull())
	for k := int64(1); k <= 10; k++ {
		mc.Set(k, k, 1)
	}
	if trap := mc.Restart(); trap != nil {
		t.Fatal(trap)
	}
	v, err := mc.Get(4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 4 {
		t.Fatalf("after restart get(4) = %d", v)
	}
}

func TestMCRefcountOverflowHang(t *testing.T) {
	// The f1 chain: wrap the refcount, let the crawler free the linked
	// item, reinsert into the same bucket, observe the lookup hang.
	mc, _ := NewMC(arthas.Config{StepLimit: 300_000})
	// Same bucket: keys ≡ mod 64.
	mc.Set(1, 10, 2)  // it1
	mc.Set(65, 20, 2) // it2, chain head
	for i := 0; i < 255; i++ {
		if _, trap := mc.Call("mc_hold", 65); trap != nil {
			t.Fatal(trap)
		}
	}
	// The next set's crawler frees the ref==0 item (still linked); the
	// same call then reuses its block for a same-bucket key: self-link.
	mc.Set(129, 40, 2)
	_, trap := mc.Call("mc_get", 1)
	if trap == nil || trap.Kind != vm.TrapStepLimit {
		t.Fatalf("expected hang, got %v", trap)
	}
	// Hard fault: recurs after restart.
	if trap := mc.Restart(); trap != nil {
		t.Fatal(trap)
	}
	_, trap = mc.Call("mc_get", 1)
	if trap == nil || trap.Kind != vm.TrapStepLimit {
		t.Fatalf("hang did not recur after restart: %v", trap)
	}
}

func TestMCFlushAllFutureTime(t *testing.T) {
	mc, _ := NewMC(optsFull())
	mc.Set(1, 10, 1)
	mc.Set(2, 20, 1)
	// flush_all at a far-future time: the bug applies it immediately.
	if _, trap := mc.Call("mc_flush", 1_000_000); trap != nil {
		t.Fatal(trap)
	}
	if v, _ := mc.Get(1); v != -1 {
		t.Fatalf("get(1) = %d, want miss (data loss)", v)
	}
	mc.Restart()
	if v, _ := mc.Get(2); v != -1 {
		t.Fatal("data loss did not persist across restart")
	}
}

func TestMCRaceLosesInsert(t *testing.T) {
	mc, _ := NewMC(optsFull())
	// Two same-bucket keys inserted concurrently without the lock.
	if _, trap := mc.Call("mc_race", 10, 100, 74, 200); trap != nil {
		t.Fatal(trap)
	}
	v10, _ := mc.Get(10)
	v74, _ := mc.Get(74)
	if v10 != -1 && v74 != -1 {
		t.Fatal("race did not lose an insert (both keys present)")
	}
	if v10 == -1 && v74 == -1 {
		t.Fatal("both inserts lost")
	}
	// The loss is persistent.
	mc.Restart()
	v10, _ = mc.Get(10)
	v74, _ = mc.Get(74)
	if v10 != -1 && v74 != -1 {
		t.Fatal("loss healed by restart?")
	}
}

func TestMCAppendOverflowSegfault(t *testing.T) {
	mc, _ := NewMC(optsFull())
	mc.Set(5, 1, 4)
	if _, trap := mc.Call("mc_append", 5, 70_000, 9); trap != nil {
		t.Fatal(trap)
	}
	_, trap := mc.Call("mc_get", 5)
	if trap == nil || trap.Kind != vm.TrapSegfault {
		t.Fatalf("expected segfault, got %v", trap)
	}
	mc.Restart()
	_, trap = mc.Call("mc_get", 5)
	if trap == nil || trap.Kind != vm.TrapSegfault {
		t.Fatalf("segfault did not recur: %v", trap)
	}
}

func TestMCExpandingFlagFlip(t *testing.T) {
	mc, _ := NewMC(optsFull())
	mc.Set(1, 10, 1)
	root, _ := mc.Pool.Root(0)
	// Hardware fault: flip bit 0 of the EXPANDING flag, durably.
	mc.Pool.InjectBitFlip(root+6, 0, true)
	if v, _ := mc.Get(1); v != -1 {
		t.Fatalf("get(1) = %d, want miss (lookups routed to missing table)", v)
	}
	mc.Restart()
	if v, _ := mc.Get(1); v != -1 {
		t.Fatal("flag flip healed by restart?")
	}
}

// --- Redis ---

func TestRDBasicOps(t *testing.T) {
	rd, err := NewRD(optsFull())
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 15; k++ {
		rd.Set(k, k*7)
	}
	v, err := rd.Get(9)
	if err != nil {
		t.Fatal(err)
	}
	if v != 63 {
		t.Fatalf("get(9) = %d", v)
	}
	rd.Set(9, 100)
	if v, _ := rd.Get(9); v != 100 {
		t.Fatalf("updated get = %d", v)
	}
	if trap := rd.Restart(); trap != nil {
		t.Fatal(trap)
	}
	if v, _ := rd.Get(3); v != 21 {
		t.Fatal("values lost across restart")
	}
}

func TestRDListpack(t *testing.T) {
	rd, _ := NewRD(optsFull())
	if _, trap := rd.Call("rd_lp_new", 50, 200); trap != nil {
		t.Fatal(trap)
	}
	sum := int64(0)
	for i := int64(1); i <= 20; i++ {
		if _, trap := rd.Call("rd_lp_append", 50, i); trap != nil {
			t.Fatal(trap)
		}
		sum += i
	}
	v, err := rd.Get(50)
	if err != nil {
		t.Fatal(err)
	}
	if v != sum {
		t.Fatalf("listpack sum = %d, want %d", v, sum)
	}
}

func TestRDListpackOverflowSegfault(t *testing.T) {
	// Appending past the 96-word boundary corrupts the stored size (f6).
	rd, _ := NewRD(optsFull())
	rd.Call("rd_lp_new", 50, 200)
	for i := int64(1); i <= 96; i++ {
		if _, trap := rd.Call("rd_lp_append", 50, i); trap != nil {
			t.Fatal(trap)
		}
	}
	_, trap := rd.Call("rd_get", 50)
	if trap == nil || trap.Kind != vm.TrapSegfault {
		t.Fatalf("expected segfault, got %v", trap)
	}
	rd.Restart()
	_, trap = rd.Call("rd_get", 50)
	if trap == nil || trap.Kind != vm.TrapSegfault {
		t.Fatalf("segfault did not recur: %v", trap)
	}
}

func TestRDShareRefcountPanic(t *testing.T) {
	rd, _ := NewRD(optsFull())
	rd.Call("rd_share", 7)
	rd.Call("rd_share", 8)
	// Release with the buggy double-decrement path (f7).
	rd.Call("rd_unshare", 7, 1)
	rd.Call("rd_unshare", 8, 1)
	_, trap := rd.Call("rd_get", 7)
	if trap == nil || trap.Kind != vm.TrapUserFail || trap.Code != 71 {
		t.Fatalf("expected panic 71, got %v", trap)
	}
	rd.Restart()
	_, trap = rd.Call("rd_get", 8)
	if trap == nil || trap.Kind != vm.TrapUserFail {
		t.Fatalf("panic did not recur: %v", trap)
	}
}

func TestRDSlowlogLeak(t *testing.T) {
	rd, _ := NewRD(optsFull())
	rd.Call("rd_slowlog_on")
	before := rd.Pool.LiveWords()
	for k := int64(1); k <= 200; k++ {
		rd.Set(k%10, k) // 10 keys, lots of slowlog churn
	}
	after := rd.Pool.LiveWords()
	// 10 keys worth of real data but ~200 slowlog entries leaked.
	leakedEntries := rd.Log.LiveAllocs()
	if after-before < 3*150 {
		t.Fatalf("leak too small: %d words, %d live allocs", after-before, len(leakedEntries))
	}
}

// --- CCEH ---

func TestCCBasicOps(t *testing.T) {
	cc, err := NewCC(optsFull())
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 200; k++ {
		if err := cc.Insert(k, k*3); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
	}
	for _, k := range []int64{1, 50, 123, 200} {
		v, err := cc.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if v != k*3 {
			t.Fatalf("get(%d) = %d", k, v)
		}
	}
	if v, _ := cc.Get(5000); v != -1 {
		t.Fatalf("missing key returned %d", v)
	}
	if trap := cc.Restart(); trap != nil {
		t.Fatal(trap)
	}
	if v, _ := cc.Get(123); v != 369 {
		t.Fatal("values lost across restart")
	}
}

func TestCCDirectoryDoublingCrashHang(t *testing.T) {
	cc, _ := NewCC(arthas.Config{StepLimit: 300_000})
	// Fill until a doubling is imminent, then arm the crash.
	var k int64
	for k = 1; k <= 400; k++ {
		if err := cc.Insert(k, k); err != nil {
			t.Fatalf("insert %d: %v", k, err)
		}
		g, _ := cc.Call("cc_recover") // returns current global depth
		if g >= 5 {
			break
		}
	}
	cc.Call("cc_arm_crash")
	// Keep inserting until the armed doubling fires.
	var trap *vm.Trap
	for k++; k <= 3000; k++ {
		_, trap = cc.Call("cc_insert", k, k)
		if trap != nil {
			break
		}
	}
	if trap == nil || trap.Kind != vm.TrapUserFail || trap.Code != 9999 {
		t.Fatalf("injected crash did not fire: %v", trap)
	}
	// Restart: the directory/global-depth mismatch persists and inserts hang.
	if tp := cc.Restart(); tp != nil {
		t.Fatal(tp)
	}
	_, trap = cc.Call("cc_insert", 70001, 1)
	if trap == nil || trap.Kind != vm.TrapStepLimit {
		t.Fatalf("expected insert hang after crash, got %v", trap)
	}
}

// --- PMEMKV ---

func TestKVBasicOps(t *testing.T) {
	kv, err := NewKV(optsFull())
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= 50; k++ {
		kv.Put(k, k+1000)
	}
	if v, _ := kv.Get(30); v != 1030 {
		t.Fatalf("get(30) = %d", v)
	}
	kv.Del(30)
	if v, _ := kv.Get(30); v != -1 {
		t.Fatal("deleted key still present")
	}
	// Draining the async worker frees the node.
	live := len(kv.Log.LiveAllocs())
	kv.Machine.DrainBackground(10_000)
	if len(kv.Log.LiveAllocs()) >= live {
		t.Fatal("async free worker did not free the node")
	}
}

func TestKVAsyncFreeLeakOnCrash(t *testing.T) {
	kv, _ := NewKV(optsFull())
	for k := int64(1); k <= 40; k++ {
		kv.Put(k, k)
	}
	allocsBefore := len(kv.Log.LiveAllocs())
	for k := int64(1); k <= 20; k++ {
		kv.Del(k)
	}
	// Crash before the workers run: nodes leak.
	kv.Restart()
	leaked := 0
	for _, rec := range kv.Log.LiveAllocs() {
		_ = rec
		leaked++
	}
	if leaked != allocsBefore {
		t.Fatalf("live allocs = %d, want %d (unlinked nodes leaked)", leaked, allocsBefore)
	}
	// The unlinked nodes are invisible to the index.
	if v, _ := kv.Get(5); v != -1 {
		t.Fatal("deleted key resurrected")
	}
}

// --- Pelikan ---

func TestPKBasicOps(t *testing.T) {
	pk, err := NewPK(optsFull())
	if err != nil {
		t.Fatal(err)
	}
	pk.Set(3, 5, 4)
	v, err := pk.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if v != 5+6+7+8 {
		t.Fatalf("get(3) = %d", v)
	}
	stats, trap := pk.Call("pk_stats")
	if trap != nil {
		t.Fatal(trap)
	}
	if stats == 0 {
		t.Fatal("stats empty after ops")
	}
}

func TestPKValueLengthOverflowSegfault(t *testing.T) {
	pk, _ := NewPK(optsFull())
	// A value "larger than the slab encoding": wraps the buffer size.
	if err := pk.Set(9, 1, 70_000); err != nil {
		t.Fatal(err)
	}
	_, trap := pk.Call("pk_get", 9)
	if trap == nil || trap.Kind != vm.TrapSegfault {
		t.Fatalf("expected segfault, got %v", trap)
	}
	pk.Restart()
	_, trap = pk.Call("pk_get", 9)
	if trap == nil || trap.Kind != vm.TrapSegfault {
		t.Fatalf("segfault did not recur: %v", trap)
	}
}

func TestPKNullStatsSegfault(t *testing.T) {
	pk, _ := NewPK(optsFull())
	pk.Set(1, 1, 1)
	pk.Call("pk_arm_crash")
	_, trap := pk.Call("pk_stats_reset")
	if trap == nil || trap.Code != 1111 {
		t.Fatalf("injected crash did not fire: %v", trap)
	}
	pk.Restart()
	_, trap = pk.Call("pk_stats")
	if trap == nil || trap.Kind != vm.TrapSegfault {
		t.Fatalf("expected null-deref segfault, got %v", trap)
	}
}

// --- harness ---

// TestDeploymentVariants: the attachment combinations behind Table 8 and the
// baselines, deployed the way the fault cases and experiments deploy them.
// A put reaches exactly the layers the config keeps.
func TestDeploymentVariants(t *testing.T) {
	for _, v := range []struct {
		name   string
		detach arthas.Layers
	}{
		{"vanilla", arthas.AllLayers},
		{"checkpoint-only", arthas.LayerAnalysis | arthas.LayerTrace},
		{"instrumentation-only", arthas.LayerCheckpoint},
		{"full", 0},
	} {
		t.Run(v.name, func(t *testing.T) {
			d, err := Deploy(PMEMKV(), arthas.Config{Detach: v.detach})
			if err != nil {
				t.Fatal(err)
			}
			if _, trap := d.Call("kv_put", 1, 2); trap != nil {
				t.Fatal(trap)
			}
			kept := arthas.AllLayers &^ v.detach
			if got, want := d.Analysis != nil, kept&arthas.LayerAnalysis != 0; got != want {
				t.Errorf("analysis ran = %v, want %v", got, want)
			}
			if got, want := d.Log.TotalVersions() > 0, kept&arthas.LayerCheckpoint != 0; got != want {
				t.Errorf("checkpoint log recorded the put = %v, want %v", got, want)
			}
			if got, want := d.Trace.Len() > 0, kept&arthas.LayerTrace != 0; got != want {
				t.Errorf("trace recorded the put = %v, want %v", got, want)
			}
			if v, trap := d.Call("kv_get", 1); trap != nil || v != 2 {
				t.Fatalf("kv_get(1) = %d %v, want 2", v, trap)
			}
		})
	}
}

func TestRetInstrsHelper(t *testing.T) {
	d, _ := Deploy(PMEMKV(), arthas.Config{Detach: arthas.LayerAnalysis})
	rets := d.RetInstrs("kv_get")
	if len(rets) != 2 {
		t.Fatalf("kv_get rets = %d, want 2", len(rets))
	}
	if d.RetInstrs("nope") != nil {
		t.Fatal("unknown function returned rets")
	}
}

func TestByName(t *testing.T) {
	for _, sys := range All() {
		got, err := ByName(sys.Name)
		if err != nil || got.Source != sys.Source || got.InitFn != sys.InitFn {
			t.Errorf("ByName(%q) = %+v, %v", sys.Name, got, err)
		}
	}
	if _, err := ByName("leveldb"); err == nil || !strings.Contains(err.Error(), `"leveldb"`) {
		t.Fatalf("unknown system: err = %v, want one naming it", err)
	}
}
