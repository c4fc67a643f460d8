package arthas

import (
	"bytes"
	"sync"
	"testing"

	"arthas/internal/pmem"
)

// End-to-end media-fault resilience: inject corruption behind the checksums'
// back, and verify the system heals it — via the open path (scrub from the
// image's own checkpoint log), via the in-process reactor (scrub-then-retry),
// and, when the log cannot prove a block's contents, via quarantine so the
// pool opens degraded rather than failing.

// bufPayloadAddr returns the address of buf[i] in a demo instance.
func bufPayloadAddr(t *testing.T, inst *Instance, i uint64) uint64 {
	t.Helper()
	root, err := inst.Pool.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := inst.Pool.Load(root)
	if err != nil {
		t.Fatal(err)
	}
	return buf + i
}

func TestMediaFaultHealsOnOpenImage(t *testing.T) {
	inst := newDemo(t)
	for i := int64(0); i < 8; i++ {
		if _, trap := inst.Call("put", i, 300+i); trap != nil {
			t.Fatal(trap)
		}
	}
	// Flip a bit of a durable payload word AFTER write-back: the stored
	// checksum no longer matches the block contents.
	addr := bufPayloadAddr(t, inst, 3)
	if err := inst.InjectMediaFault(MediaFault{Kind: MediaBitFlip, Addr: addr, Bits: 1 << 7}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := inst.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}

	inst2, err := OpenImage("demo", demoSource, Config{RecoverFn: "recover_"}, &buf)
	if err != nil {
		t.Fatalf("OpenImage did not heal the media fault: %v", err)
	}
	if inst2.LastScrub == nil {
		t.Fatal("no scrub report despite corrupt image")
	}
	if inst2.LastScrub.Healed < 1 || inst2.LastScrub.RepairedWords < 1 {
		t.Fatalf("scrub report = %s", inst2.LastScrub)
	}
	if merr := inst2.Pool.VerifyMedia(); merr != nil {
		t.Fatalf("pool still corrupt after heal: %v", merr)
	}
	// The original contents were provably restored from the checkpoint log:
	// the workload sees the pre-fault values.
	for i := int64(0); i < 8; i++ {
		v, trap := inst2.Call("get", i)
		if trap != nil || v != 300+i {
			t.Fatalf("get(%d) = %d (%v) after heal", i, v, trap)
		}
	}
}

func TestMediaFaultCleanImageHasNoScrub(t *testing.T) {
	inst := newDemo(t)
	inst.Call("put", 0, 42)
	var buf bytes.Buffer
	if err := inst.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	inst2, err := OpenImage("demo", demoSource, Config{RecoverFn: "recover_"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if inst2.LastScrub != nil {
		t.Fatalf("clean image produced a scrub report: %s", inst2.LastScrub)
	}
}

func TestMediaFaultHealsInProcess(t *testing.T) {
	inst := newDemo(t)
	for i := int64(0); i < 8; i++ {
		if _, trap := inst.Call("put", i, 500+i); trap != nil {
			t.Fatal(trap)
		}
	}
	addr := bufPayloadAddr(t, inst, 2)
	if err := inst.InjectMediaFault(MediaFault{Kind: MediaStuckWord, Addr: addr, Bits: 0xFF}); err != nil {
		t.Fatal(err)
	}
	// The next read from the poisoned block traps media-corrupt.
	_, trap := inst.Call("get", 2)
	if trap == nil || trap.Kind != TrapMediaCorrupt {
		t.Fatalf("trap = %v, want media-corrupt", trap)
	}
	if !inst.MediaSuspected() {
		t.Fatal("detector did not flag media corruption")
	}
	inst.Observe(trap)
	rep, err := inst.MitigateCall("get", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Recovered {
		t.Fatalf("mitigation failed: %s", rep)
	}
	if rep.ScrubRepairs < 1 {
		t.Fatalf("recovered without scrubbing (ScrubRepairs=%d): %s", rep.ScrubRepairs, rep)
	}
	// Scrub retries are not charged as mitigation attempts: the budget the
	// paper allots to reversion rounds is untouched by media healing.
	if rep.Attempts > 2 {
		t.Fatalf("scrub retries inflated the attempt count: %d attempts", rep.Attempts)
	}
	if merr := inst.Pool.VerifyMedia(); merr != nil {
		t.Fatalf("pool still corrupt after mitigation: %v", merr)
	}
	for i := int64(0); i < 8; i++ {
		v, trap := inst.Call("get", i)
		if trap != nil || v != 500+i {
			t.Fatalf("get(%d) = %d (%v) after heal", i, v, trap)
		}
	}
}

// bigSource allocates a 200-word buffer so its payload spans media blocks
// beyond block 0 — poisoning one of those with no checkpoint log available
// exercises the quarantine path rather than the header-degrade path.
const bigSource = `
fn init_() {
    var root = pmalloc(4);
    var big = pmalloc(200);
    root[0] = big;
    root[1] = 200;
    persist(root, 2);
    setroot(0, root);
    return 0;
}
fn fill(i, v) {
    var root = getroot(0);
    var big = root[0];
    big[i % 200] = v;
    persist(big + (i % 200), 1);
    return 0;
}
fn grab() {
    var p = pmalloc(40);
    p[0] = 1;
    persist(p, 1);
    return p;
}
fn recover_() {
    recover_begin();
    var root = getroot(0);
    var n = root[1];
    recover_end();
    return n;
}
`

func TestMediaUnrepairableQuarantinesOnOpen(t *testing.T) {
	inst, err := New("big", bigSource, Config{PoolWords: 4096, RecoverFn: "recover_"})
	if err != nil {
		t.Fatal(err)
	}
	if _, trap := inst.Call("init_"); trap != nil {
		t.Fatal(trap)
	}
	for i := int64(0); i < 200; i++ {
		inst.Call("fill", i, 900+i)
	}
	// Poison a whole media block in the middle of big's payload, then save a
	// bare pool file: Open has no checkpoint log to reconstruct from, so the
	// block is unreconstructible and must be fenced off, not fatal.
	root, _ := inst.Pool.Root(0)
	big, _ := inst.Pool.Load(root)
	target := big + 150 // well past block 0
	if pmem.MediaBlockOf(target) == 0 {
		t.Fatalf("target %#x unexpectedly in block 0", target)
	}
	if err := inst.InjectMediaFault(MediaFault{Kind: MediaBlockPoison, Addr: target, Seed: 7}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := inst.SavePool(&buf); err != nil {
		t.Fatal(err)
	}

	inst2, err := Open("big", bigSource, Config{PoolWords: 4096, RecoverFn: "recover_"}, &buf)
	if err != nil {
		t.Fatalf("pool with unrepairable block failed to open: %v", err)
	}
	if inst2.LastScrub == nil || inst2.LastScrub.Quarantined < 1 {
		t.Fatalf("scrub report = %v, want >=1 quarantined", inst2.LastScrub)
	}
	qb := inst2.Pool.QuarantinedBlocks()
	if len(qb) == 0 {
		t.Fatal("no blocks quarantined")
	}
	// The pool serves: new allocations succeed and never land inside a
	// quarantined block.
	for n := 0; n < 8; n++ {
		p, trap := inst2.Call("grab")
		if trap != nil {
			t.Fatalf("alloc after quarantine: %v", trap)
		}
		for w := uint64(0); w < 40; w++ {
			if inst2.Pool.IsQuarantined(pmem.MediaBlockOf(uint64(p) + w)) {
				t.Fatalf("allocation %#x overlaps quarantined block", p)
			}
		}
	}
	if merr := inst2.Pool.VerifyMedia(); merr != nil {
		t.Fatalf("pool not resealed after quarantine: %v", merr)
	}
}

func TestMediaHeaderBlockPoisonOpensDegraded(t *testing.T) {
	inst := newDemo(t)
	for i := int64(0); i < 8; i++ {
		inst.Call("put", i, 100+i)
	}
	// Poison the header block (block 0) and save a FULL image: the checkpoint
	// log reconstructs the payload words it checkpointed, and what it cannot
	// prove in block 0 degrades the pool rather than quarantining the header.
	if err := inst.InjectMediaFault(MediaFault{Kind: MediaBlockPoison, Addr: pmem.Base, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := inst.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	inst2, err := OpenImage("demo", demoSource, Config{RecoverFn: "recover_"}, &buf)
	if err != nil {
		t.Fatalf("header-block poison failed the open instead of degrading: %v", err)
	}
	if inst2.LastScrub == nil {
		t.Fatal("no scrub report despite poisoned header block")
	}
	if !inst2.LastScrub.Healthy() {
		t.Fatalf("opened with unhealthy scrub report: %s", inst2.LastScrub)
	}
	if !inst2.LastScrub.Degraded || !inst2.Pool.MediaDegraded() {
		t.Fatalf("header-block loss did not degrade the pool: %s", inst2.LastScrub)
	}
}

// A probe can trap on media corruption inside a reversion trial: the medium
// failing under the re-execution, not the reverted data. The trial's fork
// scrubs and retries without charging an attempt, exactly as the live
// instance does, so the heal costs the same attempts at any worker count.
func TestMediaCorruptProbeHealsOnForks(t *testing.T) {
	var reports []*Report
	for _, workers := range []int{1, 4} {
		cfg := Config{RecoverFn: "recover_"}
		cfg.Reactor.Workers = workers
		inst, err := New("demo", demoSource, cfg)
		if err != nil {
			t.Fatal(err)
		}
		inst.Call("init_")
		for i := int64(0); i < 8; i++ {
			inst.Call("put", i, 100+i)
		}
		inst.Call("corrupt", 999)
		_, trap := inst.Call("get", 0)
		inst.Observe(trap)
		inst.Restart()
		if _, trap = inst.Call("get", 0); trap == nil {
			t.Fatal("corrupt pointer did not survive restart")
		}
		inst.Observe(trap)

		// The medium flips a bit of the root block the first time each
		// instance — live or fork — re-executes.
		var mu sync.Mutex
		flipped := map[*Instance]bool{}
		probe := func(on *Instance) *Trap {
			if tp := on.Restart(); tp != nil {
				return tp
			}
			mu.Lock()
			first := !flipped[on]
			flipped[on] = true
			mu.Unlock()
			if first {
				root, _ := on.Pool.Root(0)
				if err := on.InjectMediaFault(MediaFault{Kind: MediaBitFlip, Addr: root + 1, Bits: 1 << 7}); err != nil {
					t.Error(err)
				}
			}
			_, tp := on.Call("get", 0)
			return tp
		}
		rep, err := inst.Mitigate(probe)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Recovered || rep.ScrubRepairs == 0 {
			t.Fatalf("workers=%d: %s, %d scrub repairs; want healed through scrub-then-retry", workers, rep, rep.ScrubRepairs)
		}
		reports = append(reports, rep)
	}
	if w1, w4 := reports[0], reports[1]; w1.Attempts != w4.Attempts || w1.ScrubRepairs != w4.ScrubRepairs {
		t.Fatalf("attempts %d / scrubs %d at workers=1, %d / %d at workers=4",
			w1.Attempts, w1.ScrubRepairs, w4.Attempts, w4.ScrubRepairs)
	}
}
