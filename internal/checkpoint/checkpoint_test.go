package checkpoint

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"arthas/internal/obs"
	"arthas/internal/obs/obstest"
	"arthas/internal/pmem"
)

// newRig wires a fresh pool to a fresh log.
func newRig(maxVersions int) (*pmem.Pool, *Log) {
	pool := pmem.New(1 << 14)
	log := NewLog(maxVersions)
	pool.SetHooks(log.Hooks())
	return pool, log
}

func TestEntryCreatedOnPersist(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(4)
	pool.Store(a, 11)
	pool.Store(a+1, 22)
	pool.Persist(a, 2)

	e := log.EntryAt(a)
	if e == nil {
		t.Fatal("no entry for persisted range")
	}
	v := e.LiveVersion()
	if v == nil || len(v.Data) != 2 || v.Data[0] != 11 || v.Data[1] != 22 {
		t.Fatalf("live version = %+v", v)
	}
	if log.Seq() != 1 || log.TotalVersions() != 1 {
		t.Fatalf("seq=%d total=%d", log.Seq(), log.TotalVersions())
	}
}

func TestVersionHistory(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(1)
	for i := uint64(1); i <= 3; i++ {
		pool.Store(a, i*100)
		pool.Persist(a, 1)
	}
	e := log.EntryAt(a)
	if len(e.Versions) != 3 {
		t.Fatalf("versions = %d", len(e.Versions))
	}
	for i, v := range e.Versions {
		if v.Data[0] != uint64(i+1)*100 {
			t.Fatalf("version %d data = %v", i, v.Data)
		}
	}
}

func TestMaxVersionsCapDropsOldest(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(1)
	for i := uint64(1); i <= 5; i++ {
		pool.Store(a, i)
		pool.Persist(a, 1)
	}
	e := log.EntryAt(a)
	if len(e.Versions) != 3 {
		t.Fatalf("versions = %d, want cap 3", len(e.Versions))
	}
	if e.Versions[0].Data[0] != 3 {
		t.Fatalf("oldest retained = %d, want 3", e.Versions[0].Data[0])
	}
	// Dropped seqs are no longer addressable.
	if log.EntryBySeq(1) != nil || log.EntryBySeq(2) != nil {
		t.Fatal("dropped versions still indexed by seq")
	}
}

func TestRevertRestoresPreviousVersion(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(1)
	pool.Store(a, 10)
	pool.Persist(a, 1) // seq 1
	pool.Store(a, 20)
	pool.Persist(a, 1) // seq 2

	n, err := log.Revert(pool, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("discarded = %d", n)
	}
	v, _ := pool.Load(a)
	if v != 10 {
		t.Fatalf("after revert, value = %d, want 10", v)
	}
	// The reversion is durable.
	pool.Crash()
	v, _ = pool.Load(a)
	if v != 10 {
		t.Fatal("reversion not durable")
	}
}

func TestRevertOldestKillsEntry(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(2)
	pool.Store(a, 7)
	pool.Store(a+1, 8)
	pool.Persist(a, 2) // seq 1: the only recorded version
	n, err := log.Revert(pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("discarded = %d, want 1 (the entry dies)", n)
	}
	e := log.EntryAt(a)
	if !e.Dead() || e.LiveVersion() != nil {
		t.Fatal("entry should be dead after reverting its only version")
	}
	// No older covering entry exists, so the words are left untouched —
	// the log never captured their prior state.
	v0, _ := pool.Load(a)
	v1, _ := pool.Load(a + 1)
	if v0 != 7 || v1 != 8 {
		t.Fatalf("unowned words were rewritten: %d,%d", v0, v1)
	}
	// A second revert is a no-op.
	if n, _ := log.Revert(pool, 1); n != 0 {
		t.Fatalf("second revert discarded %d", n)
	}
}

func TestDeathTransfersOwnership(t *testing.T) {
	pool, log := newRig(3)
	root, _ := pool.Alloc(4)
	// Init-time whole-struct persist...
	pool.Store(root, 1)
	pool.Store(root+1, 2)
	pool.Persist(root, 4) // seq 1: (root, 4)
	// ...then a buggy per-field persist.
	pool.Store(root+1, 999)
	pool.Persist(root+1, 1) // seq 2: (root+1, 1), single version
	// Reverting the per-field entry below its only version transfers the
	// word back to the init entry, restoring 2.
	n, err := log.Revert(pool, 2)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	v, _ := pool.ReadDurable(root + 1)
	if v != 2 {
		t.Fatalf("root+1 = %d, want 2 (ownership fallback)", v)
	}
	// The untouched field keeps its value.
	v0, _ := pool.ReadDurable(root)
	if v0 != 1 {
		t.Fatalf("root+0 = %d", v0)
	}
}

func TestResyncRespectsOwnership(t *testing.T) {
	pool, log := newRig(3)
	tab, _ := pool.Alloc(8)
	// Init-time empty-table persist.
	pool.Persist(tab, 8) // seq 1: all zeros
	// Later per-slot persists hold the real heads.
	pool.Store(tab+3, 333)
	pool.Persist(tab+3, 1) // seq 2
	// Reverting seq 1 must NOT wipe slot 3: that word is owned by the
	// newer per-slot entry.
	if _, err := log.Revert(pool, 1); err != nil {
		t.Fatal(err)
	}
	v, _ := pool.ReadDurable(tab + 3)
	if v != 333 {
		t.Fatalf("slot 3 = %d, want 333 (stale overlapping resync fired)", v)
	}
}

func TestRevertIdempotentBelow(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(1)
	pool.Store(a, 1)
	pool.Persist(a, 1) // seq 1
	pool.Store(a, 2)
	pool.Persist(a, 1) // seq 2
	if n, _ := log.Revert(pool, 2); n != 1 {
		t.Fatalf("first revert discarded %d", n)
	}
	// Reverting seq 2 again is a no-op.
	if n, err := log.Revert(pool, 2); err != nil || n != 0 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	v, _ := pool.Load(a)
	if v != 1 {
		t.Fatalf("value = %d, want 1", v)
	}
	// Reverting the oldest version kills the entry (1 more discard); with
	// no older covering entry the word keeps its value.
	if n, err := log.Revert(pool, 1); err != nil || n != 1 {
		t.Fatalf("oldest revert n=%d err=%v", n, err)
	}
	if n, err := log.Revert(pool, 1); err != nil || n != 0 {
		t.Fatalf("post-death revert n=%d err=%v", n, err)
	}
}

func TestRevertUnknownSeq(t *testing.T) {
	pool, log := newRig(3)
	if _, err := log.Revert(pool, 42); err == nil {
		t.Fatal("revert of unknown seq succeeded")
	}
}

func TestSeqsCovering(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(4)
	pool.Store(a, 1)
	pool.Store(a+1, 2)
	pool.Persist(a, 2) // seq 1 covers a, a+1
	pool.Store(a+3, 3)
	pool.Persist(a+3, 1) // seq 2 covers a+3

	got := log.SeqsCovering([]uint64{a + 3, a + 1, a + 2, a + 1})
	want := map[uint64][]uint64{a + 1: {1}, a + 3: {2}} // a+2: none
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SeqsCovering = %v, want %v", got, want)
	}
	if got := log.SeqsCovering(nil); len(got) != 0 {
		t.Fatalf("SeqsCovering(nil) = %v, want empty", got)
	}
}

// seqsCoveringOracle is the per-address scan the batched SeqsCovering
// replaced: every version of every entry covering addr, ascending.
func seqsCoveringOracle(l *Log, addr uint64) []uint64 {
	var out []uint64
	for _, e := range l.Entries() {
		if addr < e.Addr || addr >= e.Addr+uint64(e.Words) {
			continue
		}
		for _, v := range e.Versions {
			out = append(out, v.Seq)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// One pass for a batch of addresses answers exactly what one scan per
// address did, over overlapping ranges of several sizes whose oldest
// versions have been dropped.
func TestSeqsCoveringMatchesPerAddressScan(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(32)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		off, words := rng.Intn(28), 1+rng.Intn(4)
		pool.Store(a+uint64(off), uint64(i))
		pool.Persist(a+uint64(off), words)
	}
	var addrs []uint64
	for w := uint64(0); w < 40; w++ {
		addrs = append(addrs, a-4+w)
	}
	got := log.SeqsCovering(addrs)
	for _, addr := range addrs {
		if want := seqsCoveringOracle(log, addr); !reflect.DeepEqual(got[addr], want) {
			t.Fatalf("SeqsCovering[%#x] = %v, want %v", addr, got[addr], want)
		}
	}
}

func TestTransactionGrouping(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(4)
	pool.Store(a, 1)
	pool.Store(a+2, 2)
	pool.PersistTx([]pmem.Range{{Addr: a, Words: 1}, {Addr: a + 2, Words: 1}})

	seqs := log.AllSeqs()
	if len(seqs) != 2 {
		t.Fatalf("seqs = %v", seqs)
	}
	tx := log.TxOf(seqs[0])
	if tx == 0 || log.TxOf(seqs[1]) != tx {
		t.Fatalf("tx ids = %d, %d", tx, log.TxOf(seqs[1]))
	}
	members := log.SeqsInTx(tx)
	if len(members) != 2 {
		t.Fatalf("tx members = %v", members)
	}
}

func TestRevertSeqAndTxRevertsSiblings(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(4)
	// Baseline values (non-tx).
	pool.Store(a, 1)
	pool.Persist(a, 1)
	pool.Store(a+2, 10)
	pool.Persist(a+2, 1)
	// Transactional update of both.
	pool.Store(a, 2)
	pool.Store(a+2, 20)
	pool.PersistTx([]pmem.Range{{Addr: a, Words: 1}, {Addr: a + 2, Words: 1}})

	// Reverting either tx seq must revert both words.
	seqs := log.AllSeqs()
	txSeq := seqs[len(seqs)-1]
	if _, err := log.RevertSeqAndTx(pool, txSeq); err != nil {
		t.Fatal(err)
	}
	v0, _ := pool.Load(a)
	v2, _ := pool.Load(a + 2)
	if v0 != 1 || v2 != 10 {
		t.Fatalf("after tx revert: %d, %d, want 1, 10", v0, v2)
	}
}

func TestRevertAllAfter(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(4)
	// Two generations per word: seqs 1..4 old, 5..8 new.
	for gen := uint64(0); gen < 2; gen++ {
		for i := uint64(0); i < 4; i++ {
			pool.Store(a+i, gen*1000+100+i)
			pool.Persist(a+i, 1)
		}
	}
	n, err := log.RevertAllAfter(pool, 7) // newest versions of a+2, a+3
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("discarded = %d, want 2", n)
	}
	v2, _ := pool.Load(a + 2)
	v3, _ := pool.Load(a + 3)
	v1, _ := pool.Load(a + 1)
	if v2 != 102 || v3 != 103 {
		t.Fatalf("seqs >= 7 not reverted to old generation: %d %d", v2, v3)
	}
	if v1 != 1101 {
		t.Fatalf("seq 6 wrongly reverted: %d", v1)
	}
}

func TestAllocTracking(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(4)
	b, _ := pool.Alloc(4)
	pool.Free(a)
	live := log.LiveAllocs()
	if len(live) != 1 || live[0].Addr != b {
		t.Fatalf("live allocs = %+v", live)
	}
}

func TestAllocatorMetadataNotCheckpointed(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Zalloc(8)
	pool.Free(a)
	pool.Zalloc(4)
	if log.NumEntries() != 0 {
		t.Fatalf("allocator activity created %d checkpoint entries", log.NumEntries())
	}
}

func TestRevertedVersionsAccounting(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(1)
	for i := uint64(1); i <= 3; i++ {
		pool.Store(a, i)
		pool.Persist(a, 1)
	}
	log.Revert(pool, 3)
	if log.RevertedVersions() != 1 {
		t.Fatalf("reverted = %d", log.RevertedVersions())
	}
	log.Revert(pool, 2)
	if log.RevertedVersions() != 2 {
		t.Fatalf("reverted = %d", log.RevertedVersions())
	}
}

// Property: after any sequence of persisted writes followed by reverting the
// newest seq of an address, the pool durably holds the previous value.
func TestPropRevertRestoresPrior(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) < 2 {
			return true
		}
		if len(vals) > 8 {
			vals = vals[:8]
		}
		pool, log := newRig(len(vals) + 1)
		a, err := pool.Alloc(1)
		if err != nil {
			return true
		}
		var seqs []uint64
		for _, v := range vals {
			pool.Store(a, v)
			pool.Persist(a, 1)
			seqs = append(seqs, log.Seq())
		}
		// Revert the newest; expect the second-newest value.
		if _, err := log.Revert(pool, seqs[len(seqs)-1]); err != nil {
			return false
		}
		got, _ := pool.ReadDurable(a)
		return got == vals[len(vals)-2]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: sequence numbers are strictly increasing and unique across all
// entries.
func TestPropSeqMonotone(t *testing.T) {
	f := func(addrs []uint8, vals []uint64) bool {
		pool, log := newRig(4)
		base, err := pool.Alloc(300)
		if err != nil {
			return true
		}
		n := len(addrs)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			a := base + uint64(addrs[i])
			pool.Store(a, vals[i])
			pool.Persist(a, 1)
		}
		seqs := log.AllSeqs()
		seen := map[uint64]bool{}
		last := uint64(0)
		for _, s := range seqs {
			if seen[s] || s <= last && last != 0 {
				return false
			}
			seen[s] = true
			last = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// onPersist sends the sink its two histogram samples and nothing else; the
// version counters and log-size gauges come from FlushObs, exact and current.
func TestFlushObsPublishesTallies(t *testing.T) {
	rec := obs.NewRecorder()
	calls := &obstest.CallCounter{Inner: rec}
	pool, log := newRig(3)
	a, _ := pool.Alloc(8)
	pool.Store(a, 1)
	pool.Persist(a, 1) // before any sink: nobody hears it
	log.SetSink(calls)
	for i := uint64(0); i < 5; i++ {
		pool.Store(a+i, i)
		pool.Persist(a+i, 2)
	}
	if n := calls.Calls(); n != 10 {
		t.Fatalf("5 persists made %d sink calls, want the 10 histogram samples", n)
	}
	if rec.CounterValue("ckpt.versions") != 0 {
		t.Fatal("ckpt.versions published before the flush")
	}
	log.FlushObs()
	if got := rec.CounterValue("ckpt.versions"); got != 5 {
		t.Errorf("ckpt.versions = %d, want 5", got)
	}
	if got := rec.CounterValue("ckpt.versioned_words"); got != 10 {
		t.Errorf("ckpt.versioned_words = %d, want 10", got)
	}
	if got := rec.GaugeValue("ckpt.total_versions"); got != int64(log.TotalVersions()) || got != 6 {
		t.Errorf("ckpt.total_versions = %d, log has %d", got, log.TotalVersions())
	}
	if got := rec.GaugeValue("ckpt.entries"); got != int64(len(log.Entries())) {
		t.Errorf("ckpt.entries = %d, log has %d", got, len(log.Entries()))
	}
	if h := rec.Histogram("ckpt.hook.ns"); h == nil || h.Count != 5 {
		t.Errorf("ckpt.hook.ns = %+v, want 5 samples", h)
	}
	before := calls.Calls()
	log.FlushObs()
	if calls.Calls() != before {
		t.Fatal("idle flush made sink calls")
	}
}

// What the winning fork did is published as the adopting log's own: the
// counters keep equal to the log's tallies, which now include it.
func TestAdoptPublishesForkActivity(t *testing.T) {
	rec := obs.NewRecorder()
	pool, log := newRig(3)
	log.SetSink(rec)
	a, _ := pool.Alloc(4)
	pool.Store(a, 1)
	pool.Persist(a, 1)

	fp, fl := pool.Fork(), log.Fork()
	fp.SetHooks(fl.Hooks())
	fp.Store(a, 2)
	fp.Persist(a, 1)
	fp.Persist(a, 1)
	if _, err := fl.Revert(fp, fl.Seq()); err != nil {
		t.Fatal(err)
	}
	log.Adopt(fl)
	if err := fp.Promote(); err != nil {
		t.Fatal(err)
	}
	pool.Store(a, 3)
	pool.Persist(a, 1)
	log.FlushObs()
	if got := rec.CounterValue("ckpt.versions"); got != 4 || log.TotalVersions() != 4 {
		t.Fatalf("ckpt.versions = %d, log has %d, want 4", got, log.TotalVersions())
	}
	if got := rec.GaugeValue("ckpt.total_versions"); got != 4 {
		t.Fatalf("ckpt.total_versions = %d, want 4", got)
	}
	if got := rec.CounterValue("ckpt.revert"); got != 1 {
		t.Fatalf("ckpt.revert = %d, want the fork's 1", got)
	}
}
