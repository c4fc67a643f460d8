package pmem

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPoolHeader(t *testing.T) {
	p := New(1024)
	if p.Words() != 1024 {
		t.Fatalf("Words = %d, want 1024", p.Words())
	}
	if !p.CheckIntegrity().OK() {
		t.Fatalf("fresh pool fails integrity: %v", p.CheckIntegrity())
	}
	if p.LiveWords() != 0 {
		t.Fatalf("fresh pool LiveWords = %d", p.LiveWords())
	}
}

func TestNewPoolMinimumSize(t *testing.T) {
	p := New(1)
	if p.Words() < 64 {
		t.Fatalf("pool smaller than minimum: %d", p.Words())
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	p := New(256)
	a, err := p.Alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Store(a+2, 0xdead); err != nil {
		t.Fatal(err)
	}
	v, err := p.Load(a + 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdead {
		t.Fatalf("Load = %#x, want 0xdead", v)
	}
}

func TestOutOfBounds(t *testing.T) {
	p := New(256)
	cases := []uint64{0, 1, Base - 1, Base + 256, Base + 1000000}
	for _, addr := range cases {
		if _, err := p.Load(addr); !errors.Is(err, ErrOutOfBounds) {
			t.Errorf("Load(%#x) err = %v, want ErrOutOfBounds", addr, err)
		}
		if err := p.Store(addr, 1); !errors.Is(err, ErrOutOfBounds) {
			t.Errorf("Store(%#x) err = %v, want ErrOutOfBounds", addr, err)
		}
	}
}

func TestStoreIsVolatileUntilPersist(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(2)
	if err := p.Store(a, 42); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	v, _ := p.Load(a)
	if v == 42 {
		t.Fatal("unpersisted store survived crash")
	}
}

func TestPersistSurvivesCrash(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(2)
	p.Store(a, 42)
	p.Store(a+1, 43)
	if err := p.Persist(a, 2); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	v0, _ := p.Load(a)
	v1, _ := p.Load(a + 1)
	if v0 != 42 || v1 != 43 {
		t.Fatalf("persisted stores lost: %d, %d", v0, v1)
	}
}

func TestPartialPersist(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(3)
	p.Store(a, 1)
	p.Store(a+1, 2)
	p.Store(a+2, 3)
	p.Persist(a, 2) // only first two words
	p.Crash()
	v2, _ := p.Load(a + 2)
	if v2 == 3 {
		t.Fatal("word outside persist range survived crash")
	}
	v0, _ := p.Load(a)
	if v0 != 1 {
		t.Fatal("persisted word lost")
	}
}

func TestDirtyTracking(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(4)
	p.Store(a, 1)
	p.Store(a+1, 2)
	if got := p.DirtyWords(); got != 2 {
		t.Fatalf("DirtyWords = %d, want 2", got)
	}
	p.Persist(a, 1)
	if got := p.DirtyWords(); got != 1 {
		t.Fatalf("DirtyWords after partial persist = %d, want 1", got)
	}
	p.Crash()
	if got := p.DirtyWords(); got != 0 {
		t.Fatalf("DirtyWords after crash = %d, want 0", got)
	}
}

func TestRootSlots(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(2)
	if err := p.SetRoot(0, a); err != nil {
		t.Fatal(err)
	}
	p.Crash() // roots are durable immediately
	got, err := p.Root(0)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("Root = %#x, want %#x", got, a)
	}
	if err := p.SetRoot(-1, a); !errors.Is(err, ErrBadRoot) {
		t.Fatalf("SetRoot(-1) err = %v", err)
	}
	if _, err := p.Root(NumRoots); !errors.Is(err, ErrBadRoot) {
		t.Fatalf("Root(NumRoots) err = %v", err)
	}
}

func TestAllocDistinct(t *testing.T) {
	p := New(4096)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		a, err := p.Alloc(3)
		if err != nil {
			t.Fatal(err)
		}
		if seen[a] {
			t.Fatalf("Alloc returned duplicate address %#x", a)
		}
		seen[a] = true
	}
}

func TestZallocZeroes(t *testing.T) {
	p := New(1024)
	a, _ := p.Alloc(8)
	for w := uint64(0); w < 8; w++ {
		p.Store(a+w, ^uint64(0))
	}
	p.Persist(a, 8)
	p.Free(a)
	b, err := p.Zalloc(8)
	if err != nil {
		t.Fatal(err)
	}
	for w := uint64(0); w < 8; w++ {
		v, _ := p.Load(b + w)
		if v != 0 {
			t.Fatalf("Zalloc word %d = %#x, want 0", w, v)
		}
	}
	// And the zeroing is durable.
	p.Crash()
	for w := uint64(0); w < 8; w++ {
		v, _ := p.Load(b + w)
		if v != 0 {
			t.Fatalf("Zalloc word %d not durable-zero after crash", w)
		}
	}
}

func TestFreeAndReuse(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(10)
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	b, err := p.Alloc(10)
	if err != nil {
		t.Fatal(err)
	}
	if b != a {
		t.Fatalf("freed block not reused: got %#x, want %#x", b, a)
	}
}

func TestFreeSplitting(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(20)
	p.Free(a)
	b, _ := p.Alloc(5) // should split the 20-word block
	c, err := p.Alloc(5)
	if err != nil {
		t.Fatal(err)
	}
	if b == c {
		t.Fatal("two live allocations share an address")
	}
	if !p.CheckIntegrity().OK() {
		t.Fatalf("integrity after split: %v", p.CheckIntegrity())
	}
}

func TestDoubleFree(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(4)
	if err := p.Free(a); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(a); !errors.Is(err, ErrBadFree) {
		t.Fatalf("double free err = %v, want ErrBadFree", err)
	}
}

func TestFreeBogusAddress(t *testing.T) {
	p := New(256)
	if err := p.Free(Base + 2); !errors.Is(err, ErrBadFree) {
		t.Fatalf("free header-region addr err = %v", err)
	}
	if err := p.Free(123); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("free non-pool addr err = %v", err)
	}
}

func TestOutOfSpace(t *testing.T) {
	p := New(128)
	var lastErr error
	for i := 0; i < 1000; i++ {
		_, lastErr = p.Alloc(8)
		if lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrOutOfSpace) {
		t.Fatalf("expected ErrOutOfSpace, got %v", lastErr)
	}
}

// A size larger than the pool is refused before the allocator's arithmetic
// can overflow on it, and leaves the allocator as it was.
func TestHugeAllocOutOfSpace(t *testing.T) {
	p := New(1024)
	for _, words := range []int{math.MaxInt, math.MaxInt - 1, 1025} {
		if _, err := p.Zalloc(words); !errors.Is(err, ErrOutOfSpace) {
			t.Fatalf("Zalloc(%d) err = %v, want ErrOutOfSpace", words, err)
		}
	}
	if _, err := p.Zalloc(1); err != nil {
		t.Fatalf("Zalloc(1) after a refused size: %v", err)
	}
}

func TestLiveWordsAccounting(t *testing.T) {
	p := New(1024)
	a, _ := p.Alloc(10)
	b, _ := p.Alloc(20)
	if got := p.LiveWords(); got != 30 {
		t.Fatalf("LiveWords = %d, want 30", got)
	}
	p.Free(a)
	if got := p.LiveWords(); got != 20 {
		t.Fatalf("LiveWords after free = %d, want 20", got)
	}
	p.Free(b)
	if got := p.LiveWords(); got != 0 {
		t.Fatalf("LiveWords after all frees = %d, want 0", got)
	}
}

func TestLiveBlocksEnumeration(t *testing.T) {
	p := New(1024)
	a, _ := p.Alloc(3)
	b, _ := p.Alloc(4)
	c, _ := p.Alloc(5)
	p.Free(b)
	blocks := p.LiveBlocks()
	if len(blocks) != 2 || blocks[0] != a || blocks[1] != c {
		t.Fatalf("LiveBlocks = %#v, want [%#x %#x]", blocks, a, c)
	}
}

func TestAllocatorSurvivesCrash(t *testing.T) {
	p := New(1024)
	a, _ := p.Alloc(10)
	p.Crash()
	if !p.IsAllocated(a) {
		t.Fatal("allocation metadata lost in crash")
	}
	b, err := p.Alloc(5)
	if err != nil {
		t.Fatal(err)
	}
	aEnd := a + 10
	if b >= a && b < aEnd {
		t.Fatal("post-crash allocation overlaps pre-crash block")
	}
	if !p.CheckIntegrity().OK() {
		t.Fatalf("integrity after crash: %v", p.CheckIntegrity())
	}
}

func TestBlockSize(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(7)
	n, err := p.BlockSize(a)
	if err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("BlockSize = %d, want 7", n)
	}
	p.Free(a)
	if _, err := p.BlockSize(a); err == nil {
		t.Fatal("BlockSize of freed block succeeded")
	}
}

func TestPersistHookFires(t *testing.T) {
	p := New(256)
	var gotAddr uint64
	var gotData []uint64
	p.SetHooks(Hooks{OnPersist: func(addr uint64, data []uint64) {
		gotAddr = addr
		gotData = append([]uint64(nil), data...)
	}})
	a, _ := p.Alloc(2)
	p.Store(a, 7)
	p.Store(a+1, 8)
	p.Persist(a, 2)
	if gotAddr != a {
		t.Fatalf("hook addr = %#x, want %#x", gotAddr, a)
	}
	if len(gotData) != 2 || gotData[0] != 7 || gotData[1] != 8 {
		t.Fatalf("hook data = %v", gotData)
	}
}

func TestAllocatorMetaDoesNotFireHooks(t *testing.T) {
	p := New(256)
	calls := 0
	var lastAddr uint64
	p.SetHooks(Hooks{OnPersist: func(addr uint64, _ []uint64) { calls++; lastAddr = addr }})
	a, _ := p.Zalloc(4)
	p.Free(a)
	if calls != 0 {
		t.Fatalf("allocator metadata fired %d persist hooks", calls)
	}
	// Root slots are the exception: they hold program data (the durable
	// entry points), so SetRoot checkpoints exactly its one slot.
	p.SetRoot(0, a)
	if calls != 1 || lastAddr != Base+uint64(hdrRootBase) {
		t.Fatalf("SetRoot fired %d hooks (last addr %#x), want 1 at root slot", calls, lastAddr)
	}
}

func TestTxHooksBracket(t *testing.T) {
	p := New(256)
	var events []string
	p.SetHooks(Hooks{
		OnPersist:  func(addr uint64, data []uint64) { events = append(events, "persist") },
		OnTxBegin:  func() { events = append(events, "begin") },
		OnTxCommit: func() { events = append(events, "commit") },
	})
	a, _ := p.Alloc(4)
	p.Store(a, 1)
	p.Store(a+2, 2)
	err := p.PersistTx([]Range{{a, 1}, {a + 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"begin", "persist", "persist", "commit"}
	if len(events) != len(want) {
		t.Fatalf("events = %v, want %v", events, want)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events = %v, want %v", events, want)
		}
	}
}

func TestPersistTxDurability(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(4)
	p.Store(a, 11)
	p.Store(a+3, 22)
	if err := p.PersistTx([]Range{{a, 1}, {a + 3, 1}}); err != nil {
		t.Fatal(err)
	}
	p.Crash()
	v0, _ := p.Load(a)
	v3, _ := p.Load(a + 3)
	if v0 != 11 || v3 != 22 {
		t.Fatalf("tx-committed values lost: %d %d", v0, v3)
	}
}

func TestPersistTxBadRange(t *testing.T) {
	p := New(256)
	if err := p.PersistTx([]Range{{Base + 1000, 4}}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("PersistTx OOB err = %v", err)
	}
}

func TestInjectBitFlip(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(1)
	p.Store(a, 0)
	p.Persist(a, 1)
	p.InjectBitFlip(a, 3, true)
	v, _ := p.Load(a)
	if v != 8 {
		t.Fatalf("after flip, Load = %d, want 8", v)
	}
	p.Crash()
	v, _ = p.Load(a)
	if v != 8 {
		t.Fatal("durable bit flip did not survive crash")
	}
}

func TestTransientBitFlip(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(1)
	p.Store(a, 0)
	p.Persist(a, 1)
	p.InjectBitFlip(a, 3, false)
	p.Crash()
	v, _ := p.Load(a)
	if v != 0 {
		t.Fatal("transient bit flip survived crash")
	}
}

func TestWriteDurable(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(1)
	p.Store(a, 5)
	p.Persist(a, 1)
	if err := p.WriteDurable(a, 99); err != nil {
		t.Fatal(err)
	}
	v, _ := p.Load(a)
	if v != 99 {
		t.Fatalf("current image after WriteDurable = %d", v)
	}
	p.Crash()
	v, _ = p.Load(a)
	if v != 99 {
		t.Fatalf("durable image after WriteDurable+crash = %d", v)
	}
	d, _ := p.ReadDurable(a)
	if d != 99 {
		t.Fatalf("ReadDurable = %d", d)
	}
}

func TestSnapshotRestore(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(2)
	p.Store(a, 1)
	p.Persist(a, 1)
	snap := p.TakeSnapshot(7)
	if snap.Seq != 7 {
		t.Fatalf("snap.Seq = %d", snap.Seq)
	}
	p.Store(a, 2)
	p.Persist(a, 1)
	if p.DiffWords(snap) != 1 {
		t.Fatalf("DiffWords = %d, want 1", p.DiffWords(snap))
	}
	if err := p.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	v, _ := p.Load(a)
	if v != 1 {
		t.Fatalf("after restore, Load = %d, want 1", v)
	}
}

func TestSnapshotExcludesDirty(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(1)
	p.Store(a, 77) // not persisted
	snap := p.TakeSnapshot(0)
	idx := int(a - Base)
	if snap.Durable[idx] == 77 {
		t.Fatal("snapshot captured an unpersisted store")
	}
}

func TestSnapshotSizeMismatch(t *testing.T) {
	p := New(256)
	q := New(512)
	if err := q.RestoreSnapshot(p.TakeSnapshot(0)); err == nil {
		t.Fatal("restoring mismatched snapshot succeeded")
	}
}

func TestIntegrityDetectsCorruptHeader(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(4)
	// Smash the block header durably (size 0).
	p.WriteDurable(a-1, 0)
	if p.CheckIntegrity().OK() {
		t.Fatal("integrity check missed corrupt header")
	}
}

func TestIntegrityDetectsFreeListCycle(t *testing.T) {
	p := New(512)
	a, _ := p.Alloc(4)
	b, _ := p.Alloc(4)
	p.Free(a)
	p.Free(b)
	// Point b's next at itself: cycle.
	p.WriteDurable(b, b-Base)
	if p.CheckIntegrity().OK() {
		t.Fatal("integrity check missed free list cycle")
	}
}

func TestStatsCounters(t *testing.T) {
	p := New(256)
	a, _ := p.Alloc(2)
	p.Store(a, 1)
	p.Load(a)
	p.Persist(a, 2)
	p.Free(a)
	p.Crash()
	s := p.Stats()
	if s.Allocs != 1 || s.Frees != 1 || s.Stores != 1 || s.Loads != 1 || s.Persists != 1 || s.Crashes != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.PersistedWords.Words != 2 {
		t.Fatalf("persisted words = %d", s.PersistedWords.Words)
	}
}

func TestRangeOverlaps(t *testing.T) {
	cases := []struct {
		a, b Range
		want bool
	}{
		{Range{Base, 4}, Range{Base + 4, 4}, false},
		{Range{Base, 4}, Range{Base + 3, 4}, true},
		{Range{Base + 3, 4}, Range{Base, 4}, true},
		{Range{Base, 4}, Range{Base + 1, 1}, true},
		{Range{Base, 0}, Range{Base, 4}, false},
	}
	for _, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("%v overlaps %v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// --- Property-based tests ---

// Property: any persisted store survives a crash; any unpersisted store does
// not (assuming distinct addresses and a fresh pool per trial).
func TestPropPersistSurvival(t *testing.T) {
	f := func(vals []uint64, persistMask uint8) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 8 {
			vals = vals[:8]
		}
		p := New(256)
		a, err := p.Alloc(len(vals))
		if err != nil {
			return true
		}
		for i, v := range vals {
			p.Store(a+uint64(i), v)
			if persistMask&(1<<uint(i)) != 0 {
				p.Persist(a+uint64(i), 1)
			}
		}
		p.Crash()
		for i, v := range vals {
			got, _ := p.Load(a + uint64(i))
			persisted := persistMask&(1<<uint(i)) != 0
			if persisted && got != v {
				return false
			}
			if !persisted && got != 0 && got == v && v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: live allocations never overlap each other, regardless of the
// interleaving of allocs and frees.
func TestPropAllocNonOverlap(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := New(4096)
		type block struct {
			addr uint64
			size int
		}
		var live []block
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 {
				// free a random live block
				i := rng.Intn(len(live))
				if p.Free(live[i].addr) != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := 1 + int(op%7)
			a, err := p.Alloc(size)
			if err != nil {
				continue // pool exhausted is fine
			}
			na := Range{a, size}
			for _, b := range live {
				if na.Overlaps(Range{b.addr, b.size}) {
					return false
				}
			}
			live = append(live, block{a, size})
		}
		return p.CheckIntegrity().OK()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot + restore is an identity on the durable image.
func TestPropSnapshotRoundTrip(t *testing.T) {
	f := func(writes []uint16, vals []uint64) bool {
		p := New(1024)
		a, err := p.Alloc(512)
		if err != nil {
			return true
		}
		n := len(writes)
		if len(vals) < n {
			n = len(vals)
		}
		for i := 0; i < n; i++ {
			addr := a + uint64(writes[i]%512)
			p.Store(addr, vals[i])
			p.Persist(addr, 1)
		}
		snap := p.TakeSnapshot(0)
		// Scribble.
		for i := 0; i < n; i++ {
			addr := a + uint64(writes[i]%512)
			p.Store(addr, ^vals[i])
			p.Persist(addr, 1)
		}
		if err := p.RestoreSnapshot(snap); err != nil {
			return false
		}
		return p.DiffWords(snap) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: crash is idempotent — two crashes in a row observe the same image.
func TestPropCrashIdempotent(t *testing.T) {
	f := func(vals []uint64) bool {
		p := New(512)
		a, err := p.Alloc(64)
		if err != nil {
			return true
		}
		for i, v := range vals {
			if i >= 64 {
				break
			}
			p.Store(a+uint64(i), v)
			if i%2 == 0 {
				p.Persist(a+uint64(i), 1)
			}
		}
		p.Crash()
		img1 := p.TakeSnapshot(0)
		p.Crash()
		return p.DiffWords(img1) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
