package checkpoint

import (
	"testing"
)

// A program that persists both a single field and the whole struct at the
// same base address must get independent version histories, so reverting
// the struct-wide entry restores the full span (paper Figure 5: entries
// carry address + size).
func TestDistinctSizesSameAddress(t *testing.T) {
	pool, log := newRig(3)
	root, _ := pool.Alloc(4)

	// Whole-struct persist: {count=0, ptr=111, len=16}.
	pool.Store(root, 0)
	pool.Store(root+1, 111)
	pool.Store(root+2, 16)
	pool.Persist(root, 3) // seq 1, entry (root, 3)

	// Field-only persist of count.
	pool.Store(root, 1)
	pool.Persist(root, 1) // seq 2, entry (root, 1)

	// Buggy whole-struct persist corrupting ptr.
	pool.Store(root+1, 2331)
	pool.Persist(root, 3) // seq 3, version 2 of entry (root, 3)

	if log.NumEntries() != 2 {
		t.Fatalf("entries = %d, want 2 (distinct sizes)", log.NumEntries())
	}

	// Reverting seq 3 must restore ptr=111 across the full 3-word span.
	if _, err := log.Revert(pool, 3); err != nil {
		t.Fatal(err)
	}
	ptr, _ := pool.Load(root + 1)
	if ptr != 111 {
		t.Fatalf("ptr after revert = %d, want 111", ptr)
	}
	ln, _ := pool.Load(root + 2)
	if ln != 16 {
		t.Fatalf("len after revert = %d, want 16", ln)
	}
}

func TestSeqsCoveringAcrossEntrySizes(t *testing.T) {
	pool, log := newRig(3)
	root, _ := pool.Alloc(4)
	pool.Store(root, 1)
	pool.Persist(root, 3) // seq 1 covers root..root+2
	pool.Store(root, 2)
	pool.Persist(root, 1) // seq 2 covers root only

	got := log.SeqsCovering([]uint64{root, root + 1})
	if len(got[root]) != 2 {
		t.Fatalf("SeqsCovering[root] = %v, want both entries", got[root])
	}
	if c := got[root+1]; len(c) != 1 || c[0] != 1 {
		t.Fatalf("SeqsCovering[root+1] = %v", c)
	}
}

func TestReallocLinksOldEntry(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(4)
	pool.Store(a, 5)
	pool.Persist(a, 1)
	pool.Free(a)
	b, _ := pool.Alloc(4) // allocator reuses the block
	if b != a {
		t.Skip("allocator did not reuse the address")
	}
	pool.Store(b, 9)
	pool.Store(b+1, 10)
	pool.Persist(b, 2) // new (addr, 2) entry at the reused address

	e := log.EntryBySeq(log.Seq())
	if e == nil {
		t.Fatal("no entry for latest seq")
	}
	if e.OldEntry == nil {
		t.Fatal("reallocated entry not linked to prior history via OldEntry")
	}
	if e.OldEntry.Addr != a {
		t.Fatalf("old entry addr = %#x, want %#x", e.OldEntry.Addr, a)
	}
}

func TestLiveVersionAccessor(t *testing.T) {
	pool, log := newRig(2)
	a, _ := pool.Alloc(1)
	pool.Store(a, 1)
	pool.Persist(a, 1)
	e := log.EntryAt(a)
	if v := e.LiveVersion(); v == nil || v.Data[0] != 1 {
		t.Fatalf("live = %+v", v)
	}
	// Reverting the oldest version kills the entry.
	log.Revert(pool, 1)
	if !e.Dead() || e.LiveVersion() != nil {
		t.Fatal("entry should be dead after reverting its only version")
	}
}
