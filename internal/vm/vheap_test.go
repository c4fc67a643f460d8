package vm

import (
	"math"
	"strings"
	"testing"
)

// The volatile heap is materialised on first touch: an in-bound word nobody
// wrote reads 0 and costs nothing.
func TestVHeapUntouchedWordReadsZeroWithoutAllocating(t *testing.T) {
	h := newVHeap()
	for _, addr := range []uint64{VBase, VBase + 4096, VBase + vheapWords - 1} {
		var v int64
		var ok bool
		if allocs := testing.AllocsPerRun(100, func() { v, ok = h.load(addr) }); allocs != 0 {
			t.Fatalf("load(%#x) allocates %.0f times", addr, allocs)
		}
		if !ok || v != 0 {
			t.Fatalf("load(%#x) = %d, %v; want 0, true", addr, v, ok)
		}
	}
	if len(h.mem) != 0 {
		t.Fatalf("loads materialised %d words", len(h.mem))
	}

	m := machine(t, `fn f() { var p = 1048576 + 700000; return p[0] + p[1]; }`)
	if got := mustCall(t, m, "f"); got != 0 {
		t.Fatalf("untouched heap word reads %d", got)
	}
	if len(m.vheap.mem) != 0 {
		t.Fatalf("a program that only loads materialised %d heap words", len(m.vheap.mem))
	}
}

// The bound is the same 1 Mi words it always was: one word past it traps as
// a segfault, while the last word in bound is an ordinary store.
func TestVHeapBoundTrapsSegfault(t *testing.T) {
	m := machine(t, `
fn last() { var p = 1048576 + 1048575; p[0] = 7; return p[0]; }
fn past() { var p = 1048576 + 1048576; p[0] = 7; return 0; }`)
	if got := mustCall(t, m, "last"); got != 7 {
		t.Fatalf("last in-bound word = %d, want 7", got)
	}
	_, trap := m.Call("past")
	if trap == nil || trap.Kind != TrapSegfault {
		t.Fatalf("store at VBase+1<<20 = %v, want a segfault", trap)
	}
	if want := "store to invalid address 0x200000"; !strings.Contains(trap.Msg, want) {
		t.Fatalf("trap message %q, want it to contain %q", trap.Msg, want)
	}
}

// A block that goes back on the free list and is handed out again comes
// back zeroed, whether the allocation splits it or takes it whole.
func TestVHeapReusedBlockZeroed(t *testing.T) {
	h := newVHeap()
	a := h.alloc(8)
	b := h.alloc(2) // keeps a's block off the bump frontier
	for w := uint64(0); w < 8; w++ {
		h.store(a+w, -1)
	}
	h.store(b, -1)
	if err := h.free(a); err != nil {
		t.Fatal(err)
	}
	c := h.alloc(3) // splits a's block
	if c != a {
		t.Fatalf("first fit returned %#x, want %#x", c, a)
	}
	d := h.alloc(4) // the split-off rest
	for _, blk := range []struct{ addr, words uint64 }{{c, 3}, {d, 4}} {
		for w := uint64(0); w < blk.words; w++ {
			if v, _ := h.load(blk.addr + w); v != 0 {
				t.Fatalf("reused word %#x = %d, want 0", blk.addr+w, v)
			}
		}
	}
}

// An allocation size larger than the space traps instead of overflowing
// the allocator's arithmetic, and the next allocation still succeeds.
func TestHugeAllocationsTrap(t *testing.T) {
	for _, tc := range []struct {
		alloc string
		kind  TrapKind
	}{
		{"valloc", TrapOOM},
		{"pmalloc", TrapPMOutOfSpace},
	} {
		m := machine(t, strings.ReplaceAll(`
fn big() { var p = ALLOC(9223372036854775807); var q = ALLOC(1); return q; }
fn small() { var q = ALLOC(1); q[0] = 5; return q[0]; }`, "ALLOC", tc.alloc))
		_, trap := m.Call("big")
		if trap == nil || trap.Kind != tc.kind {
			t.Fatalf("%s(%d) = %v, want a %s trap", tc.alloc, int64(math.MaxInt64), trap, tc.kind)
		}
		if got := mustCall(t, m, "small"); got != 5 {
			t.Fatalf("%s(1) after the trap = %d, want 5", tc.alloc, got)
		}
	}
}
