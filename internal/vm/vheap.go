package vm

import "fmt"

// VBase is the lowest valid volatile heap address. Addresses in [0, VBase)
// form the "null page": dereferencing them traps, so nil-pointer bugs in PML
// programs fail the same way C programs segfault.
const VBase uint64 = 1 << 20

// vheapWords bounds the volatile heap: its addresses are [VBase,
// VBase+vheapWords). An access outside that range traps; valloc past it
// traps out of memory.
const vheapWords = 1 << 20

// vheap is the volatile (DRAM) heap: the same block layout as the persistent
// allocator but with no durability — it vanishes when the Machine is dropped,
// which is exactly how restart clears soft state.
//
// Like a process heap the OS maps on demand, it is materialised on first
// touch: mem holds words [0, len(mem)) of the heap and grows when a store
// reaches past it, while a load of any in-bound word beyond it reads 0. A
// machine that never touches the heap allocates nothing for it.
type vheap struct {
	mem      []int64
	heapNext int
	freeHead int // payload index of first free block, 0 = none
	live     int
}

const (
	vBlockAllocated = int64(1) << 62
	vBlockSizeMask  = int64(1)<<32 - 1
	// vheapMinGrow is the smallest materialised heap (one 4 KiB page).
	vheapMinGrow = 512
)

func newVHeap() *vheap {
	return &vheap{heapNext: 1}
}

func (h *vheap) contains(addr uint64) bool {
	return addr >= VBase && addr < VBase+vheapWords
}

// at reads heap word i (0 when it was never materialised).
func (h *vheap) at(i int) int64 {
	if i < len(h.mem) {
		return h.mem[i]
	}
	return 0
}

// set writes heap word i, materialising the heap up to it first.
func (h *vheap) set(i int, v int64) {
	if i >= len(h.mem) {
		h.grow(i)
	}
	h.mem[i] = v
}

// grow materialises the heap through word i (i < vheapWords), at least
// doubling it so that a heap grown word by word copies O(words) in total.
func (h *vheap) grow(i int) {
	n := max(2*len(h.mem), i+1, vheapMinGrow)
	n = min(n, vheapWords)
	mem := make([]int64, n)
	copy(mem, h.mem)
	h.mem = mem
}

func (h *vheap) load(addr uint64) (int64, bool) {
	if !h.contains(addr) {
		return 0, false
	}
	return h.at(int(addr - VBase)), true
}

func (h *vheap) store(addr uint64, v int64) bool {
	if !h.contains(addr) {
		return false
	}
	h.set(int(addr-VBase), v)
	return true
}

// alloc returns a zeroed payload of n words, or 0 on exhaustion.
func (h *vheap) alloc(n int) uint64 {
	if n <= 0 {
		n = 1
	}
	// First fit over the free list.
	prev := -1
	cur := h.freeHead
	for cur != 0 {
		hdr := h.at(cur - 1)
		size := int(hdr & vBlockSizeMask)
		if size >= n {
			next := int(h.at(cur))
			if size >= n+2 {
				restIdx := cur + n + 1
				h.set(restIdx-1, int64(size-n-1))
				h.set(restIdx, int64(next))
				next = restIdx
				h.set(cur-1, int64(n))
			}
			if prev < 0 {
				h.freeHead = next
			} else {
				h.set(prev, int64(next))
			}
			h.set(cur-1, h.at(cur-1)|vBlockAllocated)
			size = int(h.at(cur-1) & vBlockSizeMask)
			// The free-list link at cur is materialised; words past the
			// materialised heap already read 0.
			clear(h.mem[cur:min(cur+size, len(h.mem))])
			h.live += size
			return VBase + uint64(cur)
		}
		prev = cur
		cur = int(h.at(cur))
	}
	// Compare without forming heapNext+n+1, which a huge n overflows.
	if n > vheapWords-h.heapNext-1 {
		return 0
	}
	idx := h.heapNext
	h.set(idx, int64(n)|vBlockAllocated)
	h.heapNext = idx + n + 1
	h.live += n
	return VBase + uint64(idx+1)
}

func (h *vheap) free(addr uint64) error {
	if !h.contains(addr) {
		return fmt.Errorf("vfree of non-heap address %#x", addr)
	}
	i := int(addr - VBase)
	if i <= 1 || i >= h.heapNext {
		return fmt.Errorf("vfree of %#x outside heap", addr)
	}
	hdr := h.at(i - 1)
	if hdr&vBlockAllocated == 0 {
		return fmt.Errorf("vfree of %#x: not allocated (double free?)", addr)
	}
	size := int(hdr & vBlockSizeMask)
	h.set(i-1, int64(size))
	h.set(i, int64(h.freeHead))
	h.freeHead = i
	h.live -= size
	return nil
}
