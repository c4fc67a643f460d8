package pmem

import "fmt"

// Persistent allocator.
//
// The heap grows from heapStart to the end of the pool. Every block carries a
// one-word header immediately before its payload:
//
//	header word: size-in-words (low 32 bits) | blockAllocated flag
//
// Free blocks keep a singly-linked free list threaded through payload word 0.
// Allocation is first-fit with splitting; Free pushes onto the list head.
// Header and list updates are made durable immediately (persistMeta), so the
// heap structure is always crash-consistent — what PMDK's allocator provides
// internally. There is deliberately no garbage collection: a payload nobody
// frees stays allocated forever, which is exactly the persistent-leak failure
// mode (paper §2.4, cases f8/f12).

// Alloc allocates words payload words and returns the payload address.
// Contents are NOT zeroed (previous occupants' bits remain, as with real
// allocators) — use Zalloc for cleared memory.
func (p *Pool) Alloc(words int) (uint64, error) {
	if p.crashLatched {
		return 0, ErrCrashInjected
	}
	if words <= 0 {
		words = 1
	}
	// Reject what can never fit before allocIndex's arithmetic (next+words+1)
	// can overflow on it.
	if words > p.words {
		return 0, fmt.Errorf("%w: need %d words, pool holds %d", ErrOutOfSpace, words, p.words)
	}
	idx, err := p.allocIndex(words)
	if err != nil {
		return 0, err
	}
	// A crash injected mid-allocation: the durable state is whatever prefix
	// of the metadata updates completed; the program never gets the address.
	if p.crashLatched {
		return 0, ErrCrashInjected
	}
	addr := Base + uint64(idx)
	p.stats.Allocs++
	p.stats.allocWords += uint64(words)
	if p.hooks.OnAlloc != nil {
		p.hooks.OnAlloc(addr, words)
	}
	return addr, nil
}

// Zalloc allocates and zeroes words payload words (pmemobj_zalloc analogue).
func (p *Pool) Zalloc(words int) (uint64, error) {
	addr, err := p.Alloc(words)
	if err != nil {
		return 0, err
	}
	i := int(addr - Base)
	for w := 0; w < words; w++ {
		p.setCurAt(i+w, 0)
	}
	p.persistMeta(i, words)
	if p.crashLatched {
		return 0, ErrCrashInjected
	}
	if p.hooks.OnZero != nil {
		p.hooks.OnZero(addr, words)
	}
	return addr, nil
}

// allocIndex finds or creates a block and returns the payload word index.
func (p *Pool) allocIndex(words int) (int, error) {
	// First-fit over the free list.
	prev := -1
	cur := int(p.curAt(hdrFreeHead))
	for cur != 0 {
		hdr := p.curAt(cur - 1)
		size := int(hdr & blockSizeMask)
		if hdr&blockAllocated != 0 {
			return 0, fmt.Errorf("%w: free list entry %d is allocated", ErrCorruptHeader, cur)
		}
		if p.rangeQuarantined(cur-1, size+1) {
			// Block overlaps a quarantined media region: never hand it out.
			prev = cur
			cur = int(p.curAt(cur))
			continue
		}
		if size >= words {
			next := int(p.curAt(cur))
			if size >= words+2 {
				// Split: the tail becomes a smaller free block.
				restIdx := cur + words + 1
				restSize := size - words - 1
				p.setCurAt(restIdx-1, uint64(restSize))
				p.setCurAt(restIdx, uint64(next))
				next = restIdx
				p.setCurAt(cur-1, uint64(words))
				p.persistMeta(restIdx-1, 2)
			}
			p.unlinkFree(prev, next)
			p.setCurAt(cur-1, p.curAt(cur-1)|blockAllocated)
			p.persistMeta(cur-1, 1)
			p.bumpLive(int(p.curAt(cur-1) & blockSizeMask))
			return cur, nil
		}
		prev = cur
		cur = int(p.curAt(cur))
	}
	// Bump allocation from never-used space. Quarantined media regions are
	// never handed out: the allocator carves filler blocks (blockFiller, live
	// but never exposed) over them so the block chain stays walkable and
	// live-word accounting stays exact.
	next := int(p.curAt(hdrHeapNext))
	for p.rangeQuarantined(next, words+1) {
		skipTo := next
		for b := next / MediaBlockWords; b <= (next+words)/MediaBlockWords; b++ {
			if p.quar[b] && (b+1)*MediaBlockWords > skipTo {
				skipTo = (b + 1) * MediaBlockWords
			}
		}
		if skipTo < next+2 {
			skipTo = next + 2 // a filler needs a header plus >=1 payload word
		}
		if skipTo+words+1 > p.words {
			return 0, fmt.Errorf("%w: need %d words past quarantined media", ErrOutOfSpace, words+1)
		}
		fill := skipTo - next - 1
		p.setCurAt(next, uint64(fill)|blockAllocated|blockFiller)
		p.setCurAt(hdrHeapNext, uint64(skipTo))
		p.persistMeta(next, 1)
		p.persistMeta(hdrHeapNext, 1)
		p.bumpLive(fill)
		next = skipTo
	}
	if next+words+1 > p.words {
		return 0, fmt.Errorf("%w: need %d words, %d free", ErrOutOfSpace, words+1, p.words-next)
	}
	p.setCurAt(next, uint64(words)|blockAllocated)
	p.setCurAt(hdrHeapNext, uint64(next+words+1))
	p.persistMeta(next, 1)
	p.persistMeta(hdrHeapNext, 1)
	p.bumpLive(words)
	return next + 1, nil
}

func (p *Pool) unlinkFree(prevPayload, nextPayload int) {
	if prevPayload < 0 {
		p.setCurAt(hdrFreeHead, uint64(nextPayload))
		p.persistMeta(hdrFreeHead, 1)
	} else {
		p.setCurAt(prevPayload, uint64(nextPayload))
		p.persistMeta(prevPayload, 1)
	}
}

func (p *Pool) bumpLive(delta int) {
	p.setCurAt(hdrLiveWords, uint64(int(p.curAt(hdrLiveWords))+delta))
	p.persistMeta(hdrLiveWords, 1)
}

// Free returns the block whose payload starts at addr to the free list.
func (p *Pool) Free(addr uint64) error {
	if p.crashLatched {
		return ErrCrashInjected
	}
	i, err := p.index(addr)
	if err != nil {
		return err
	}
	if i <= heapStart || i >= int(p.curAt(hdrHeapNext)) {
		return fmt.Errorf("%w: %#x outside heap", ErrBadFree, addr)
	}
	hdr := p.curAt(i - 1)
	if hdr&blockAllocated == 0 {
		return fmt.Errorf("%w: %#x (double free?)", ErrBadFree, addr)
	}
	if hdr&blockFiller != 0 {
		return fmt.Errorf("%w: %#x is a quarantine filler", ErrBadFree, addr)
	}
	size := int(hdr & blockSizeMask)
	if size <= 0 || i+size > p.words {
		return fmt.Errorf("%w: block at %#x has size %d", ErrCorruptHeader, addr, size)
	}
	p.setCurAt(i-1, uint64(size)) // clear allocated flag
	p.setCurAt(i, p.curAt(hdrFreeHead))
	p.setCurAt(hdrFreeHead, uint64(i))
	p.persistMeta(i-1, 2)
	p.persistMeta(hdrFreeHead, 1)
	p.bumpLive(-size)
	// A crash injected mid-free: some prefix of the metadata updates is
	// durable; the caller sees the crash, not a completed free.
	if p.crashLatched {
		return ErrCrashInjected
	}
	p.stats.Frees++
	p.stats.freedWords += uint64(size)
	if p.hooks.OnFree != nil {
		p.hooks.OnFree(addr, size)
	}
	return nil
}

// IsAllocated reports whether addr is the payload start of a live block.
func (p *Pool) IsAllocated(addr uint64) bool {
	i, err := p.index(addr)
	if err != nil || i <= heapStart || i >= int(p.curAt(hdrHeapNext)) {
		return false
	}
	hdr := p.curAt(i - 1)
	return hdr&blockAllocated != 0
}

// BlockSize returns the payload size of the live block at addr.
func (p *Pool) BlockSize(addr uint64) (int, error) {
	if !p.IsAllocated(addr) {
		return 0, fmt.Errorf("%w: %#x", ErrBadFree, addr)
	}
	i := int(addr - Base)
	return int(p.curAt(i-1) & blockSizeMask), nil
}

// LiveWords returns the number of payload words currently allocated.
func (p *Pool) LiveWords() int { return int(p.curAt(hdrLiveWords)) }

// FreeWords returns an estimate of allocatable payload words remaining.
func (p *Pool) FreeWords() int {
	free := p.words - int(p.curAt(hdrHeapNext))
	for cur := int(p.curAt(hdrFreeHead)); cur != 0; cur = int(p.curAt(cur)) {
		free += int(p.curAt(cur-1) & blockSizeMask)
		if p.curAt(cur-1)&blockAllocated != 0 {
			break // corrupt; stop rather than loop
		}
	}
	return free
}

// InAllocatedPayload reports whether addr lies inside the payload of a
// currently-allocated block (or the root/header region). Reversion uses it
// to avoid scribbling over free-list links inside freed blocks.
func (p *Pool) InAllocatedPayload(addr uint64) bool {
	if !p.Contains(addr) {
		return false
	}
	i := int(addr - Base)
	if i < heapStart {
		return true // header/root region is always writable state
	}
	w := heapStart
	end := int(p.curAt(hdrHeapNext))
	for w < end {
		hdr := p.curAt(w)
		size := int(hdr & blockSizeMask)
		if size <= 0 || w+1+size > end {
			return false // corrupt heap: refuse
		}
		if i >= w+1 && i < w+1+size {
			return hdr&blockAllocated != 0
		}
		w += 1 + size
	}
	return false
}

// LiveBlocks returns the payload addresses of all allocated blocks, in heap
// order. Used by integrity checks and the leak-mitigation diff. Quarantine
// fillers are excluded: they are live for accounting but were never handed
// to a program, so the leak diff must not try to free them.
func (p *Pool) LiveBlocks() []uint64 {
	var out []uint64
	i := heapStart
	end := int(p.curAt(hdrHeapNext))
	for i < end {
		hdr := p.curAt(i)
		size := int(hdr & blockSizeMask)
		if size <= 0 || i+1+size > end {
			break // corrupt heap; integrity check reports details
		}
		if hdr&blockAllocated != 0 && hdr&blockFiller == 0 {
			out = append(out, Base+uint64(i+1))
		}
		i += 1 + size
	}
	return out
}
