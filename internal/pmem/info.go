package pmem

// PoolInfo is a forensic summary of a pool image — what `arthas-inspect
// info` prints (the pmempool-info analogue). All word counts describe the
// durable image.
type PoolInfo struct {
	FormatVersion int // pool-file format this pool was read from
	Words         int // total pool size in words
	HeapUsed      int // words ever handed to the heap (bump pointer)
	LiveWords     int // payload words currently allocated
	FreeWords     int // allocatable payload words remaining
	FreeBlocks    int // blocks on the free list (bounded walk)
	LiveBlocks    int // allocated blocks in the heap
	NonzeroWords  int // durable words holding a nonzero value
	DirtyWords    int // stored-but-unpersisted words (0 after a clean open)
	Roots         [NumRoots]uint64
	Stats         Stats

	// Media-fault state (format v3; see docs/MEDIA_FAULTS.md).
	MediaBlocks       int   // checksummed media blocks covering the pool
	CorruptBlocks     []int // blocks whose checksum currently mismatches
	QuarantinedBlocks []int // blocks fenced off from allocation
	MediaDegraded     bool  // header block was unrepairable
}

// Info summarizes the pool for forensic display. It tolerates corrupt
// images: walks are bounded and never panic, so it is safe on a pool
// opened with ReadPoolInspect.
func (p *Pool) Info() PoolInfo {
	info := PoolInfo{
		FormatVersion: p.fileVersion,
		Words:         p.words,
		DirtyWords:    len(p.dirty),
		Stats:         p.stats.Stats,
	}
	durable := p.durImage()
	heapNext := int(durable[hdrHeapNext])
	if heapNext >= heapStart && heapNext <= p.words {
		info.HeapUsed = heapNext - heapStart
	}
	info.LiveWords = int(durable[hdrLiveWords])
	info.FreeWords = p.FreeWords()
	info.LiveBlocks = len(p.LiveBlocks())
	// Bounded free-list walk: stop on cycles or corruption.
	seen := map[int]bool{}
	for cur := int(durable[hdrFreeHead]); cur != 0 && cur < p.words && !seen[cur]; {
		seen[cur] = true
		info.FreeBlocks++
		next := int(durable[cur])
		if next < 0 || next >= p.words {
			break
		}
		cur = next
	}
	for i := 0; i < NumRoots; i++ {
		info.Roots[i] = durable[hdrRootBase+i]
	}
	for _, w := range durable {
		if w != 0 {
			info.NonzeroWords++
		}
	}
	info.MediaBlocks = p.MediaBlocks()
	info.CorruptBlocks = p.CorruptMediaBlocks()
	info.QuarantinedBlocks = p.QuarantinedBlocks()
	info.MediaDegraded = p.MediaDegraded()
	return info
}
