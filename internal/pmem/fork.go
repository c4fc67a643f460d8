package pmem

import (
	"fmt"

	"arthas/internal/obs"
)

// Copy-on-write pool forking.
//
// Speculative mitigation (see internal/reactor and docs/PARALLEL_MITIGATION.md)
// tries several candidate reversions concurrently. Each trial needs a pool it
// can revert, crash, and re-execute against without disturbing the real one —
// but copying the whole image per trial would cost O(pool) where a trial
// typically touches a handful of words. A fork therefore shares the base
// pool's images read-only and keeps its own writes in per-word overlays:
//
//   - reads consult the overlay first and fall through to the base image
//   - writes (stores, persists, allocator metadata, roots, reversions) land
//     only in the overlay
//   - Crash resets the fork's current view to its durable view, including
//     dirty words inherited from the base at fork time
//
// The winning trial's overlay is applied onto the base with Promote; losing
// forks are simply dropped. While any fork is alive the base must be treated
// as read-only (the usual speculation discipline): forks read base slices
// without locks, so concurrent base mutations would race.

// Fork returns a copy-on-write view of the pool. The fork starts with the
// base's exact current/durable state (including unpersisted dirty words, so
// a fork Crash loses them just as a base Crash would) but all subsequent
// mutations stay fork-local. Hooks, sink, and flight recorder do NOT travel:
// a fork starts with no hooks (callers wire a forked checkpoint log), the
// no-op sink (speculative work is dark by default; see reactor's per-worker
// recorders), and no flight recorder.
func (p *Pool) Fork() *Pool {
	f := &Pool{
		words:       p.words,
		base:        p,
		curOv:       make(map[int]uint64),
		durOv:       make(map[int]uint64),
		dirty:       make(map[uint64]struct{}, len(p.dirty)),
		stats:       p.stats,
		sink:        obs.Nop(),
		fileVersion: p.fileVersion,
		// Media state is copy-on-write at media-block granularity: the fork
		// starts from the base's checksums, verification cache, and
		// quarantine set (O(words/MediaBlockWords), far below O(pool)) and
		// maintains its own copies from then on — a media fault injected in
		// a fork never touches the base's seals.
		csums:    append([]uint64(nil), p.csums...),
		verified: append([]bool(nil), p.verified...),
		degraded: p.degraded,
		nocsum:   p.nocsum,
	}
	if len(p.quar) > 0 {
		f.quar = make(map[int]bool, len(p.quar))
		for b := range p.quar {
			f.quar[b] = true
		}
	}
	for a := range p.dirty {
		f.dirty[a] = struct{}{}
	}
	return f
}

// IsFork reports whether the pool is a copy-on-write fork of another pool.
func (p *Pool) IsFork() bool { return p.base != nil }

// Promote applies the fork's overlays onto its base pool: every word the
// fork wrote (current and durable), its dirty set, and its activity stats
// replace the base's. After Promote the base holds exactly the state the
// fork observed, and the fork should be discarded. Only call this when no
// sibling forks are still running (the speculation winner, after losers are
// settled). Promoting a non-fork is an error.
func (p *Pool) Promote() error {
	b := p.base
	if b == nil {
		return fmt.Errorf("pmem: Promote on a pool that is not a fork")
	}
	// Durable words are applied RAW (no incremental checksum maintenance)
	// and the fork's entire media state — checksums, verification cache,
	// quarantine set, degraded flag — is transplanted wholesale afterwards.
	// Going through setDurAt would re-seal each block around the new values,
	// which silently blesses any media fault injected inside the fork; the
	// transplant instead preserves the fork's exact seal state, so corruption
	// the fork carried stays detectable in the parent (VerifyMedia/Load will
	// flag it until a scrub re-verifies the blocks).
	for i, v := range p.durOv {
		b.rawDurWrite(i, v)
	}
	for i, v := range p.curOv {
		b.setCurAt(i, v)
	}
	copy(b.csums, p.csums)
	copy(b.verified, p.verified)
	b.quar = nil
	if len(p.quar) > 0 {
		b.quar = make(map[int]bool, len(p.quar))
		for blk := range p.quar {
			b.quar[blk] = true
		}
	}
	b.degraded = p.degraded
	b.dirty = make(map[uint64]struct{}, len(p.dirty))
	for a := range p.dirty {
		b.dirty[a] = struct{}{}
	}
	// The fork ran dark. What the base did itself is published now; the
	// fork's activity — it started from the base's tallies, and the base
	// stood still while it ran — is published at the next flush as the
	// base's own, since it happened to the state the base now holds.
	b.FlushObs()
	b.stats = p.stats
	if b.obsOn {
		b.sink.Count("pmem.promote", 1)
		b.sink.Count("pmem.promoted_words", int64(len(p.curOv)))
		b.sink.SetGauge("pmem.dirty_words", int64(len(b.dirty)))
	}
	return nil
}

// curAt reads word i of the current image through the overlay chain.
func (p *Pool) curAt(i int) uint64 {
	if p.base == nil {
		return p.cur[i]
	}
	if v, ok := p.curOv[i]; ok {
		return v
	}
	return p.base.curAt(i)
}

// setCurAt writes word i of the current image (overlay-local on forks).
func (p *Pool) setCurAt(i int, v uint64) {
	if p.base == nil {
		p.cur[i] = v
		p.markStale(i)
		return
	}
	p.curOv[i] = v
}

// durAt reads word i of the durable image through the overlay chain.
func (p *Pool) durAt(i int) uint64 {
	if p.base == nil {
		return p.durable[i]
	}
	if v, ok := p.durOv[i]; ok {
		return v
	}
	return p.base.durAt(i)
}

// setDurAt writes word i of the durable image (overlay-local on forks) and
// incrementally maintains the media checksum of the covering block: XOR-ing
// out the mix of the old value and XOR-ing in the mix of the new one keeps
// the block seal exact in O(1) per word (see media.go). Repair paths that
// must not trust the old durable value use rawDurWrite instead.
func (p *Pool) setDurAt(i int, v uint64) {
	if !p.nocsum && p.csums != nil {
		if old := p.durAt(i); old != v {
			p.csums[i/MediaBlockWords] ^= mediaMix(i, old) ^ mediaMix(i, v)
		}
	}
	if p.base == nil {
		p.durable[i] = v
		p.markStale(i)
		return
	}
	p.durOv[i] = v
}

// durView returns [i, i+words) of the durable image. Root pools return the
// backing slice (callers must not mutate and must not hold it across pool
// mutations); forks materialize a copy through the overlay.
func (p *Pool) durView(i, words int) []uint64 {
	if p.base == nil {
		return p.durable[i : i+words]
	}
	out := make([]uint64, words)
	for w := range out {
		out[w] = p.durAt(i + w)
	}
	return out
}

// DurableImage returns a copy of the durable word image — exactly the
// payload a power failure preserves, with none of the forensic sections
// (stats counters, flight buffer, media checksums) a serialized pool file
// carries. Equivalence checks compare this: two runs with identical durable
// state but different persist traffic must compare equal.
func (p *Pool) DurableImage() []uint64 {
	img := p.durImage()
	out := make([]uint64, len(img))
	copy(out, img)
	return out
}

// durImage returns the full durable image, materializing overlays for forks.
// Root pools return the backing slice; callers must treat it as read-only.
func (p *Pool) durImage() []uint64 {
	if p.base == nil {
		return p.durable
	}
	out := make([]uint64, p.words)
	copy(out, p.base.durImage())
	for i, v := range p.durOv {
		out[i] = v
	}
	return out
}
