package pmem

import (
	"errors"
	"fmt"
	"sort"
)

// Media-fault layer: per-block checksums over the DURABLE image, a
// deterministic fault injector, and the repair/quarantine primitives the
// scrubber (internal/scrub) builds on.
//
// The durable image is divided into fixed media blocks of MediaBlockWords
// words. Every block carries one 64-bit checksum — the XOR of a position-
// keyed hash of each word — maintained incrementally by every write that
// goes through the durable-write path (Persist, PersistTx, allocator/root
// metadata, WriteDurable, checkpoint reversion). The XOR structure makes a
// single-word update O(1): the old contribution is XORed out and the new
// one in.
//
// Corruption model: InjectMediaFault mutates durable words WITHOUT
// maintaining the checksum — the simulator's stand-in for media errors,
// firmware stray writes, and DMA scribbles that change bits behind the
// memory controller's back. The mismatch is latched per block in the
// `verified` cache, so the read hot path pays a single branch; reads from a
// block whose seal is broken fail with ErrMediaCorrupt (the VM surfaces
// this as a media-corrupt trap, and the reactor scrubs-then-retries).
//
// InjectBitFlip (the paper's §2.4 hardware-fault model) deliberately stays
// checksum-transparent: it models a value corrupted BEFORE write-back, so
// the bad value was checksummed like any other store — exactly the class
// of fault only checkpoint-log reversion can heal. InjectMediaFault models
// corruption AFTER write-back, the class checksums do catch.

// MediaBlockWords is the checksum granularity, in words.
const MediaBlockWords = 64

// blockFiller marks an allocated block the allocator carved to skip a
// quarantined region during bump allocation. Fillers count as live words
// (keeping CheckIntegrity/RecoverMeta accounting exact) but were never
// handed to a program and never will be.
const blockFiller = uint64(1) << 61

// ErrMediaCorrupt reports a checksum mismatch between a media block's
// stored checksum and its durable contents. It is always wrapped in a
// *MediaError carrying the poisoned word ranges.
var ErrMediaCorrupt = errors.New("pmem: media corruption detected")

// MediaError is the typed media-corruption error: which word ranges (media
// blocks) failed checksum verification.
type MediaError struct {
	Ranges []Range
}

func (e *MediaError) Error() string {
	s := fmt.Sprintf("%v: %d poisoned block(s)", ErrMediaCorrupt, len(e.Ranges))
	for i, r := range e.Ranges {
		if i == 4 {
			s += fmt.Sprintf(" ... (+%d more)", len(e.Ranges)-i)
			break
		}
		s += " " + r.String()
	}
	return s
}

// Unwrap makes errors.Is(err, ErrMediaCorrupt) work.
func (e *MediaError) Unwrap() error { return ErrMediaCorrupt }

// mediaMix is the position-keyed word hash (splitmix64 finalizer over the
// word value offset by its pool index). XORing mixes over a block gives a
// checksum where any single-word change flips ~half the bits, and
// incremental maintenance is two mixes.
func mediaMix(i int, v uint64) uint64 {
	x := v + 0x9e3779b97f4a7c15*uint64(i+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// mediaBlocks returns the number of media blocks covering the pool.
func (p *Pool) mediaBlocks() int {
	return (p.words + MediaBlockWords - 1) / MediaBlockWords
}

// MediaBlocks returns the number of checksummed media blocks.
func (p *Pool) MediaBlocks() int { return p.mediaBlocks() }

// MediaBlockOf returns the media block index covering addr (which must be
// inside the pool; see Contains).
func MediaBlockOf(addr uint64) int { return int(addr-Base) / MediaBlockWords }

// MediaBlockRange returns the word range covered by media block b, clipped
// to the pool size.
func (p *Pool) MediaBlockRange(b int) Range {
	start := b * MediaBlockWords
	words := MediaBlockWords
	if start+words > p.words {
		words = p.words - start
	}
	return Range{Addr: Base + uint64(start), Words: words}
}

// computeMediaChecksum recomputes block b's checksum from the durable image.
func (p *Pool) computeMediaChecksum(b int) uint64 {
	r := p.MediaBlockRange(b)
	start := int(r.Addr - Base)
	var sum uint64
	if p.base == nil {
		for w := 0; w < r.Words; w++ {
			sum ^= mediaMix(start+w, p.durable[start+w])
		}
		return sum
	}
	for w := 0; w < r.Words; w++ {
		sum ^= mediaMix(start+w, p.durAt(start+w))
	}
	return sum
}

// MediaChecksum returns the STORED checksum of media block b.
func (p *Pool) MediaChecksum(b int) uint64 { return p.csums[b] }

// DurableBlock copies media block b's durable words (the replication
// layer's block-fetch primitive; see BlockFetch). Returns nil when b is
// out of range.
func (p *Pool) DurableBlock(b int) []uint64 {
	if b < 0 || b >= p.mediaBlocks() {
		return nil
	}
	r := p.MediaBlockRange(b)
	start := int(r.Addr - Base)
	out := make([]uint64, r.Words)
	for w := range out {
		out[w] = p.durAt(start + w)
	}
	return out
}

// MediaBlockOK recomputes block b's checksum and compares it to the stored
// one, updating the verified cache.
func (p *Pool) MediaBlockOK(b int) bool {
	ok := p.computeMediaChecksum(b) == p.csums[b]
	p.verified[b] = ok
	return ok
}

// initMedia allocates and seals the checksum state for a freshly built pool
// whose durable image is authoritative (New, ReadPool of v1/v2 images).
func (p *Pool) initMedia() {
	n := p.mediaBlocks()
	p.csums = make([]uint64, n)
	p.verified = make([]bool, n)
	p.resealMediaAll()
}

// resealMediaAll recomputes every block checksum from the durable image and
// marks all blocks verified — declaring the current durable contents
// authoritative. Used when formatting, when backfilling checksums for
// pre-v3 images, and after bench-only maintenance toggling.
func (p *Pool) resealMediaAll() {
	for b := range p.csums {
		p.csums[b] = p.computeMediaChecksum(b)
		p.verified[b] = true
	}
}

// ResealMediaBlock recomputes block b's checksum from its current durable
// contents and marks it verified — accepting whatever is there as
// authoritative. The scrubber uses it when quarantining a block whose
// original contents cannot be reconstructed.
func (p *Pool) ResealMediaBlock(b int) {
	if b < 0 || b >= len(p.csums) {
		return
	}
	p.csums[b] = p.computeMediaChecksum(b)
	p.verified[b] = true
}

// mediaCheck is the read hot-path verification: one branch on the verified
// cache; on a cache miss the block checksum is recomputed. i is a word
// index already validated by index().
func (p *Pool) mediaCheck(i int) error {
	b := i / MediaBlockWords
	if p.verified[b] {
		return nil
	}
	if p.computeMediaChecksum(b) == p.csums[b] {
		p.verified[b] = true
		return nil
	}
	return &MediaError{Ranges: []Range{p.MediaBlockRange(b)}}
}

// VerifyMedia recomputes every media-block checksum against the stored
// values, refreshing the verified cache. It returns nil when the whole pool
// verifies, or a *MediaError listing every poisoned block range.
func (p *Pool) VerifyMedia() *MediaError {
	var bad []Range
	for b := range p.csums {
		if !p.MediaBlockOK(b) {
			bad = append(bad, p.MediaBlockRange(b))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	return &MediaError{Ranges: bad}
}

// CorruptMediaBlocks returns the indices of blocks whose stored checksum
// does not match the durable contents, ascending.
func (p *Pool) CorruptMediaBlocks() []int {
	var out []int
	for b := range p.csums {
		if !p.MediaBlockOK(b) {
			out = append(out, b)
		}
	}
	return out
}

// SetMediaMaintenance toggles incremental checksum maintenance on the
// durable-write path. It exists ONLY as a measurement aid for arthas-bench
// (persist-path overhead with/without checksums): re-enabling reseals every
// block, so detection state is lost across the toggle.
func (p *Pool) SetMediaMaintenance(on bool) {
	p.nocsum = !on
	if on {
		p.resealMediaAll()
	}
}

// rawDurWrite writes durable word i WITHOUT checksum maintenance — the
// primitive behind fault injection and scrubber repairs.
func (p *Pool) rawDurWrite(i int, v uint64) {
	if p.base == nil {
		p.durable[i] = v
		p.markStale(i)
		return
	}
	p.durOv[i] = v
}

// RepairDurable rewrites one durable (and current) word WITHOUT updating
// the block checksum: the scrubber's write primitive. Keeping the stored
// checksum untouched is the point — after rewriting every word it has
// ground truth for, the scrubber recomputes the block checksum and a match
// against the UNTOUCHED stored value proves the block is back to its
// original contents.
func (p *Pool) RepairDurable(addr uint64, val uint64) error {
	i, err := p.index(addr)
	if err != nil {
		return err
	}
	p.rawDurWrite(i, val)
	p.setCurAt(i, val)
	delete(p.dirty, addr)
	return nil
}

// MediaFaultKind selects the injected corruption pattern.
type MediaFaultKind int

// Media-fault kinds (the Linux-PM study's media-error taxonomy).
const (
	// MediaBitFlip XORs Bits (default 1) into the word at Addr.
	MediaBitFlip MediaFaultKind = iota
	// MediaStuckWord forces Words words (default 1) starting at Addr to
	// Value — a stuck-at region.
	MediaStuckWord
	// MediaStrayWrite copies Words words (default 1) from Src into Addr —
	// a misdirected write landing in a neighboring allocation. Src == 0
	// defaults to the same offset one media block earlier.
	MediaStrayWrite
	// MediaBlockPoison scrambles the whole media block containing Addr
	// with a Seed-keyed deterministic pattern — an uncorrectable poisoned
	// page.
	MediaBlockPoison
)

var mediaFaultNames = [...]string{
	MediaBitFlip: "bit-flip", MediaStuckWord: "stuck-word",
	MediaStrayWrite: "stray-write", MediaBlockPoison: "block-poison",
}

func (k MediaFaultKind) String() string {
	if int(k) < len(mediaFaultNames) {
		return mediaFaultNames[k]
	}
	return fmt.Sprintf("media-fault(%d)", int(k))
}

// MediaFault describes one injected corruption. All fields are plain data,
// so fault schedules serialize into replayable seeds (internal/torture's
// -media mode).
type MediaFault struct {
	Kind MediaFaultKind
	// Addr is the first corrupted word.
	Addr uint64
	// Bits is the XOR mask for MediaBitFlip (0 = flip bit zero).
	Bits uint64
	// Words sizes MediaStuckWord / MediaStrayWrite runs (0 = 1).
	Words int
	// Value is the MediaStuckWord fill value.
	Value uint64
	// Src is the MediaStrayWrite source address (0 = one block earlier).
	Src uint64
	// Seed keys the MediaBlockPoison scramble pattern.
	Seed int64
}

// InjectMediaFault corrupts the durable (and current) image WITHOUT
// maintaining block checksums, then clears the verified cache for every
// affected block — deterministic, replayable media corruption. It returns
// the poisoned range. Injecting into a fork stays fork-local.
func (p *Pool) InjectMediaFault(f MediaFault) (Range, error) {
	i, err := p.index(f.Addr)
	if err != nil {
		return Range{}, err
	}
	n := f.Words
	if n <= 0 {
		n = 1
	}
	var r Range
	switch f.Kind {
	case MediaBitFlip:
		mask := f.Bits
		if mask == 0 {
			mask = 1
		}
		p.rawDurWrite(i, p.durAt(i)^mask)
		p.setCurAt(i, p.durAt(i))
		r = Range{Addr: f.Addr, Words: 1}
	case MediaStuckWord:
		if i+n > p.words {
			n = p.words - i
		}
		for w := 0; w < n; w++ {
			p.rawDurWrite(i+w, f.Value)
			p.setCurAt(i+w, f.Value)
		}
		r = Range{Addr: f.Addr, Words: n}
	case MediaStrayWrite:
		src := f.Src
		if src == 0 {
			if f.Addr >= Base+MediaBlockWords {
				src = f.Addr - MediaBlockWords
			} else {
				src = f.Addr + MediaBlockWords
			}
		}
		si, err := p.index(src)
		if err != nil {
			return Range{}, err
		}
		if i+n > p.words {
			n = p.words - i
		}
		if si+n > p.words {
			n = p.words - si
		}
		vals := make([]uint64, n)
		for w := 0; w < n; w++ {
			vals[w] = p.durAt(si + w)
		}
		for w := 0; w < n; w++ {
			p.rawDurWrite(i+w, vals[w])
			p.setCurAt(i+w, vals[w])
		}
		r = Range{Addr: f.Addr, Words: n}
	case MediaBlockPoison:
		b := i / MediaBlockWords
		r = p.MediaBlockRange(b)
		start := int(r.Addr - Base)
		for w := 0; w < r.Words; w++ {
			v := mediaMix(start+w, uint64(f.Seed)^0xDEAD_BEEF_F00D)
			p.rawDurWrite(start+w, v)
			p.setCurAt(start+w, v)
		}
	default:
		return Range{}, fmt.Errorf("pmem: unknown media fault kind %d", int(f.Kind))
	}
	for b := int(r.Addr-Base) / MediaBlockWords; b <= (int(r.Addr-Base)+r.Words-1)/MediaBlockWords; b++ {
		p.verified[b] = false
	}
	if p.obsOn {
		p.sink.Count("pmem.media_fault", 1)
		p.sink.Count("pmem.media_fault_words", int64(r.Words))
	}
	return r, nil
}

// QuarantineMediaBlock marks media block b as quarantined: its contents are
// resealed as-is (so reads stop failing) and the allocator never hands out
// words overlapping it again. Block 0 holds the pool header and cannot be
// quarantined — unrepairable header corruption degrades the pool instead
// (see SetMediaDegraded).
func (p *Pool) QuarantineMediaBlock(b int) error {
	if b < 0 || b >= p.mediaBlocks() {
		return fmt.Errorf("%w: media block %d", ErrOutOfBounds, b)
	}
	if b == 0 {
		return fmt.Errorf("pmem: media block 0 holds the pool header and cannot be quarantined")
	}
	if p.quar == nil {
		p.quar = map[int]bool{}
	}
	p.quar[b] = true
	p.ResealMediaBlock(b)
	if p.obsOn {
		p.sink.Count("pmem.media_quarantine", 1)
	}
	return nil
}

// IsQuarantined reports whether media block b is quarantined.
func (p *Pool) IsQuarantined(b int) bool { return p.quar[b] }

// QuarantinedBlocks returns the quarantined media block indices, ascending.
func (p *Pool) QuarantinedBlocks() []int {
	out := make([]int, 0, len(p.quar))
	for b := range p.quar {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// rangeQuarantined reports whether word range [i, i+words) overlaps any
// quarantined media block.
func (p *Pool) rangeQuarantined(i, words int) bool {
	if len(p.quar) == 0 || words <= 0 {
		return false
	}
	for b := i / MediaBlockWords; b <= (i+words-1)/MediaBlockWords; b++ {
		if p.quar[b] {
			return true
		}
	}
	return false
}

// MediaDegraded reports whether unrepairable corruption was found in the
// header media block: the pool still serves, but header-resident state
// (roots) may have been lost.
func (p *Pool) MediaDegraded() bool { return p.degraded }

// SetMediaDegraded latches the degraded flag (scrubber use).
func (p *Pool) SetMediaDegraded() { p.degraded = true }

// AllocHint tells media repair about a live allocation the caller's
// checkpoint log recorded: used to reconstruct block headers whose media
// block is poisoned.
type AllocHint struct {
	Addr  uint64
	Words int
}

// MediaRepair describes what happened to one corrupt media block.
type MediaRepair struct {
	Block         int
	Range         Range
	RepairedWords int  // words rewritten from ground truth
	Healed        bool // checksum verifies again: original contents restored
	Fetched       bool // healed from an external block source (replica)
	Quarantined   bool // unreconstructible: resealed and fenced off
	Degraded      bool // header block unreconstructible: resealed, pool degraded
}

// BlockFetch supplies a media block's words from outside the pool — a
// replica's durable image (internal/repl). It returns the full block
// (MediaBlockRange(b).Words words) and true, or false when unavailable.
type BlockFetch func(b int) ([]uint64, bool)

// RepairMedia is the repair engine behind scrub.Repair. For every corrupt
// media block it rewrites each word it has ground truth for — header
// constants, block headers reconstructed from the chain walk (assisted by
// allocation hints when the header itself is poisoned), and live payload
// words via lookup (the checkpoint log's newest checkpointed value). All
// repair writes are raw: the stored checksums stay untouched, so a block
// whose recomputed checksum matches afterwards has provably recovered its
// original contents and is marked verified. Blocks still mismatching are
// quarantined (or, for the header block, resealed with the pool marked
// degraded). The caller should run RecoverMeta + CheckIntegrity afterwards
// to rebuild derived allocator metadata.
func (p *Pool) RepairMedia(hints []AllocHint, lookup func(addr uint64) (uint64, bool)) []MediaRepair {
	return p.RepairMediaFrom(hints, lookup, nil)
}

// RepairMediaFrom is RepairMedia with a last-resort external block source:
// when the local reconstruction cannot reproduce a block's stored seal,
// the block is fetched from fetch (a replica's durable image) and
// committed ONLY when the stored checksum proves the fetched words are the
// block's original contents — the same proof rule local repair uses, so a
// stale or diverged replica can never corrupt the pool; its blocks simply
// fail the seal and the verdict falls through to quarantine as before.
func (p *Pool) RepairMediaFrom(hints []AllocHint, lookup func(addr uint64) (uint64, bool), fetch BlockFetch) []MediaRepair {
	corrupt := p.CorruptMediaBlocks()
	if len(corrupt) == 0 {
		return nil
	}
	isCorrupt := make(map[int]bool, len(corrupt))
	for _, b := range corrupt {
		isCorrupt[b] = true
	}
	hintAt := make(map[int]int, len(hints)) // header word index -> payload size
	maxExtent := heapStart
	for _, h := range hints {
		if i, err := p.index(h.Addr); err == nil && h.Words > 0 {
			hintAt[i-1] = h.Words
			if i+h.Words > maxExtent {
				maxExtent = i + h.Words
			}
		}
	}

	truth := map[int]uint64{
		hdrMagic: magicValue,
		hdrSize:  uint64(p.words),
	}

	// Reconstruct the block chain. heapNext itself may be poisoned: fall
	// back to walking sane headers when the stored value is implausible.
	heapNext := int(p.durAt(hdrHeapNext))
	rederiveNext := heapNext < heapStart || heapNext > p.words
	walkEnd := heapNext
	if rederiveNext {
		walkEnd = p.words
	}
	type span struct {
		hdr, size int
		flags     uint64
	}
	var spans []span
	chainOK := true
	i := heapStart
	for i < walkEnd {
		hdr := p.durAt(i)
		size := int(hdr & blockSizeMask)
		sane := size > 0 && i+1+size <= walkEnd
		if isCorrupt[i/MediaBlockWords] {
			// The header word itself sits in a poisoned block: prefer the
			// checkpoint log's allocation record over the stored bits.
			if n, ok := hintAt[i]; ok && i+1+n <= p.words {
				spans = append(spans, span{hdr: i, size: n, flags: blockAllocated})
				truth[i] = uint64(n) | blockAllocated
				i += 1 + n
				continue
			}
		}
		if !sane {
			if i >= maxExtent && (hdr == 0 || isCorrupt[i/MediaBlockWords]) {
				// Never-used space (or its poisoned remains): the chain ends
				// here. Past every hinted allocation, a zero word means the
				// bump allocator never reached this far; inside a corrupt
				// block the zero may have been scrambled, so accept the end
				// there too — the seal arbitration below proves or rejects
				// the resulting reconstruction.
				walkEnd = i
				break
			}
			chainOK = false
			break
		}
		spans = append(spans, span{hdr: i, size: size, flags: hdr &^ blockSizeMask})
		i += 1 + size
	}
	if rederiveNext && chainOK {
		truth[hdrHeapNext] = uint64(walkEnd)
	}

	// Root slots are checkpointed by SetRoot: the log is their ground truth
	// too (they live in block 0, outside any allocation span).
	if lookup != nil {
		for w := hdrRootBase; w < hdrRootBase+NumRoots; w++ {
			if !isCorrupt[w/MediaBlockWords] {
				continue
			}
			if v, ok := lookup(Base + uint64(w)); ok {
				truth[w] = v
			}
		}
	}

	// Live payload words inside corrupt blocks: the checkpoint log's
	// newest checkpointed value is the paper's repair source (§4.4 resync).
	if chainOK && lookup != nil {
		for _, s := range spans {
			if s.flags&blockAllocated == 0 {
				continue
			}
			for w := s.hdr + 1; w <= s.hdr+s.size; w++ {
				if !isCorrupt[w/MediaBlockWords] {
					continue
				}
				if v, ok := lookup(Base + uint64(w)); ok {
					truth[w] = v
				}
			}
		}
	}

	// Guessed truth: values we cannot prove from the log or the chain walk
	// but that hold for the common pool shape — reserved header words and
	// root slots are zero until used, allocator counters follow from the
	// chain, and heap space past the bump pointer was never written. Guesses
	// are applied ONLY when, combined with the certain truth, they reproduce
	// the block's original checksum exactly (seal arbitration below): a
	// wrong guess never overwrites a word that survived the fault.
	guess := map[int]uint64{}
	for w := hdrLiveWords + 1; w < hdrRootBase; w++ {
		guess[w] = 0
	}
	for w := hdrRootBase; w < hdrRootBase+NumRoots; w++ {
		guess[w] = 0
	}
	if chainOK {
		live := 0
		freeSpans := false
		for _, s := range spans {
			if s.flags&blockAllocated != 0 {
				live += s.size
			} else {
				freeSpans = true
			}
		}
		guess[hdrLiveWords] = uint64(live)
		if !freeSpans {
			// No freed spans in the chain: the free list must be empty.
			guess[hdrFreeHead] = 0
		}
		for w := walkEnd; w < p.words; w++ {
			if isCorrupt[w/MediaBlockWords] {
				guess[w] = 0
			}
		}
	}

	// Apply ground truth raw — only inside corrupt blocks, and only where
	// the durable value actually differs. Per block, first test whether the
	// certain truth overlaid with the guesses reproduces the stored seal: a
	// match PROVES the combined reconstruction is the original contents, so
	// the guesses commit too; otherwise only the certain truth is written
	// and the block is left for the quarantine/degrade verdict.
	repairedBy := map[int]int{}
	for _, b := range corrupt {
		r := p.MediaBlockRange(b)
		lo := int(r.Addr - Base)
		var sum uint64
		for w := lo; w < lo+r.Words; w++ {
			v := p.durAt(w)
			if tv, ok := truth[w]; ok {
				v = tv
			} else if gv, ok := guess[w]; ok {
				v = gv
			}
			sum ^= mediaMix(w, v)
		}
		useGuess := sum == p.csums[b]
		for w := lo; w < lo+r.Words; w++ {
			v, ok := truth[w]
			if !ok {
				if !useGuess {
					continue
				}
				if v, ok = guess[w]; !ok {
					continue
				}
			}
			if p.durAt(w) != v {
				p.rawDurWrite(w, v)
				p.setCurAt(w, v)
				delete(p.dirty, Base+uint64(w))
				repairedBy[b]++
			}
		}
	}

	// Verdict per block: a matching checksum proves full recovery; a block
	// the local reconstruction cannot prove gets one more chance from the
	// external source (seal-proven, see RepairMediaFrom); anything else is
	// fenced off.
	out := make([]MediaRepair, 0, len(corrupt))
	for _, b := range corrupt {
		mr := MediaRepair{Block: b, Range: p.MediaBlockRange(b), RepairedWords: repairedBy[b]}
		if !p.MediaBlockOK(b) && fetch != nil {
			if n := p.commitFetchedBlock(b, fetch); n > 0 {
				mr.RepairedWords += n
				mr.Fetched = true
			}
		}
		if p.MediaBlockOK(b) {
			mr.Healed = true
		} else if b == 0 {
			p.SetMediaDegraded()
			p.ResealMediaBlock(0)
			mr.Degraded = true
		} else {
			_ = p.QuarantineMediaBlock(b)
			mr.Quarantined = true
		}
		out = append(out, mr)
	}
	return out
}

// commitFetchedBlock tests whether the externally fetched contents of
// block b reproduce its stored seal, and commits them raw only on proof.
// Returns the number of words rewritten (0 = no proof, nothing touched).
func (p *Pool) commitFetchedBlock(b int, fetch BlockFetch) int {
	words, ok := fetch(b)
	if !ok {
		return 0
	}
	r := p.MediaBlockRange(b)
	if len(words) != r.Words {
		return 0
	}
	lo := int(r.Addr - Base)
	var sum uint64
	for w := 0; w < r.Words; w++ {
		sum ^= mediaMix(lo+w, words[w])
	}
	if sum != p.csums[b] {
		return 0
	}
	n := 0
	for w := 0; w < r.Words; w++ {
		if p.durAt(lo+w) != words[w] {
			p.rawDurWrite(lo+w, words[w])
			p.setCurAt(lo+w, words[w])
			delete(p.dirty, Base+uint64(lo+w))
			n++
		}
	}
	if p.obsOn {
		p.sink.Count("pmem.media_fetch_heal", 1)
		p.sink.Count("pmem.media_fetch_words", int64(n))
	}
	return n
}
