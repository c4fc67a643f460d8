// Package pmem simulates byte-addressable persistent memory with an explicit
// durability model.
//
// The simulator reproduces the semantics that Arthas's checkpointing depends
// on, without requiring real PM DIMMs:
//
//   - A pool is an array of 64-bit words addressed at [Base, Base+Words).
//   - Stores update the *current* image only. They are NOT durable.
//   - Persist (the pmem_persist / clwb+sfence analogue) copies a range of the
//     current image into the *durable* image.
//   - Crash discards the current image and rebuilds it from the durable one,
//     so unflushed stores are lost — exactly the property PM crash-consistency
//     work is about.
//   - A persistent allocator (the pmemobj_zalloc analogue) lives inside the
//     pool; its metadata is made durable on every alloc/free so the heap
//     survives crashes, mirroring PMDK's internally-atomic allocator.
//   - Root slots (the pmemobj_root analogue) give programs a durable entry
//     point to find their data after restart.
//
// All addresses and sizes are in 64-bit words, not bytes. This keeps pointer
// arithmetic in the PML virtual machine trivial while preserving everything
// that matters for fault propagation: a corrupted pointer still traps, a
// corrupted length still overflows, a leaked object still consumes space.
package pmem

import (
	"errors"
	"fmt"
	"math/bits"

	"arthas/internal/obs"
)

// Base is the virtual address of the first pool word. Volatile heap addresses
// used by the VM are far below it, so PM and DRAM pointers are distinguishable
// by value, like DAX-mapped regions in real deployments.
const Base uint64 = 1 << 40

// Word counts for the persistent pool header layout.
const (
	hdrMagic     = 0 // magic value identifying an initialized pool
	hdrSize      = 1 // pool size in words
	hdrHeapNext  = 2 // bump pointer: next never-allocated word index
	hdrFreeHead  = 3 // head of the free list (0 = empty)
	hdrLiveWords = 4 // payload words currently allocated
	hdrRootBase  = 8 // first of NumRoots root slots

	// NumRoots is the number of durable root slots a pool provides.
	NumRoots = 16

	heapStart = hdrRootBase + NumRoots // first heap word index
)

const magicValue = 0x41525448_41530001 // "ARTHAS" v1

// Allocation block header flags (stored in the word before each payload).
const (
	blockAllocated = uint64(1) << 62
	blockSizeMask  = (uint64(1) << 32) - 1
)

// Errors reported by pool operations. The VM converts these into traps with
// the same flavor as the corresponding process-level failures (segfault,
// out-of-space, heap corruption).
var (
	ErrOutOfBounds   = errors.New("pmem: address out of pool bounds")
	ErrOutOfSpace    = errors.New("pmem: out of persistent memory")
	ErrBadFree       = errors.New("pmem: free of non-allocated address")
	ErrBadRoot       = errors.New("pmem: root slot out of range")
	ErrCorruptHeader = errors.New("pmem: corrupt allocation header")
)

// Range identifies a contiguous run of pool words by absolute address.
type Range struct {
	Addr  uint64 // absolute address (>= Base)
	Words int
}

func (r Range) String() string { return fmt.Sprintf("[%#x,+%d)", r.Addr, r.Words) }

// Overlaps reports whether two ranges share any word.
func (r Range) Overlaps(o Range) bool {
	return r.Addr < o.Addr+uint64(o.Words) && o.Addr < r.Addr+uint64(r.Words)
}

// Hooks receive notifications about durability events. The Arthas checkpoint
// library implements them; a nil hook is skipped. Hooks fire only when data
// actually becomes durable (the paper's "eager checkpointing ... respects the
// program's persistence points", §4.2).
type Hooks struct {
	// OnPersist is called after a range is made durable outside any
	// transaction. data aliases internal storage only for the duration of
	// the call; implementations must copy.
	OnPersist func(addr uint64, data []uint64)
	// OnTxBegin/OnTxCommit bracket the OnPersist calls issued by a
	// transaction commit, so the checkpoint log can group entries that
	// must be reverted together.
	OnTxBegin  func()
	OnTxCommit func()
	// OnAlloc/OnFree observe allocator activity (used for leak mitigation).
	OnAlloc func(addr uint64, words int)
	OnFree  func(addr uint64, words int)
	// OnZero fires after Zalloc has zeroed AND persisted a fresh payload:
	// the range is durably zero at that point (provenance uses this as the
	// redundant-persist baseline). Raw Alloc does not fire it.
	OnZero func(addr uint64, words int)
}

// Pool is a simulated persistent memory pool. A pool is either a root pool
// (backed by its own cur/durable slices) or a copy-on-write fork of another
// pool (see Fork): forks keep base == the forked pool and record their writes
// in the curOv/durOv overlays instead of slices of their own.
type Pool struct {
	words   int
	cur     []uint64 // what loads observe (root pools only)
	durable []uint64 // what survives Crash (root pools only)
	dirty   map[uint64]struct{}
	// stale has one bit per page of pageWords words (root pools only): a
	// page whose bit is clear holds the same words in cur and durable, so
	// Crash resyncs only the marked pages and clears the bitmap. setCurAt,
	// setDurAt and rawDurWrite mark the page they write; the bulk loads
	// that fill cur directly leave it equal to durable.
	stale []uint64

	// Copy-on-write forking (nil/unused on root pools).
	base  *Pool          // pool this one was forked from
	curOv map[int]uint64 // fork-local current-image writes
	durOv map[int]uint64 // fork-local durable-image writes

	hooks Hooks

	// statistics: stats is the lifetime tally the hot paths bump;
	// published is the part of it the sink has been told (see FlushObs).
	stats     tally
	published tally

	// flight, when attached, is serialized into the pool image by WriteTo
	// and recovered by ReadPool: the telemetry tail survives crashes the
	// same way durable data does. The pool does not feed it directly — it
	// is wired in as a Sink by the arthas facade.
	flight *obs.Flight

	// fileVersion records which pool-file format this pool was read from
	// (fileVersion for pools created by New).
	fileVersion int

	// sink receives durability telemetry; obsOn caches sink.Enabled(). The
	// per-word paths never call it: FlushObs publishes their tallies.
	sink  obs.Sink
	obsOn bool

	// Crash injection (internal/torture): crashFn observes durability
	// events and may latch the pool mid-event; once crashLatched, nothing
	// further becomes durable and durability hooks stay silent. See
	// inject.go.
	crashFn      CrashFunc
	crashLatched bool

	// recovery records the open-time RecoverMeta report when the strict
	// reader had to repair allocator metadata (nil when the open was clean).
	recovery *RecoverReport

	// Media-fault layer (media.go). csums holds one checksum per
	// MediaBlockWords-word block of the durable image, maintained
	// incrementally by setDurAt; verified caches per-block verification so
	// the read hot path pays one branch; quar fences blocks the scrubber
	// could not repair away from the allocator; degraded latches
	// unrepairable header-block corruption; nocsum is the bench-only
	// maintenance toggle. Forks carry their own copies (Fork), and Promote
	// transplants them wholesale so fork-injected corruption stays
	// detectable in the parent.
	csums    []uint64
	verified []bool
	quar     map[int]bool
	degraded bool
	nocsum   bool
}

// LastRecovery returns the open-time recovery report, or nil if the pool
// opened clean (or was not opened from a file).
func (p *Pool) LastRecovery() *RecoverReport { return p.recovery }

// Stats counts pool activity since creation. Stats are not durable state,
// but pool files (format v2) carry them so post-mortem tooling can see how
// much activity preceded a save; a freshly created pool starts at zero.
type Stats struct {
	Loads    uint64
	Stores   uint64
	Persists uint64
	PersistedWords
	Allocs  uint64
	Frees   uint64
	Crashes uint64
}

// PersistedWords tallies how many words were made durable.
type PersistedWords struct{ Words uint64 }

// tally is the activity FlushObs publishes as counters: Stats plus the two
// word counts that Stats (a pool-file section) does not carry.
type tally struct {
	Stats
	allocWords, freedWords uint64
}

// New creates a pool with the given number of heap-addressable words
// (minimum 64) and formats its persistent header.
func New(words int) *Pool {
	if words < 64 {
		words = 64
	}
	p := newRoot(words, int(fileVersion))
	p.initMedia()
	p.cur[hdrMagic] = magicValue
	p.cur[hdrSize] = uint64(words)
	p.cur[hdrHeapNext] = heapStart
	p.cur[hdrFreeHead] = 0
	p.cur[hdrLiveWords] = 0
	p.persistMeta(0, heapStart)
	return p
}

// newRoot returns a root pool of the given size with both images zero.
func newRoot(words, version int) *Pool {
	return &Pool{
		words:       words,
		cur:         make([]uint64, words),
		durable:     make([]uint64, words),
		dirty:       make(map[uint64]struct{}),
		stale:       make([]uint64, (words+pageWords*64-1)/(pageWords*64)),
		sink:        obs.Nop(),
		fileVersion: version,
	}
}

// pageWords is the resync granularity of a root pool's Crash.
const (
	pageShift = 9
	pageWords = 1 << pageShift
)

// markStale notes that word i's page may differ between the two images.
func (p *Pool) markStale(i int) {
	p.stale[i>>(pageShift+6)] |= 1 << (uint(i>>pageShift) & 63)
}

// resyncStale copies the durable image over the current one on every
// marked page and clears the marks.
func (p *Pool) resyncStale() {
	for w, marks := range p.stale {
		for marks != 0 {
			lo := (w<<6 + bits.TrailingZeros64(marks)) << pageShift
			hi := min(lo+pageWords, p.words)
			copy(p.cur[lo:hi], p.durable[lo:hi])
			marks &= marks - 1
		}
		p.stale[w] = 0
	}
}

// SetHooks installs durability hooks, replacing any previous ones.
func (p *Pool) SetHooks(h Hooks) { p.hooks = h }

// SetSink installs an observability sink (nil restores the no-op). The
// outgoing sink is flushed first; the incoming one hears only what happens
// from here on.
func (p *Pool) SetSink(s obs.Sink) {
	p.FlushObs()
	p.sink = obs.OrNop(s)
	p.obsOn = p.sink.Enabled()
	p.published = p.stats
}

// FlushObs publishes the activity since the last flush: one Count per
// counter that moved, then the dirty/live gauges sampled from current state
// when something that moves them happened. Load, Store, Persist, Alloc and
// Free only bump the tally, so counters are exact and gauges current at
// every flush and telemetry costs nothing per word. The machine flushes at
// the end of every Call (vm.Machine.ObsFlush); Crash, Promote, SetSink and
// WriteTo flush before their own events so those stay ordered after the
// activity that preceded them. A native program driving the pool without a
// machine calls it wherever it wants its counters current.
func (p *Pool) FlushObs() {
	if !p.obsOn {
		return
	}
	cur, pub := &p.stats, &p.published
	obs.CountDelta(p.sink, "pmem.load", cur.Loads, &pub.Loads)
	stored := obs.CountDelta(p.sink, "pmem.store", cur.Stores, &pub.Stores)
	persisted := obs.CountDelta(p.sink, "pmem.persist", cur.Persists, &pub.Persists)
	obs.CountDelta(p.sink, "pmem.persisted_words", cur.Words, &pub.Words)
	if stored || persisted {
		p.sink.SetGauge("pmem.dirty_words", int64(len(p.dirty)))
	}
	alloced := obs.CountDelta(p.sink, "pmem.alloc", cur.Allocs, &pub.Allocs)
	obs.CountDelta(p.sink, "pmem.alloc_words", cur.allocWords, &pub.allocWords)
	freed := obs.CountDelta(p.sink, "pmem.free", cur.Frees, &pub.Frees)
	obs.CountDelta(p.sink, "pmem.freed_words", cur.freedWords, &pub.freedWords)
	if alloced || freed {
		p.sink.SetGauge("pmem.live_words", int64(p.LiveWords()))
	}
	obs.CountDelta(p.sink, "pmem.crash", cur.Crashes, &pub.Crashes)
}

// HooksInstalled reports whether any persist hook is present.
func (p *Pool) HooksInstalled() bool { return p.hooks.OnPersist != nil }

// AttachFlight associates a flight recorder with the pool: WriteTo embeds
// its event tail in the pool image and ReadPool recovers it. Attach does
// NOT route pool telemetry into f — install it as (part of) the pool's
// Sink for that.
func (p *Pool) AttachFlight(f *obs.Flight) { p.flight = f }

// Flight returns the attached (or recovered) flight recorder, nil if none.
func (p *Pool) Flight() *obs.Flight { return p.flight }

// FormatVersion reports the pool-file format this pool was read from
// (the current format for pools created by New).
func (p *Pool) FormatVersion() int { return p.fileVersion }

// Words returns the pool size in words.
func (p *Pool) Words() int { return p.words }

// Stats returns a copy of the activity counters.
func (p *Pool) Stats() Stats { return p.stats.Stats }

// Contains reports whether addr names a word inside the pool.
func (p *Pool) Contains(addr uint64) bool {
	return addr >= Base && addr < Base+uint64(p.words)
}

func (p *Pool) index(addr uint64) (int, error) {
	if !p.Contains(addr) {
		return 0, fmt.Errorf("%w: %#x", ErrOutOfBounds, addr)
	}
	return int(addr - Base), nil
}

// Load reads one word from the current image.
func (p *Pool) Load(addr uint64) (uint64, error) {
	i, err := p.index(addr)
	if err != nil {
		return 0, err
	}
	// Media verification: one branch on the verified cache; a block whose
	// checksum seal is broken fails the read with ErrMediaCorrupt.
	if err := p.mediaCheck(i); err != nil {
		return 0, err
	}
	p.stats.Loads++
	return p.curAt(i), nil
}

// Store writes one word to the current image. The write is volatile until a
// Persist covering it succeeds.
func (p *Pool) Store(addr uint64, val uint64) error {
	i, err := p.index(addr)
	if err != nil {
		return err
	}
	p.stats.Stores++
	p.setCurAt(i, val)
	p.dirty[addr] = struct{}{}
	return nil
}

// Persist makes [addr, addr+words) durable and fires the persist hook.
// It is the pmem_persist / clwb;sfence analogue. An injected crash mid-
// flush leaves only a prefix of the range durable and suppresses the hook
// (the checkpoint log never learns of a persist that did not complete).
func (p *Pool) Persist(addr uint64, words int) error {
	if err := p.makeDurable(addr, words, DurPersist); err != nil {
		return err
	}
	if p.hooks.OnPersist != nil {
		i := int(addr - Base)
		p.hooks.OnPersist(addr, p.durView(i, words))
	}
	return nil
}

// PersistTx makes every range durable as one atomic transaction commit,
// firing tx-bracketed hooks. It is the libpmemobj TX_COMMIT analogue: the
// caller (VM or native program) tracked the write-set. An injected crash
// mid-commit leaves a prefix of the ranges durable (the last possibly torn)
// with hooks fired only for the completed ranges and no commit bracket —
// exactly the partially-committed transaction state a power failure at a
// tx-commit boundary produces.
func (p *Pool) PersistTx(ranges []Range) error {
	for _, r := range ranges {
		if _, err := p.index(r.Addr); err != nil {
			return err
		}
		if r.Words < 0 || int(r.Addr-Base)+r.Words > p.words {
			return fmt.Errorf("%w: %v", ErrOutOfBounds, r)
		}
	}
	if p.crashLatched {
		return ErrCrashInjected
	}
	if p.hooks.OnTxBegin != nil {
		p.hooks.OnTxBegin()
	}
	for _, r := range ranges {
		if err := p.makeDurable(r.Addr, r.Words, DurTxRange); err != nil {
			return err
		}
		if p.hooks.OnPersist != nil {
			i := int(r.Addr - Base)
			p.hooks.OnPersist(r.Addr, p.durView(i, r.Words))
		}
	}
	if p.hooks.OnTxCommit != nil {
		p.hooks.OnTxCommit()
	}
	return nil
}

func (p *Pool) makeDurable(addr uint64, words int, kind DurKind) error {
	i, err := p.index(addr)
	if err != nil {
		return err
	}
	if words < 0 || i+words > p.words {
		return fmt.Errorf("%w: %v", ErrOutOfBounds, Range{addr, words})
	}
	if p.crashLatched {
		return ErrCrashInjected
	}
	// A crash hook may latch the pool here, truncating the event to its
	// first `words` (possibly zero) words — a torn flush.
	words = p.offerCrash(kind, addr, words)
	p.stats.Persists++
	p.stats.PersistedWords.Words += uint64(words)
	for w := 0; w < words; w++ {
		p.setDurAt(i+w, p.curAt(i+w))
	}
	for w := 0; w < words; w++ {
		delete(p.dirty, addr+uint64(w))
	}
	if p.crashLatched {
		return ErrCrashInjected
	}
	return nil
}

// persistMeta makes allocator/header metadata durable WITHOUT firing hooks:
// allocator internals are not program state and must not pollute the
// checkpoint log (PMDK similarly hides its internal writes). Metadata
// updates are durability events too — an injected crash can tear them,
// which is how the harness reaches the allocator's crash windows.
func (p *Pool) persistMeta(idx, words int) {
	if p.crashLatched {
		return
	}
	words = p.offerCrash(DurMeta, Base+uint64(idx), words)
	for w := 0; w < words; w++ {
		p.setDurAt(idx+w, p.curAt(idx+w))
	}
	for w := 0; w < words; w++ {
		delete(p.dirty, Base+uint64(idx+w))
	}
}

// DirtyWords returns the number of stored-but-unpersisted words.
func (p *Pool) DirtyWords() int { return len(p.dirty) }

// Crash simulates a power failure / process kill: all unflushed stores are
// lost and the current image is rebuilt from the durable one. A root pool
// copies only the pages written since the last Crash; a fork resets its
// overlay.
func (p *Pool) Crash() {
	p.stats.Crashes++
	if p.obsOn {
		p.FlushObs()
		p.sink.Count("pmem.crash_lost_words", int64(len(p.dirty)))
		p.sink.SetGauge("pmem.dirty_words", 0)
	}
	if p.base == nil {
		p.resyncStale()
	} else {
		// Reset every fork-local current word to the durable view, and mask
		// dirty words inherited from the base (stores the base had not yet
		// persisted at fork time) the same way — a fork crash must lose them
		// without touching the base's images.
		for i := range p.curOv {
			p.curOv[i] = p.durAt(i)
		}
		for a := range p.dirty {
			i := int(a - Base)
			p.curOv[i] = p.durAt(i)
		}
	}
	p.dirty = make(map[uint64]struct{})
}

// SetRoot durably records addr in root slot i.
func (p *Pool) SetRoot(i int, addr uint64) error {
	if i < 0 || i >= NumRoots {
		return fmt.Errorf("%w: %d", ErrBadRoot, i)
	}
	if p.crashLatched {
		return ErrCrashInjected
	}
	p.setCurAt(hdrRootBase+i, addr)
	p.persistMeta(hdrRootBase+i, 1)
	if p.crashLatched {
		return ErrCrashInjected
	}
	// Root slots are program data (the durable entry points), not derived
	// allocator state: checkpoint them like any other persist so reversion
	// and the media scrubber have ground truth for them.
	if p.hooks.OnPersist != nil {
		p.hooks.OnPersist(Base+uint64(hdrRootBase+i), p.durView(hdrRootBase+i, 1))
	}
	return nil
}

// Root returns the address stored in root slot i (0 if never set).
func (p *Pool) Root(i int) (uint64, error) {
	if i < 0 || i >= NumRoots {
		return 0, fmt.Errorf("%w: %d", ErrBadRoot, i)
	}
	return p.curAt(hdrRootBase + i), nil
}

// InjectBitFlip flips bit (0..63) of the word at addr in BOTH images,
// simulating a hardware fault that was persisted (paper §2.4 "Hardware
// Faults"). Flipping only the current image simulates a transient fault.
// The flip goes through the checksum-maintaining write path: it models a
// value corrupted BEFORE write-back, which media checksums cannot catch —
// use InjectMediaFault (media.go) for post-write-back corruption that the
// scrubber detects and repairs.
func (p *Pool) InjectBitFlip(addr uint64, bit uint, alsoDurable bool) error {
	i, err := p.index(addr)
	if err != nil {
		return err
	}
	p.setCurAt(i, p.curAt(i)^(1<<(bit&63)))
	if alsoDurable {
		p.setDurAt(i, p.durAt(i)^(1<<(bit&63)))
	}
	return nil
}

// WriteDurable overwrites one durable (and current) word directly. It is the
// primitive the Arthas reactor uses to revert a checkpointed value: reversion
// must itself be durable or the next crash would undo it.
func (p *Pool) WriteDurable(addr uint64, val uint64) error {
	i, err := p.index(addr)
	if err != nil {
		return err
	}
	p.setCurAt(i, val)
	p.setDurAt(i, val)
	delete(p.dirty, addr)
	return nil
}

// ReadDurable reads one word from the durable image.
func (p *Pool) ReadDurable(addr uint64) (uint64, error) {
	i, err := p.index(addr)
	if err != nil {
		return 0, err
	}
	return p.durAt(i), nil
}
