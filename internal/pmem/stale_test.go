package pmem

import (
	"math/bits"
	"math/rand"
	"testing"
)

// A root pool's Crash copies only the pages marked stale. These tests hold
// it to the whole-image copy it replaced: after every Crash the current
// image equals the durable one word for word, whatever wrote either image
// since the last Crash.

func stalePages(p *Pool) int {
	n := 0
	for _, w := range p.stale {
		n += bits.OnesCount64(w)
	}
	return n
}

// crashAndCheck crashes p and asserts that the current image is the
// durable image from before the crash, which itself is untouched.
func crashAndCheck(t *testing.T, p *Pool, at string) {
	t.Helper()
	want := p.DurableImage()
	p.Crash()
	for i := range want {
		if p.cur[i] != want[i] || p.durable[i] != want[i] {
			t.Fatalf("%s: word %d after Crash: cur %#x durable %#x, want %#x",
				at, i, p.cur[i], p.durable[i], want[i])
		}
	}
	if n := stalePages(p); n != 0 {
		t.Fatalf("%s: %d pages still marked after Crash", at, n)
	}
}

type block struct {
	addr  uint64
	words int
}

// poolOps drives random mutations through every path that writes either
// image of p, keeping blocks (the live allocations) current.
type poolOps struct {
	rng    *rand.Rand
	p      *Pool
	blocks []block
}

func (o *poolOps) word() (uint64, bool) {
	if len(o.blocks) == 0 {
		return 0, false
	}
	b := o.blocks[o.rng.Intn(len(o.blocks))]
	return b.addr + uint64(o.rng.Intn(b.words)), true
}

// step applies one random mutation and names it. Media faults stay inside
// live payloads so the allocator's metadata stays walkable.
func (o *poolOps) step() string {
	rng, p := o.rng, o.p
	switch k := rng.Intn(12); {
	case k == 0 || len(o.blocks) < 3:
		words := 1 + rng.Intn(400) // some blocks span page boundaries
		alloc := p.Alloc
		if rng.Intn(2) == 0 {
			alloc = p.Zalloc
		}
		if a, err := alloc(words); err == nil {
			o.blocks = append(o.blocks, block{a, words})
		}
		return "alloc"
	case k == 1:
		i := rng.Intn(len(o.blocks))
		_ = p.Free(o.blocks[i].addr) // a corrupted header may refuse; either way it is gone
		o.blocks = append(o.blocks[:i], o.blocks[i+1:]...)
		return "free"
	case k == 2:
		for n := rng.Intn(20); n >= 0; n-- {
			a, _ := o.word()
			_ = p.Store(a, rng.Uint64())
		}
		return "store"
	case k == 3:
		b := o.blocks[rng.Intn(len(o.blocks))]
		_ = p.Persist(b.addr, 1+rng.Intn(b.words))
		return "persist"
	case k == 4:
		var ranges []Range
		for n := 1 + rng.Intn(3); n > 0; n-- {
			b := o.blocks[rng.Intn(len(o.blocks))]
			_ = p.Store(b.addr, rng.Uint64())
			ranges = append(ranges, Range{b.addr, b.words})
		}
		_ = p.PersistTx(ranges)
		return "tx"
	case k == 5:
		a, _ := o.word()
		_ = p.InjectBitFlip(a, uint(rng.Intn(64)), rng.Intn(2) == 0)
		return "bitflip"
	case k == 6:
		b := o.blocks[rng.Intn(len(o.blocks))]
		off := rng.Intn(b.words)
		f := MediaFault{Kind: MediaFaultKind(rng.Intn(3)), Addr: b.addr + uint64(off),
			Bits: rng.Uint64(), Words: 1 + rng.Intn(b.words-off), Value: rng.Uint64()}
		if f.Kind == MediaStrayWrite {
			src := o.blocks[rng.Intn(len(o.blocks))]
			f.Src, f.Words = src.addr, min(f.Words, src.words)
		}
		if _, err := p.InjectMediaFault(f); err != nil {
			panic(err)
		}
		return "media"
	case k == 7:
		a, _ := o.word()
		_ = p.RepairDurable(a, rng.Uint64())
		return "repair"
	case k == 8:
		a, _ := o.word()
		_ = p.WriteDurable(a, rng.Uint64())
		return "writedurable"
	case k == 9:
		snap, blocks := p.TakeSnapshot(0), append([]block(nil), o.blocks...)
		for n := rng.Intn(4); n > 0; n-- {
			o.step()
		}
		if err := p.RestoreSnapshot(snap); err != nil {
			panic(err)
		}
		o.blocks = blocks
		return "restore"
	default:
		// A fork mutates its overlay, sometimes crashes, and is promoted.
		f := p.Fork()
		fo := &poolOps{rng: rng, p: f, blocks: append([]block(nil), o.blocks...)}
		for n := 1 + rng.Intn(6); n > 0; n-- {
			fo.step()
			if rng.Intn(4) == 0 {
				f.Crash()
			}
		}
		if err := f.Promote(); err != nil {
			panic(err)
		}
		o.blocks = fo.blocks
		return "promote"
	}
}

func TestCrashResyncsWhatEveryWritePathTouched(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Not a whole number of pages: the last page is short.
		ops := &poolOps{rng: rng, p: New(6*pageWords + 77)}
		crashAndCheck(t, ops.p, "fresh pool")
		seen := map[string]int{}
		for i := 0; i < 600; i++ {
			op := ops.step()
			seen[op]++
			if rng.Intn(3) == 0 {
				crashAndCheck(t, ops.p, op)
			}
		}
		crashAndCheck(t, ops.p, "end")
		if len(seen) != 11 {
			t.Fatalf("seed %d exercised only %v", seed, seen)
		}
	}
}

// Crash after k stores on k distinct pages copies exactly those k pages: a
// current-image word planted, unmarked, on every other page survives it.
func TestCrashCopiesOnlyStalePages(t *testing.T) {
	p := New(32 * pageWords)
	p.Crash()
	pages := []int{1, 4, 5, 17, 31}
	for _, pg := range pages {
		if err := p.Store(Base+uint64(pg*pageWords+100), 42); err != nil {
			t.Fatal(err)
		}
	}
	if n := stalePages(p); n != len(pages) {
		t.Fatalf("%d stores on distinct pages marked %d pages", len(pages), n)
	}
	const planted = 0xBAD
	for pg := 0; pg < 32; pg++ {
		p.cur[pg*pageWords+7] = planted
	}
	p.Crash()
	copied := 0
	for pg := 0; pg < 32; pg++ {
		if p.cur[pg*pageWords+7] != planted {
			copied++
		}
	}
	if copied != len(pages) {
		t.Fatalf("Crash copied %d pages, want %d", copied, len(pages))
	}
	for _, pg := range pages {
		if v := p.cur[pg*pageWords+100]; v != 0 {
			t.Fatalf("unpersisted store on page %d survived Crash: %d", pg, v)
		}
	}
}

// BenchmarkCrash is one restart's pool work on a fleet-sized pool: a probe
// dirties a few words, then the pool crashes.
func BenchmarkCrash(b *testing.B) {
	p := New(1 << 18)
	for i := 0; i < b.N; i++ {
		for w := uint64(0); w < 4; w++ {
			p.Store(Base+heapStart+w*997, uint64(i))
		}
		p.Crash()
	}
}
