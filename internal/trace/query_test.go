package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// recency is AddrsByRecency for one GUID.
func recency(tr *Trace, guid int) []uint64 { return tr.AddrsByRecency([]int{guid})[0] }

// indexOracle is the lazily built index the trace answered queries from
// before its queries became passes over the retained events: per-GUID
// write addresses, and per-GUID last-touch times that each query
// incrementally extends with new writes and overlays with the whole read
// ring. It keeps a read's touch after the read has left the ring, so it
// agrees with the trace only while no read it has seen was evicted.
type indexOracle struct {
	indexed, ringIndexed int
	byGUID               map[int][]uint64
	lastTouch            map[int]map[uint64]uint64
}

func newIndexOracle() *indexOracle {
	return &indexOracle{byGUID: map[int][]uint64{}, lastTouch: map[int]map[uint64]uint64{}}
}

func (o *indexOracle) sync(t *Trace) {
	t.Flush()
	touch := func(guid int, addr, idx uint64) {
		lt := o.lastTouch[guid]
		if lt == nil {
			lt = map[uint64]uint64{}
			o.lastTouch[guid] = lt
		}
		if idx >= lt[addr] {
			lt[addr] = idx
		}
	}
	for _, e := range t.flushed[o.indexed:] {
		addrs := o.byGUID[e.GUID]
		if len(addrs) == 0 || addrs[len(addrs)-1] != e.Addr {
			o.byGUID[e.GUID] = append(addrs, e.Addr)
		}
		touch(e.GUID, e.Addr, e.Idx)
	}
	o.indexed = len(t.flushed)
	if t.ringNext != o.ringIndexed {
		n := t.ringNext
		if n > ringSize {
			n = ringSize
		}
		for i := 0; i < n; i++ {
			if e := t.ring[i]; e.GUID != 0 {
				touch(e.GUID, e.Addr, e.Idx)
			}
		}
		o.ringIndexed = t.ringNext
	}
}

func (o *indexOracle) addrsOfGUID(guid int) []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, a := range o.byGUID[guid] {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

func (o *indexOracle) byRecency(guid int) []uint64 {
	lt := o.lastTouch[guid]
	out := make([]uint64, 0, len(lt))
	for a := range lt {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		if lt[out[i]] != lt[out[j]] {
			return lt[out[i]] > lt[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// checkAgainst compares every query for GUIDs 0..maxGUID+1 — batched,
// with a repeat and a GUID nothing touched — against the oracle.
func checkAgainst(t *testing.T, tr *Trace, o *indexOracle, maxGUID int, at string) {
	t.Helper()
	guids := []int{2}
	for g := 0; g <= maxGUID+1; g++ {
		guids = append(guids, g)
	}
	byWrite, byRec := tr.AddrsByFirstWrite(guids), tr.AddrsByRecency(guids)
	for i, g := range guids {
		if want := o.addrsOfGUID(g); !reflect.DeepEqual(byWrite[i], want) {
			t.Fatalf("%s: AddrsByFirstWrite[%d] (guid %d) = %v, oracle %v", at, i, g, byWrite[i], want)
		}
		if i == 0 {
			if got := tr.AddrsOfGUID(g); !reflect.DeepEqual(got, byWrite[i]) {
				t.Fatalf("%s: AddrsOfGUID(%d) = %v, batched %v", at, g, got, byWrite[i])
			}
		}
		if want := o.byRecency(g); !reflect.DeepEqual(append([]uint64{}, byRec[i]...), want) {
			t.Fatalf("%s: AddrsByRecency[%d] (guid %d) = %v, oracle %v", at, i, g, byRec[i], want)
		}
	}
}

// The index-free queries answer what the lazy index answered, over random
// writes and reads that wrap the read ring, at every query point where no
// read has left the ring since the previous one. Where one has, the
// incremental index would still remember it, so the oracle is rebuilt
// from the retained events instead.
func TestQueriesMatchIndexOracle(t *testing.T) {
	const maxGUID = 12
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		tr.BufSize = 1 + rng.Intn(64)
		o := newIndexOracle()
		prevOldest, incremental, rebuilt := 0, 0, 0
		for tr.Reads() < 2*ringSize+ringSize/3 {
			// A burst of mostly reads, sometimes long enough to evict.
			n := 1 + rng.Intn(2000)
			if rng.Intn(8) == 0 {
				n = rng.Intn(ringSize / 2)
			}
			for i := 0; i < n; i++ {
				g, a := 1+rng.Intn(maxGUID), uint64(1000+rng.Intn(300))
				if rng.Intn(4) == 0 {
					tr.Record(g, a)
				} else {
					tr.RecordRead(g, a)
				}
			}
			if tr.oldestRead() != prevOldest {
				o = newIndexOracle()
				rebuilt++
			} else {
				incremental++
			}
			prevOldest = tr.oldestRead()
			o.sync(tr)
			checkAgainst(t, tr, o, maxGUID, "live")
		}
		if incremental == 0 || rebuilt == 0 {
			t.Fatalf("seed %d: %d incremental and %d rebuilt comparisons; want both", seed, incremental, rebuilt)
		}
	}
}

// record drives the same random history into every trace given.
func record(rng *rand.Rand, n int, trs ...*Trace) {
	for i := 0; i < n; i++ {
		g, a := 1+rng.Intn(9), uint64(rng.Intn(500))
		read := rng.Intn(5) != 0
		for _, tr := range trs {
			if read {
				tr.RecordRead(g, a)
			} else {
				tr.Record(g, a)
			}
		}
	}
}

func reopen(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func checkSameAnswers(t *testing.T, a, b *Trace, at string) {
	t.Helper()
	guids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for name, query := range map[string]func(*Trace) [][]uint64{
		"AddrsByRecency":    func(tr *Trace) [][]uint64 { return tr.AddrsByRecency(guids) },
		"AddrsByFirstWrite": func(tr *Trace) [][]uint64 { return tr.AddrsByFirstWrite(guids) },
	} {
		got, want := query(a), query(b)
		for i, g := range guids {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: %s differs for guid %d (%d vs %d addresses)", at, name, g, len(got[i]), len(want[i]))
			}
		}
	}
	if !reflect.DeepEqual(a.Events(), b.Events()) {
		t.Fatalf("%s: write events differ", at)
	}
}

// A trace reopened from its image answers what the live trace answers,
// also after both record more: the reopened ring keeps evicting its
// oldest read, whatever slot the live ring had reached when it was saved.
func TestReopenedTraceMatchesLiveTwin(t *testing.T) {
	for _, k := range []int{0, 1, 37, ringSize/2 + 3} {
		rng := rand.New(rand.NewSource(int64(k) + 1))
		live, saved := New(), New()
		record(rng, ringSize+k, live, saved)
		live.AddrsByRecency([]int{1, 2, 3}) // a query before the save
		got := reopen(t, saved)
		checkSameAnswers(t, got, live, "after reopen")
		for _, more := range []int{1, 100, ringSize - 1} {
			record(rng, more, got, live)
			checkSameAnswers(t, got, live, "after more records")
		}
	}
}

// Recency counts only retained touches: a read that has left the ring no
// longer orders (or contributes) its address, in a live trace and in a
// reopened one alike.
func TestRecencyForgetsEvictedReads(t *testing.T) {
	tr := New()
	tr.Record(1, 100)
	tr.RecordRead(1, 200) // newest touch of guid 1, for now
	if got := recency(tr, 1); !reflect.DeepEqual(got, []uint64{200, 100}) {
		t.Fatalf("before eviction: %v", got)
	}
	for i := 0; i < ringSize; i++ {
		tr.RecordRead(2, 300)
	}
	for _, q := range []*Trace{tr, reopen(t, tr)} {
		if got := recency(q, 1); !reflect.DeepEqual(got, []uint64{100}) {
			t.Fatalf("after eviction: %v", got)
		}
	}
}

// BenchmarkAddrsByRecency is a heal's planning query: a batch of slice
// nodes' GUIDs against a trace holding tens of thousands of writes and a
// full read ring. As in the fleet's heal, most events belong to a wanted
// GUID, and each GUID keeps touching a few hundred addresses.
func BenchmarkAddrsByRecency(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := New()
	event := func() (int, uint64) {
		g := 1 + rng.Intn(40)
		return g, uint64(g<<10 + rng.Intn(170))
	}
	for i := 0; i < 26_000; i++ {
		tr.Record(event())
		for r := rng.Intn(6); r > 0; r-- {
			tr.RecordRead(event())
		}
	}
	guids := make([]int, 34)
	for i := range guids {
		guids[i] = 1 + i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchAddrs = tr.AddrsByRecency(guids)
	}
}

var benchAddrs [][]uint64
