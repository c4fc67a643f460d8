package checkpoint

import (
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"arthas/internal/pmem"
)

// forkRig forks a rig the way a reactor session does.
func forkRig(pool *pmem.Pool, log *Log) (*pmem.Pool, *Log) {
	fp, fl := pool.Fork(), log.Fork()
	fp.SetHooks(fl.Hooks())
	return fp, fl
}

// entryState is an entry's reversion state and retained history.
type entryState struct {
	Addr         uint64
	Words        int
	Live         int
	Dead, Resync bool
	Seqs         []uint64
}

func logState(l *Log) []entryState {
	var out []entryState
	for _, e := range l.Entries() {
		st := entryState{Addr: e.Addr, Words: e.Words, Live: e.live, Dead: e.dead, Resync: e.resynced}
		for _, v := range e.Versions {
			st.Seqs = append(st.Seqs, v.Seq)
		}
		out = append(out, st)
	}
	return out
}

func TestForkRevertsLeaveBaseUntouched(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(4)
	for gen := uint64(1); gen <= 3; gen++ {
		for i := uint64(0); i < 4; i++ {
			pool.Store(a+i, gen*100+i)
			pool.Persist(a+i, 1)
		}
	}
	before, state := pool.DurableImage(), logState(log)

	// Scramble the fork: revert entries newest-first so step-downs rewrite
	// words (oldest-first would only kill entries, leaving unowned words
	// as-is).
	fp, fl := forkRig(pool, log)
	seqs := fl.AllSeqs()
	for i := len(seqs) - 1; i >= 0; i-- {
		fl.Revert(fp, seqs[i])
	}
	if slices.Equal(fp.DurableImage(), before) || fl.RevertedVersions() == 0 {
		t.Fatal("reverts changed nothing; test is vacuous")
	}
	if !slices.Equal(pool.DurableImage(), before) {
		t.Fatal("fork reverts reached the base's durable image")
	}
	if got := logState(log); !reflect.DeepEqual(got, state) || log.RevertedVersions() != 0 {
		t.Fatalf("fork reverts reached the base log:\n got %+v\nwant %+v", got, state)
	}
}

func TestAdoptTakesForkEntries(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(2)
	pool.Store(a, 1)
	pool.Persist(a, 1)
	pool.Store(a, 2)
	pool.Persist(a, 1)
	fp, fl := forkRig(pool, log)
	// The fork creates an entry and moves an old one's cursor.
	fp.Store(a+1, 9)
	fp.Persist(a+1, 1)
	if _, err := fl.Revert(fp, 2); err != nil {
		t.Fatal(err)
	}
	if log.NumEntries() != 1 || log.EntryAt(a).LiveVersion().Data[0] != 2 {
		t.Fatal("the fork's writes reached the base before Adopt")
	}
	log.Adopt(fl)
	if err := fp.Promote(); err != nil {
		t.Fatal(err)
	}
	if v, _ := pool.ReadDurable(a + 1); v != 9 || log.EntryAt(a+1) == nil {
		t.Fatalf("entry created in the fork was not adopted: durable %d", v)
	}
	if v, _ := pool.ReadDurable(a); v != 1 || log.EntryAt(a).LiveVersion().Data[0] != 1 {
		t.Fatalf("the fork's revert was not adopted: durable %d", v)
	}
	// The adopted log keeps working as a root.
	pool.Store(a, 3)
	pool.Persist(a, 1)
	if e := log.EntryBySeq(log.Seq()); e == nil || e != log.EntryAt(a) {
		t.Fatal("a persist after Adopt is not indexed under the adopted entry")
	}
	if rep := log.Validate(); !rep.OK() {
		t.Fatalf("adopted log invalid: %v", rep)
	}
}

// Property: arbitrary reverts and persists on a fork, adopted and promoted,
// leave the same pool and log as running them in place — and until the
// adoption the base is untouched.
func TestPropForkAdoptMatchesInPlace(t *testing.T) {
	f := func(writes, ops []uint8) bool {
		build := func() (*pmem.Pool, *Log, uint64) {
			pool, log := newRig(3)
			a, _ := pool.Alloc(16)
			for i, w := range writes {
				if i > 40 {
					break
				}
				addr := a + uint64(w%15)
				pool.Store(addr, uint64(i)*7+1)
				pool.Persist(addr, int(1+w%2))
			}
			return pool, log, a
		}
		inPool, inLog, a := build()
		basePool, baseLog, _ := build()
		if inLog.Seq() == 0 {
			return true
		}
		image, state := basePool.DurableImage(), logState(baseLog)
		fp, fl := forkRig(basePool, baseLog)
		seqs := inLog.AllSeqs()
		for i, op := range ops {
			if i > 20 {
				break
			}
			if op%4 == 0 { // a probe's persist: appends, may drop the oldest
				addr := a + uint64(op/4%16)
				inPool.Store(addr, uint64(op)+1000)
				inPool.Persist(addr, 1)
				fp.Store(addr, uint64(op)+1000)
				fp.Persist(addr, 1)
				continue
			}
			s := seqs[int(op)%len(seqs)]
			n1, err1 := inLog.Revert(inPool, s)
			n2, err2 := fl.Revert(fp, s)
			if n1 != n2 || (err1 == nil) != (err2 == nil) {
				return false
			}
		}
		if !slices.Equal(basePool.DurableImage(), image) || !reflect.DeepEqual(logState(baseLog), state) {
			return false
		}
		baseLog.Adopt(fl)
		if fp.Promote() != nil {
			return false
		}
		return slices.Equal(basePool.DurableImage(), inPool.DurableImage()) &&
			reflect.DeepEqual(logState(baseLog), logState(inLog)) &&
			slices.Equal(baseLog.AllSeqs(), inLog.AllSeqs()) &&
			baseLog.RevertedVersions() == inLog.RevertedVersions() &&
			baseLog.Validate().OK()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestResyncOnlyOwnedWords(t *testing.T) {
	pool, log := newRig(3)
	a, _ := pool.Alloc(4)
	pool.Store(a, 1)
	pool.Store(a+1, 2)
	pool.Persist(a, 2) // entry (a,2)
	pool.Store(a+1, 22)
	pool.Persist(a+1, 1) // newer entry (a+1,1) owns word a+1
	// Corrupt both words out-of-band.
	pool.WriteDurable(a, 100)
	pool.WriteDurable(a+1, 200)
	// Resyncing the old wide entry fixes only word a (its owned word).
	n, err := log.Resync(pool, 1)
	if err != nil || n != 1 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	v0, _ := pool.ReadDurable(a)
	v1, _ := pool.ReadDurable(a + 1)
	if v0 != 1 {
		t.Fatalf("owned word not resynced: %d", v0)
	}
	if v1 != 200 {
		t.Fatalf("unowned word was touched: %d", v1)
	}
	// Resyncing the owner fixes the other word.
	if n, _ := log.Resync(pool, 2); n != 1 {
		t.Fatalf("owner resync n=%d", n)
	}
	v1, _ = pool.ReadDurable(a + 1)
	if v1 != 22 {
		t.Fatalf("word a+1 = %d", v1)
	}
}
