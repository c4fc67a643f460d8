package arthas

import (
	"reflect"
	"testing"
	"time"
)

// A multi-candidate hard fault engineered so the healing reversion sits
// DEEP in the plan order: check() reads every cell through one hot load
// instruction, so candidates follow address recency — and the poisoned
// write to cell 2 is older than a full round of benign writes to the other
// cells. At one worker the search must fail through every newer candidate
// before reaching it; with more it probes candidates on copy-on-write
// forks, Workers at a time, with an identical outcome.
//
// Each re-execution restarts the system, and the benchmark instances carry
// a simulated RestartLatency (a real PM system pays process exec + pool
// remap + recovery scan per restart; the in-memory Restart is otherwise
// instant). Restart latency is what dominates real mitigation time, and it
// is what speculative sessions overlap — so it is the honest quantity to
// measure even on a single-core host, where the probes' interpreter CPU
// time cannot itself parallelize.
const checksumSource = `
fn init_() {
    var root = pmalloc(12);
    var i = 0;
    while (i < 8) {
        root[i] = 1;
        i = i + 1;
    }
    persist(root, 8);
    setroot(0, root);
    return 0;
}
fn set(i, v) {
    var root = getroot(0);
    root[i] = v;
    persist(root + i, 1);
    return 0;
}
fn check() {
    var root = getroot(0);
    var bad = 0;
    var sum = 0;
    var r = 0;
    while (r < 200) {
        var i = 0;
        while (i < 8) {
            var v = root[i];
            sum = sum + v;
            if (v > 999) {
                bad = 1;
            }
            i = i + 1;
        }
        r = r + 1;
    }
    assert(bad == 0);
    return sum;
}
`

// deployChecksum builds the instance, poisons cell 2, buries the poisoned
// write under a newer benign write to every other cell, and observes the
// failing check.
func deployChecksum(tb testing.TB, workers int) *Instance {
	tb.Helper()
	cfg := Config{RestartLatency: 4 * time.Millisecond}
	cfg.Reactor.Workers = workers
	inst, err := New("checksum", checksumSource, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if _, trap := inst.Call("init_"); trap != nil {
		tb.Fatal(trap)
	}
	for i := int64(0); i < 8; i++ {
		if _, trap := inst.Call("set", i, 10+i); trap != nil {
			tb.Fatal(trap)
		}
	}
	inst.Call("set", 2, 5000) // the hard fault: a persisted bad value
	for i := int64(0); i < 8; i++ {
		if i == 2 {
			continue
		}
		inst.Call("set", i, 20+i) // newer benign writes rank first in the plan
	}
	_, trap := inst.Call("check")
	if trap == nil {
		tb.Fatal("corrupted checksum did not trap")
	}
	inst.Observe(trap)
	return inst
}

func benchmarkMitigate(b *testing.B, workers int) {
	for n := 0; n < b.N; n++ {
		b.StopTimer()
		inst := deployChecksum(b, workers)
		b.StartTimer()
		rep, err := inst.MitigateCall("check")
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Recovered {
			b.Fatal("not recovered")
		}
	}
}

// Compare re-execution wall time across worker counts with
// `go test -bench Mitigate`; the speculative search at -workers 4 cuts the
// deep-winner search time well over 2x.
func BenchmarkMitigateWorkers1(b *testing.B) { benchmarkMitigate(b, 1) }
func BenchmarkMitigateWorkers2(b *testing.B) { benchmarkMitigate(b, 2) }
func BenchmarkMitigateWorkers4(b *testing.B) { benchmarkMitigate(b, 4) }

// The parallel search must land on the same mitigation as the sequential
// one — same reverted sequences, same attempt charges — and the winner must
// genuinely be deep in the plan (a shallow winner would make the benchmark
// above measure nothing).
func TestParallelMitigateCallMatchesSequential(t *testing.T) {
	outcome := func(workers int) *Report {
		inst := deployChecksum(t, workers)
		rep, err := inst.MitigateCall("check")
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Recovered {
			t.Fatalf("workers=%d: not recovered", workers)
		}
		if _, trap := inst.Call("check"); trap != nil {
			t.Fatalf("workers=%d: still failing after mitigation: %v", workers, trap)
		}
		return rep
	}
	seq := outcome(1)
	if seq.Attempts < 8 {
		t.Fatalf("winner too shallow for a meaningful search: %d attempts", seq.Attempts)
	}
	for _, w := range []int{2, 4, 8} {
		par := outcome(w)
		if par.Attempts != seq.Attempts || par.FellBack != seq.FellBack ||
			par.ModeUsed != seq.ModeUsed || par.Replans != seq.Replans ||
			!reflect.DeepEqual(par.RevertedSeqs, seq.RevertedSeqs) {
			t.Fatalf("workers=%d diverged from sequential:\n  seq: attempts=%d seqs=%v\n  par: attempts=%d seqs=%v",
				w, seq.Attempts, seq.RevertedSeqs, par.Attempts, par.RevertedSeqs)
		}
	}
}
