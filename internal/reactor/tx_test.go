package reactor

import (
	"testing"

	"arthas/internal/vm"
)

// txStore commits semantically-paired fields through libpmemobj-style
// transactions. The §4.6 guarantee under test: when the reactor reverts one
// checkpoint entry of a transaction, it reverts the whole transaction, so a
// recovered system never holds half a commit.
const txStore = `
fn init_() {
    var root = pmalloc(8);
    txbegin();
    root[0] = 1;    // balance A
    root[4] = 1;    // balance B, non-adjacent (invariant: A + B == 2)
    txcommit();
    setroot(0, root);
    return 0;
}

// transfer moves amount from A to B atomically.
fn transfer(amount) {
    var root = getroot(0);
    txbegin();
    root[0] = root[0] - amount;
    root[4] = root[4] + amount;
    txcommit();
    return 0;
}

// The bug: a special amount corrupts BOTH balances inside one transaction
// (a logic error committed atomically).
fn transfer_buggy(amount) {
    var root = getroot(0);
    txbegin();
    root[0] = amount * 1000;
    root[4] = amount * 2000;
    txcommit();
    return 0;
}

fn check() {
    var root = getroot(0);
    assert(root[0] + root[4] == 2);
    return root[0];
}
fn recover_() { return 0; }
`

func TestTransactionRevertedAsUnit(t *testing.T) {
	r := newRig(t, txStore)
	if _, trap := r.m.Call("init_"); trap != nil {
		t.Fatal(trap)
	}
	for i := int64(0); i < 5; i++ {
		if _, trap := r.m.Call("transfer", 1); trap != nil {
			t.Fatal(trap)
		}
		if _, trap := r.m.Call("transfer", -1); trap != nil {
			t.Fatal(trap)
		}
	}
	r.m.Call("transfer_buggy", 7)
	_, trap := r.m.Call("check")
	if trap == nil || trap.Kind != vm.TrapAssert {
		t.Fatalf("trap = %v", trap)
	}

	rep := Mitigate(DefaultConfig(), r.context(trap, calls("check")))
	if !rep.Recovered {
		t.Fatalf("not recovered: %v (last %v)", rep, rep.LastTrap)
	}

	// Both balances must be from the SAME committed transaction: the
	// invariant holds (check passed) and values are a pre-bug pair.
	r.restart()
	a, tp := r.m.Call("check")
	if tp != nil {
		t.Fatal(tp)
	}
	b, _ := r.pool.Root(0)
	bv, _ := r.pool.ReadDurable(b + 4)
	if a+int64(bv) != 2 {
		t.Fatalf("balances %d + %d != 2: transaction torn by reversion", a, int64(bv))
	}
}

func TestTransactionLogGrouping(t *testing.T) {
	r := newRig(t, txStore)
	r.m.Call("init_")
	r.m.Call("transfer", 1)
	// Each commit's entries share a transaction id.
	seqs := r.log.AllSeqs()
	if len(seqs) < 4 {
		t.Fatalf("seqs = %v", seqs)
	}
	last := seqs[len(seqs)-1]
	tx := r.log.TxOf(last)
	if tx == 0 {
		t.Fatal("transactional persist has no tx id")
	}
	members := r.log.SeqsInTx(tx)
	if len(members) < 2 {
		t.Fatalf("tx members = %v (both balances must be grouped)", members)
	}
	// And the init transaction is a different group.
	if r.log.TxOf(seqs[0]) == tx {
		t.Fatal("separate commits share a tx id")
	}
}
