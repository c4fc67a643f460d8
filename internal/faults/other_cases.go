package faults

import (
	"fmt"
	"sync/atomic"

	"arthas"
	"arthas/internal/detector"
	"arthas/internal/ir"
	"arthas/internal/systems"
	"arthas/internal/vm"
)

func rdWorkload(rd *systems.RD, ops int, tick func() bool) {
	for i := 0; i < ops; i++ {
		k := int64(i%80 + 1)
		if i%4 == 3 {
			rd.Get(k)
		} else {
			rd.Set(k, k*7)
		}
		if tick != nil && !tick() {
			return
		}
	}
}

func rdConsistency(rd *systems.RD) error {
	if rep := rd.Pool.CheckIntegrity(); !rep.OK() {
		return fmt.Errorf("pool check: %v", rep)
	}
	for i := int64(0); i < 40; i++ {
		k := 500 + i%10
		if err := rd.Set(k, k); err != nil {
			return err
		}
		if _, err := rd.Get(k); err != nil {
			return err
		}
	}
	return nil
}

func rdInvariants(rd *systems.RD) bool {
	count, trap := rd.Call("rd_count")
	if trap != nil {
		return true
	}
	walked, trap := rd.Call("rd_walk_count")
	if trap != nil {
		return true
	}
	return count != walked
}

// F6: Redis listpack buffer overflow -> segfault.
func F6() Builder {
	return Builder{
		Meta: Meta{
			ID: "f6", System: "redis",
			Fault:       "Listpack buffer overflow",
			Consequence: "Segfault",
			Kind:        detector.FailCrash,
			AddrFault:   true,
			// A stored listpack size beyond its block is checkable
			// (Table 7 ✓).
			InvariantDetectable: true,
		},
		New: func(cfg arthas.Config) (*Case, error) {
			rd, err := systems.NewRD(cfg)
			if err != nil {
				return nil, err
			}
			c := &Case{D: rd.Instance}
			c.Meta = F6().Meta
			created := false
			c.Workload = func(ops int, tick func() bool) {
				if !created {
					created = true
					rd.Call("rd_lp_new", 401, 200)
					for i := int64(1); i <= 40; i++ {
						rd.Call("rd_lp_append", 401, i)
						if tick != nil && !tick() {
							return
						}
					}
					ops -= 40
				}
				rdWorkload(rd, ops, tick)
			}
			c.Trigger = func() *vm.Trap {
				// Push the pack past the 96-word encoding boundary.
				for i := int64(41); i <= 96; i++ {
					rd.Call("rd_lp_append", 401, i)
				}
				return nil
			}
			c.Probe = arthas.CallProbe("rd_get", 401)
			c.FaultInstrs = instrOfTrap
			c.Consistency = func() error {
				if err := rdConsistency(rd); err != nil {
					return err
				}
				if _, err := rd.Get(401); err != nil {
					return err
				}
				return nil
			}
			c.RunInvariants = func() bool {
				// Invariant: listpack used-size fits its block.
				e, trap := rd.Call("rd_find", 401)
				if trap != nil || e == 0 {
					return true
				}
				obj, _ := rd.Pool.Load(uint64(e) + 1)
				lp, _ := rd.Pool.Load(uint64(obj) + 2)
				used, _ := rd.Pool.Load(lp)
				size, err := rd.Pool.BlockSize(lp)
				if err != nil {
					return true
				}
				return int(used) > size
			}
			return c, nil
		},
	}
}

// F7: Redis logic bug in refcount -> server panic.
func F7() Builder {
	return Builder{
		Meta: Meta{
			ID: "f7", System: "redis",
			Fault:       "Logic bug in refcount",
			Consequence: "Server panic",
			Kind:        detector.FailPanic,
		},
		New: func(cfg arthas.Config) (*Case, error) {
			rd, err := systems.NewRD(cfg)
			if err != nil {
				return nil, err
			}
			c := &Case{D: rd.Instance}
			c.Meta = F7().Meta
			c.Workload = func(ops int, tick func() bool) {
				rd.Call("rd_share", 301)
				rd.Call("rd_share", 302)
				rdWorkload(rd, ops-2, tick)
			}
			c.Trigger = func() *vm.Trap {
				// Release both references through the buggy
				// double-decrement path: the refcount goes negative, the
				// shared object is freed and poisoned while the dict
				// still points at it.
				rd.Call("rd_unshare", 301, 1)
				rd.Call("rd_unshare", 302, 1)
				return nil
			}
			c.Probe = arthas.CallProbe("rd_get", 301)
			c.FaultInstrs = instrOfTrap
			c.Consistency = func() error {
				if err := rdConsistency(rd); err != nil {
					return err
				}
				// The purge-mode inconsistency the paper reports for f7:
				// the key is back but its value object was freed at the
				// allocator level — GET on a key whose object is not a
				// live allocation is semantically inconsistent.
				e, trap := rd.Call("rd_find", 301)
				if trap != nil {
					return trap
				}
				if e != 0 {
					obj, _ := rd.Pool.Load(uint64(e) + 1)
					if obj != 0 && !rd.Pool.IsAllocated(obj) {
						return fmt.Errorf("key 301 references a freed object")
					}
				}
				return nil
			}
			c.RunInvariants = func() bool { return rdInvariants(rd) }
			return c, nil
		},
	}
}

// F8: Redis slowlogEntry leak -> persistent leak. The trigger happens
// naturally as the slowlog churns (like the paper's f8).
func F8() Builder {
	return Builder{
		Meta: Meta{
			ID: "f8", System: "redis",
			Fault:       "slowlogEntry leak",
			Consequence: "Persistent leak",
			Kind:        detector.FailLeak,
			IsLeak:      true,
		},
		New: func(cfg arthas.Config) (*Case, error) {
			sys := systems.Redis()
			sys.PoolWords = 1 << 13 // small pool so the leak matters
			d, err := systems.Deploy(sys, cfg)
			if err != nil {
				return nil, err
			}
			rd := &systems.RD{Instance: d}
			c := &Case{D: d}
			c.Meta = F8().Meta
			c.Workload = func(ops int, tick func() bool) {
				for i := 0; i < ops; i++ {
					rd.Set(int64(i%20+1), int64(i))
					if tick != nil && !tick() {
						return
					}
				}
			}
			// The trigger durably enables the slowlog: from here every
			// command leaks a trimmed entry.
			c.Trigger = func() *vm.Trap {
				rd.Call("rd_slowlog_on")
				return nil
			}
			c.Probe = func(on *arthas.Instance) *vm.Trap {
				if trap := on.Restart(); trap != nil {
					return trap
				}
				if on.Detector.CheckLeak(on.Pool) {
					return synthetic(1008, "PM usage above leak threshold")
				}
				_, trap := on.Call("rd_get", 5)
				return trap
			}
			c.FaultInstrs = func(*vm.Trap) []*ir.Instr { return nil } // leak path
			c.Consistency = func() error { return rdConsistency(rd) }
			c.RunInvariants = func() bool { return rdInvariants(rd) }
			return c, nil
		},
	}
}

// F9: CCEH directory doubling bug -> infinite loop.
func F9() Builder {
	return Builder{
		Meta: Meta{
			ID: "f9", System: "cceh",
			Fault:       "directory doubling bug",
			Consequence: "Infinite loop",
			Kind:        detector.FailHang,
		},
		New: func(cfg arthas.Config) (*Case, error) {
			if cfg.StepLimit == 0 {
				cfg.StepLimit = 300_000
			}
			cc, err := systems.NewCC(cfg)
			if err != nil {
				return nil, err
			}
			c := &Case{D: cc.Instance}
			c.Meta = F9().Meta
			var nextKey int64 = 1
			c.Workload = func(ops int, tick func() bool) {
				for i := 0; i < ops; i++ {
					cc.Insert(nextKey, nextKey*3)
					nextKey++
					if tick != nil && !tick() {
						return
					}
				}
			}
			c.Trigger = func() *vm.Trap {
				cc.Call("cc_arm_crash")
				// Insert until the armed doubling fires the crash.
				for i := 0; i < 5000; i++ {
					_, trap := cc.Call("cc_insert", nextKey, nextKey)
					nextKey++
					if trap != nil {
						// The untimely crash: drop volatile state.
						cc.Restart()
						return trap
					}
				}
				return nil
			}
			// Concurrent speculative probes each need a fresh key; the
			// atomic add keeps them unique (and -race clean) without
			// changing the sequential behaviour.
			c.Probe = func(on *arthas.Instance) *vm.Trap {
				if trap := on.Restart(); trap != nil {
					return trap
				}
				k := atomic.AddInt64(&nextKey, 1) - 1
				_, trap := on.Call("cc_insert", 900_000+k, 1)
				return trap
			}
			c.FaultInstrs = instrOfTrap
			c.Consistency = func() error {
				if rep := cc.Pool.CheckIntegrity(); !rep.OK() {
					return fmt.Errorf("pool check: %v", rep)
				}
				for i := int64(0); i < 30; i++ {
					k := 800_000 + i
					if err := cc.Insert(k, k); err != nil {
						return err
					}
					v, err := cc.Get(k)
					if err != nil {
						return err
					}
					if v != k {
						return fmt.Errorf("get(%d) = %d after insert", k, v)
					}
				}
				return nil
			}
			c.RunInvariants = func() bool {
				// dir size vs global depth — the exact broken invariant —
				// is NOT among the "common" invariants developers write
				// (the paper finds only 4 of 12 detectable); model the
				// common one: count >= 0 and get of a recent key works.
				_, trap := cc.Call("cc_get", 1)
				return trap != nil
			}
			return c, nil
		},
	}
}

// F10: Pelikan value length overflow -> segfault.
func F10() Builder {
	return Builder{
		Meta: Meta{
			ID: "f10", System: "pelikan",
			Fault:               "Value length overflow",
			Consequence:         "Segfault",
			Kind:                detector.FailCrash,
			AddrFault:           true,
			DetectImmediately:   true,
			InvariantDetectable: true,
		},
		New: func(cfg arthas.Config) (*Case, error) {
			pk, err := systems.NewPK(cfg)
			if err != nil {
				return nil, err
			}
			c := &Case{D: pk.Instance}
			c.Meta = F10().Meta
			c.Workload = func(ops int, tick func() bool) {
				for i := 0; i < ops; i++ {
					k := int64(i%60 + 1)
					if i%4 == 3 {
						pk.Get(k)
					} else {
						pk.Set(k, k, 3)
					}
					if tick != nil && !tick() {
						return
					}
				}
			}
			c.Trigger = func() *vm.Trap {
				// Key 209 is outside the workload key space.
				pk.Set(209, 1, 70_000)
				return nil
			}
			c.Probe = arthas.CallProbe("pk_get", 209)
			c.FaultInstrs = instrOfTrap
			c.Consistency = func() error {
				if rep := pk.Pool.CheckIntegrity(); !rep.OK() {
					return fmt.Errorf("pool check: %v", rep)
				}
				for i := int64(0); i < 40; i++ {
					k := 600 + i%10
					if err := pk.Set(k, k, 2); err != nil {
						return err
					}
					if _, err := pk.Get(k); err != nil {
						return err
					}
				}
				return nil
			}
			c.RunInvariants = func() bool {
				it, trap := pk.Call("pk_find", 209)
				if trap != nil || it == 0 {
					return true
				}
				vbuf, _ := pk.Pool.Load(uint64(it) + 1)
				vlen, _ := pk.Pool.Load(uint64(it) + 2)
				size, err := pk.Pool.BlockSize(vbuf)
				if err != nil {
					return true
				}
				return int(vlen) > size
			}
			return c, nil
		},
	}
}

// F11: Pelikan null stats response -> segfault.
func F11() Builder {
	return Builder{
		Meta: Meta{
			ID: "f11", System: "pelikan",
			Fault:       "Null stats response",
			Consequence: "Segfault",
			Kind:        detector.FailCrash,
			AddrFault:   true,
		},
		New: func(cfg arthas.Config) (*Case, error) {
			pk, err := systems.NewPK(cfg)
			if err != nil {
				return nil, err
			}
			c := &Case{D: pk.Instance}
			c.Meta = F11().Meta
			c.Workload = func(ops int, tick func() bool) {
				for i := 0; i < ops; i++ {
					k := int64(i%60 + 1)
					if i%4 == 3 {
						pk.Get(k)
					} else {
						pk.Set(k, k, 3)
					}
					if tick != nil && !tick() {
						return
					}
				}
			}
			c.Trigger = func() *vm.Trap {
				pk.Call("pk_arm_crash")
				_, trap := pk.Call("pk_stats_reset")
				if trap != nil {
					pk.Restart() // the untimely crash
				}
				return trap
			}
			c.Probe = arthas.CallProbe("pk_stats")
			c.FaultInstrs = instrOfTrap
			c.Consistency = func() error {
				if rep := pk.Pool.CheckIntegrity(); !rep.OK() {
					return fmt.Errorf("pool check: %v", rep)
				}
				if _, trap := pk.Call("pk_stats"); trap != nil {
					return trap
				}
				return nil
			}
			c.RunInvariants = func() bool {
				// "Stats pointer non-null" is exactly the check the code
				// lacks; common invariants (item counts) miss this.
				count, trap := pk.Call("pk_count")
				return trap != nil || count < 0
			}
			return c, nil
		},
	}
}

// F12: PMEMKV asynchronous lazy free -> persistent leak.
func F12() Builder {
	return Builder{
		Meta: Meta{
			ID: "f12", System: "pmemkv",
			Fault:       "Asynchronous lazy free",
			Consequence: "Persistent leak",
			Kind:        detector.FailLeak,
			IsLeak:      true,
		},
		New: func(cfg arthas.Config) (*Case, error) {
			sys := systems.PMEMKV()
			sys.PoolWords = 1 << 13
			d, err := systems.Deploy(sys, cfg)
			if err != nil {
				return nil, err
			}
			kv := &systems.KV{Instance: d}
			c := &Case{D: d}
			c.Meta = F12().Meta
			var nextKey int64 = 1
			triggered := false
			c.Workload = func(ops int, tick func() bool) {
				for i := 0; i < ops; i++ {
					if !triggered {
						// Steady state: bounded key space, no churn.
						kv.Put(nextKey%50+1, nextKey)
					} else {
						// Churn phase: every delete hands its node to the
						// async worker, and periodic crashes kill the
						// workers before they run — the nodes leak.
						kv.Put(nextKey, nextKey)
						if nextKey > 10 {
							kv.Del(nextKey - 10)
						}
						if i%25 == 24 {
							kv.Restart()
						}
					}
					nextKey++
					if tick != nil && !tick() {
						return
					}
				}
			}
			c.Trigger = func() *vm.Trap {
				triggered = true
				nextKey = 1000 // churn keys disjoint from the steady set
				return nil
			}
			c.Probe = func(on *arthas.Instance) *vm.Trap {
				if trap := on.Restart(); trap != nil {
					return trap
				}
				if on.Detector.CheckLeak(on.Pool) {
					return synthetic(1012, "PM usage above leak threshold")
				}
				_, trap := on.Call("kv_get", nextKey-1)
				return trap
			}
			c.FaultInstrs = func(*vm.Trap) []*ir.Instr { return nil }
			c.Consistency = func() error {
				if rep := kv.Pool.CheckIntegrity(); !rep.OK() {
					return fmt.Errorf("pool check: %v", rep)
				}
				for i := int64(0); i < 40; i++ {
					k := 700_000 + i%10
					if err := kv.Put(k, k); err != nil {
						return err
					}
					if _, err := kv.Get(k); err != nil {
						return err
					}
				}
				return nil
			}
			c.RunInvariants = func() bool {
				count, trap := kv.Call("kv_count")
				if trap != nil {
					return true
				}
				// Common invariant: count matches a table walk — both see
				// only linked nodes, so the leak is invisible (Table 7 ✗).
				walked := int64(0)
				tab, _ := kv.Pool.Root(0)
				tabPtr, _ := kv.Pool.Load(tab)
				nb, _ := kv.Pool.Load(tab + 1)
				for b := uint64(0); b < nb; b++ {
					n, _ := kv.Pool.Load(tabPtr + b)
					for n != 0 && walked < count*2+16 {
						walked++
						nx, _ := kv.Pool.Load(n + 2)
						n = nx
					}
				}
				return walked != count
			}
			return c, nil
		},
	}
}
