package faults

import (
	"fmt"

	"arthas"
	"arthas/internal/detector"
	"arthas/internal/ir"
	"arthas/internal/systems"
	"arthas/internal/vm"
)

// Shared Memcached workload: a YCSB-A-like update/read mix over keys
// 1..200 (no deletes, like the paper's YCSB workload — address reuse is
// exercised separately by the systems tests). With 64 buckets every bucket
// chain holds ~3 keys, so bucket heads are multi-version in the checkpoint
// log, as they are under any realistic key distribution.
func mcWorkload(mc *systems.MC, ops int, tick func() bool) {
	for i := 0; i < ops; i++ {
		k := int64((i*7)%200 + 1) // decorrelate key choice from op choice
		switch i % 5 {
		case 0, 1, 2:
			mc.Set(k, k*10, 2)
		default:
			mc.Get(k)
		}
		if tick != nil && !tick() {
			return
		}
	}
}

// mcConsistency runs the Table 4 battery: pool integrity, an extended
// mixed workload without traps, and spot reads.
func mcConsistency(mc *systems.MC) error {
	if rep := mc.Pool.CheckIntegrity(); !rep.OK() {
		return fmt.Errorf("pool check: %v", rep)
	}
	for i := int64(0); i < 60; i++ {
		k := 200 + i%20
		if err := mc.Set(k, k, 2); err != nil {
			return fmt.Errorf("post-recovery set(%d): %w", k, err)
		}
		if _, err := mc.Get(k); err != nil {
			return fmt.Errorf("post-recovery get(%d): %w", k, err)
		}
	}
	for i := int64(0); i < 20; i++ {
		if _, err := mc.Get(200 + i); err != nil {
			return err
		}
	}
	return nil
}

// mcInvariants: the "number of items equals hashtable size" check the
// paper cites as a common domain invariant.
func mcInvariants(mc *systems.MC) bool {
	count, trap := mc.Call("mc_count")
	if trap != nil {
		return true // the invariant runner itself failed: detected
	}
	walked, trap := mc.Call("mc_walk_count")
	if trap != nil {
		return true
	}
	return count != walked
}

// mcMissProbe is the data-loss probe: restart, then a get of a key that must
// be present; a miss is the symptom, reported as a synthetic trap.
func mcMissProbe(key, code int64, msg string) arthas.Probe {
	return func(on *arthas.Instance) *vm.Trap {
		if trap := on.Restart(); trap != nil {
			return trap
		}
		v, trap := on.Call("mc_get", key)
		if trap != nil {
			return trap
		}
		if v == -1 {
			return synthetic(code, msg)
		}
		return nil
	}
}

// F1: Memcached refcount overflow -> deadlock (hang).
func F1() Builder {
	return Builder{
		Meta: Meta{
			ID: "f1", System: "memcached",
			Fault:       "Refcount overflow",
			Consequence: "Deadlock",
			Kind:        detector.FailHang,
			// Items != hashtable walk after the crawler frees a linked
			// item: the invariant catches it (Table 7 ✓).
			InvariantDetectable: true,
		},
		New: func(cfg arthas.Config) (*Case, error) {
			if cfg.StepLimit == 0 {
				cfg.StepLimit = 300_000 // quick hang detection
			}
			mc, err := systems.NewMC(cfg)
			if err != nil {
				return nil, err
			}
			c := &Case{D: mc.Instance}
			c.Meta = F1().Meta
			c.Workload = func(ops int, tick func() bool) { mcWorkload(mc, ops, tick) }
			c.Trigger = func() *vm.Trap {
				// A long-lived connection pins an item in bucket 36 (the
				// bucket of pre-trigger workload key 36), using keys
				// outside the workload key space so the corruption
				// survives while traffic keeps flowing and buries the
				// root cause under newer updates...
				mc.Set(292, 20, 2)
				for i := 0; i < 255; i++ {
					mc.Call("mc_hold", 292) // ...255 times: the 8-bit wrap
				}
				mc.Set(356, 40, 2) // crawler frees, block reused, self-link
				return nil
			}
			c.Probe = arthas.CallProbe("mc_get", 36)
			c.FaultInstrs = instrOfTrap
			c.Consistency = func() error { return mcConsistency(mc) }
			c.RunInvariants = func() bool { return mcInvariants(mc) }
			return c, nil
		},
	}
}

// F2: Memcached flush_all logic bug -> data loss.
func F2() Builder {
	return Builder{
		Meta: Meta{
			ID: "f2", System: "memcached",
			Fault:       "flush_all logic bug",
			Consequence: "Data loss",
			Kind:        detector.FailDataLoss,
		},
		New: func(cfg arthas.Config) (*Case, error) {
			mc, err := systems.NewMC(cfg)
			if err != nil {
				return nil, err
			}
			c := &Case{D: mc.Instance}
			c.Meta = F2().Meta
			c.Workload = func(ops int, tick func() bool) { mcWorkload(mc, ops, tick) }
			c.Trigger = func() *vm.Trap {
				mc.Call("mc_flush", 1_000_000) // flush_all at a future time
				return nil
			}
			// Key 43 is a workload key set long before the trigger, so any
			// pre-trigger snapshot contains it.
			c.Probe = mcMissProbe(43, 1002, "known key flushed away")
			// The symptom is the flushed-miss return inside mc_get (the
			// second return; the first is the plain lookup miss).
			c.FaultInstrs = func(*vm.Trap) []*ir.Instr {
				rets := c.D.RetInstrs("mc_get")
				if len(rets) >= 2 {
					return rets[1:2]
				}
				return rets
			}
			c.Consistency = func() error { return mcConsistency(mc) }
			c.RunInvariants = func() bool { return mcInvariants(mc) }
			return c, nil
		},
	}
}

// F3: Memcached hashtable lock data race -> data loss. The trigger happens
// "naturally" mid-workload (two unlocked concurrent inserts), like the
// paper's f3.
func F3() Builder {
	return Builder{
		Meta: Meta{
			ID: "f3", System: "memcached",
			Fault:       "Hashtable lock data race",
			Consequence: "Data loss",
			Kind:        detector.FailDataLoss,
		},
		New: func(cfg arthas.Config) (*Case, error) {
			mc, err := systems.NewMC(cfg)
			if err != nil {
				return nil, err
			}
			c := &Case{D: mc.Instance}
			c.Meta = F3().Meta
			var lostKey int64
			c.Workload = func(ops int, tick func() bool) { mcWorkload(mc, ops, tick) }
			c.Trigger = func() *vm.Trap {
				// Two fresh same-bucket keys race their inserts.
				mc.Call("mc_race", 301, 11, 365, 22)
				v1, _ := mc.Get(301)
				v2, _ := mc.Get(365)
				switch {
				case v1 == -1:
					lostKey = 301
				case v2 == -1:
					lostKey = 365
				}
				return nil
			}
			c.Probe = func(on *arthas.Instance) *vm.Trap {
				if lostKey == 0 {
					return nil // race did not lose an insert this run
				}
				return mcMissProbe(lostKey, 1003, "racy insert lost")(on)
			}
			// Lookup-miss return of mc_get.
			c.FaultInstrs = func(*vm.Trap) []*ir.Instr {
				rets := c.D.RetInstrs("mc_get")
				if len(rets) >= 1 {
					return rets[:1]
				}
				return nil
			}
			c.Consistency = func() error { return mcConsistency(mc) }
			c.RunInvariants = func() bool { return mcInvariants(mc) }
			return c, nil
		},
	}
}

// F4: Memcached integer overflow in append -> segfault.
func F4() Builder {
	return Builder{
		Meta: Meta{
			ID: "f4", System: "memcached",
			Fault:             "Integer overflow in append",
			Consequence:       "Segfault",
			Kind:              detector.FailCrash,
			AddrFault:         true,
			DetectImmediately: true,
			// A stored length larger than the allocated block is checkable
			// (Table 7 ✓).
			InvariantDetectable: true,
		},
		New: func(cfg arthas.Config) (*Case, error) {
			mc, err := systems.NewMC(cfg)
			if err != nil {
				return nil, err
			}
			c := &Case{D: mc.Instance}
			c.Meta = F4().Meta
			c.Workload = func(ops int, tick func() bool) { mcWorkload(mc, ops, tick) }
			c.Trigger = func() *vm.Trap {
				// Key 205 is outside the workload key space, so the corrupt
				// length survives until the failing GET.
				mc.Set(205, 1, 4)
				mc.Call("mc_append", 205, 70_000, 9)
				return nil
			}
			c.Probe = arthas.CallProbe("mc_get", 205)
			c.FaultInstrs = instrOfTrap
			c.Consistency = func() error {
				if err := mcConsistency(mc); err != nil {
					return err
				}
				// The appended key itself must read cleanly.
				if _, err := mc.Get(205); err != nil {
					return err
				}
				return nil
			}
			c.RunInvariants = func() bool {
				// Invariant: stored value length fits its block.
				it, trap := mc.Call("mc_lookup", 205)
				if trap != nil || it == 0 {
					return true
				}
				vbuf, _ := mc.Pool.Load(uint64(it) + 1)
				vlen, _ := mc.Pool.Load(uint64(it) + 2)
				size, err := mc.Pool.BlockSize(vbuf)
				if err != nil {
					return true
				}
				return int(vlen) > size
			}
			return c, nil
		},
	}
}

// F5: Memcached rehashing flag bit flip (hardware fault) -> data loss.
func F5() Builder {
	return Builder{
		Meta: Meta{
			ID: "f5", System: "memcached",
			Fault:       "Rehashing flag bit flip",
			Consequence: "Data loss",
			Kind:        detector.FailDataLoss,
			// The only case a checksum guard catches (§6.6).
			ChecksumDetectable: true,
		},
		New: func(cfg arthas.Config) (*Case, error) {
			mc, err := systems.NewMC(cfg)
			if err != nil {
				return nil, err
			}
			c := &Case{D: mc.Instance}
			c.Meta = F5().Meta
			// Guard over the root config words, updated at init time the
			// way a checksum defense would maintain it.
			root, _ := mc.Pool.Root(0)
			guard := &detector.ChecksumGuard{Name: "root-flags", Addr: root + 6, Words: 3}
			guard.Update(mc.Pool)
			c.Workload = func(ops int, tick func() bool) { mcWorkload(mc, ops, tick) }
			c.Trigger = func() *vm.Trap {
				mc.Pool.InjectBitFlip(root+6, 0, true)
				return nil
			}
			c.Probe = mcMissProbe(43, 1005, "lookups routed to missing table")
			c.FaultInstrs = func(*vm.Trap) []*ir.Instr {
				rets := c.D.RetInstrs("mc_get")
				if len(rets) >= 1 {
					return rets[:1]
				}
				return nil
			}
			c.Consistency = func() error { return mcConsistency(mc) }
			c.RunInvariants = func() bool { return mcInvariants(mc) }
			c.RunChecksum = func() bool {
				ok, err := guard.Verify(mc.Pool)
				return err != nil || !ok
			}
			return c, nil
		},
	}
}
