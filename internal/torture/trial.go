package torture

import (
	"bytes"
	"fmt"
	"sort"

	"arthas"
	"arthas/internal/pmem"
)

// trial is the rig every mode's trials run on: one fresh instance of the
// program under test, driven through the real crash, reopen and heal path,
// collecting violations and what the reactor did. A trial shares nothing
// with other trials, so any number of them run concurrently with identical
// results. Modes plug in through three fields: watch (a passive crash hook
// armed when no crash is scheduled), afterCall and dirty.
type trial struct {
	*sweep
	acfg       arthas.Config // used to deploy and for every reopen
	inst       *arthas.Instance
	violations []string
	healed     bool
	attempts   int      // reactor re-executions, summed over every heal
	scrubs     int      // in-process scrub passes, summed over every heal
	crashes    []string // the injected power failures that fired

	// watch is the crash hook armed on segments with no crash scheduled.
	watch pmem.CrashFunc
	// afterCall runs after each workload call completes (trapped calls
	// once healed); false ends the trial, with the violation recorded.
	afterCall func() bool
	// dirty runs after a heal or a crash reopen rewrote durable words
	// outside the pool hooks.
	dirty func()
}

// newTrial deploys a fresh instance of the sweep's program under acfg. A
// failed deploy is both returned and recorded as the trial's violation,
// leaving inst nil.
func newTrial(sw *sweep, acfg arthas.Config) (*trial, error) {
	t := &trial{sweep: sw, acfg: acfg}
	inst, err := arthas.New(sw.cfg.Name, sw.cfg.Source, acfg)
	if err != nil {
		t.fail("deploy-failed: " + err.Error())
		return t, err
	}
	t.inst = inst
	return t, nil
}

func (t *trial) fail(violation string) bool {
	t.violations = append(t.violations, violation)
	return false
}

// crashHook numbers the durability events of one workload segment from 0
// and lets at decide each: how many of its words become durable, and
// whether power fails there.
func crashHook(at func(i int, ev pmem.DurEvent) (keep int, crash bool)) pmem.CrashFunc {
	n := 0
	return func(ev pmem.DurEvent) (int, bool) {
		n++
		return at(n-1, ev)
	}
}

// arm schedules one crash on the current segment: power fails at the
// spec's event with its first Keep words durable.
func (t *trial) arm(spec CrashSpec) {
	t.inst.Pool.SetCrashFunc(crashHook(func(i int, ev pmem.DurEvent) (int, bool) {
		if i != spec.Event {
			return ev.Words, false
		}
		keep := spec.Keep
		if keep < 0 || keep > ev.Words {
			keep = ev.Words
		}
		t.crashes = append(t.crashes, fmt.Sprintf("%s@%#x+%d keep=%d", ev.Kind, ev.Addr, ev.Words, keep))
		return keep, true
	}))
}

// run drives the workload through sched the way an operator would live
// through the crashes: run until the injected power failure latches the
// pool, drop volatile state, save the durable image, reopen it through the
// real open path (open-time allocator recovery, strict integrity check,
// checkpoint-log and flight parsing), run recovery, check the structural
// invariants, and re-issue the interrupted call (at-least-once semantics).
// Any trap on the way goes through the detector → reactor flow. Once the
// workload completes, the probe must succeed. run returns false when the
// trial ended early on a violation.
func (t *trial) run(sched Schedule) bool {
	if t.inst == nil {
		return false
	}
	ci := 0 // next workload call (not advanced past an interrupted call)
	for si := 0; ; si++ {
		if si < len(sched) {
			t.arm(sched[si])
		} else {
			t.inst.Pool.SetCrashFunc(t.watch)
		}
		crashed := false
		for ci < len(t.calls) {
			c := t.calls[ci]
			_, trap := t.inst.Call(c.Fn, c.Args...)
			if t.inst.Pool.CrashLatched() {
				crashed = true
				break
			}
			// A trap with no crash pending: the mitigation's re-execution
			// script restarts, recovers and re-issues this very call, so on
			// success we advance past it.
			if trap != nil && !t.heal(trap, &c) {
				return false
			}
			ci++
			if t.afterCall != nil && !t.afterCall() {
				return false
			}
		}
		if !crashed {
			break
		}
		image, ok := t.powerFail()
		if !ok || !t.recover(image) {
			return false
		}
		t.check()
		if len(t.violations) > 0 {
			return false
		}
	}
	if t.probe != nil {
		if _, trap := t.inst.Call(t.probe.Fn, t.probe.Args...); trap != nil && !t.heal(trap, t.probe) {
			return false
		}
	}
	return true
}

// powerFail acts out the latched power failure: volatile state dies, and
// the (possibly torn) durable image it returns is what the next process
// sees.
func (t *trial) powerFail() ([]byte, bool) {
	t.inst.Pool.SetCrashFunc(nil)
	t.inst.Pool.Crash()
	t.inst.Pool.ResetCrashLatch()
	return t.save()
}

// recover opens a crash image and runs the recovery function; a trap goes
// through the detector → reactor flow with the probe as the re-execution
// script.
func (t *trial) recover(image []byte) bool {
	if !t.open(image) {
		return false
	}
	if t.dirty != nil {
		t.dirty()
	}
	trap := t.inst.Restart()
	return trap == nil || t.heal(trap, t.probe)
}

// save serializes the instance's durable state.
func (t *trial) save() ([]byte, bool) {
	var buf bytes.Buffer
	if err := t.inst.SaveImage(&buf); err != nil {
		return nil, t.fail("save-failed: " + err.Error())
	}
	return buf.Bytes(), true
}

// open replaces the trial's instance with image reopened through the real
// recovery path. An image that cannot be reopened is always a violation:
// power loss at a durability boundary must never leave the system
// unreadable.
func (t *trial) open(image []byte) bool {
	inst, err := arthas.OpenImage(t.cfg.Name, t.cfg.Source, t.acfg, bytes.NewReader(image))
	if err != nil {
		return t.fail("reopen-failed: " + err.Error())
	}
	t.inst = inst
	return true
}

// reopen saves the instance's image and opens it again.
func (t *trial) reopen() bool {
	image, ok := t.save()
	return ok && t.open(image)
}

// heal drives the detector → reactor flow for a trap. With a call, the
// mitigation re-execution script is "restart, recover, re-issue the call";
// without one it is recovery alone. A trap the reactor cannot heal is a
// violation.
func (t *trial) heal(trap *arthas.Trap, call *Call) bool {
	inst := t.inst
	inst.Observe(trap)
	var rep *arthas.Report
	var err error
	if call != nil {
		rep, err = inst.MitigateCall(call.Fn, call.Args...)
	} else {
		rep, err = inst.Mitigate(func(on *arthas.Instance) *arthas.Trap { return on.Restart() })
	}
	if err != nil {
		return t.fail("mitigation-error: " + err.Error())
	}
	t.attempts += rep.Attempts
	t.scrubs += rep.ScrubRepairs
	if !rep.Recovered {
		return t.fail(fmt.Sprintf("unhealed: %v after %d attempts (mode %v)",
			trap.Kind, rep.Attempts, rep.ModeUsed))
	}
	t.healed = true
	if t.dirty != nil {
		t.dirty()
	}
	return true
}

// check records violations of the structural invariants on the live
// instance: pool integrity, a valid checkpoint log, and the flight recorder
// surviving the reopen.
func (t *trial) check() {
	if rep := t.inst.Pool.CheckIntegrity(); !rep.OK() {
		t.fail("pool-integrity: " + rep.String())
	}
	if rep := t.inst.Log.Validate(); !rep.OK() {
		t.fail("log-invalid: " + rep.String())
	}
	if t.acfg.FlightEvents > 0 && t.inst.Flight == nil {
		t.fail("flight-lost: recorder missing after reopen")
	}
}

// verdict returns the trial's sorted, deduplicated violations and its
// outcome: "violated", "healed" (the reactor or a scrub repaired a
// failure), or "clean".
func (t *trial) verdict() ([]string, string) {
	var vs []string
	seen := map[string]bool{}
	for _, v := range t.violations {
		if !seen[v] {
			seen[v] = true
			vs = append(vs, v)
		}
	}
	sort.Strings(vs)
	switch {
	case len(vs) > 0:
		return vs, "violated"
	case t.healed:
		return vs, "healed"
	}
	return vs, "clean"
}
