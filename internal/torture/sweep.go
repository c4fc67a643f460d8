package torture

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"arthas/internal/pmem"
)

// The sweep driver. Every mode — crash (Run), media (RunMedia), replication
// (RunRepl) and optimizer equivalence (RunEquivalence) — is one sweep:
// parse the workload and probe, enumerate the durability events of one
// uninjected run, expand them into the mode's fault specs, sample those
// down to Config.Points, run one independent trial per spec on the worker
// pool, and tally outcomes in spec order. Trials run on the rig in
// trial.go; a mode supplies only its spec builder, injector, hooks and
// final oracle.

// sweep is one sweep's configuration and parsed workload.
type sweep struct {
	cfg   Config
	calls []Call
	probe *Call
}

// parse applies the defaults and parses the workload script and the probe,
// which must be a single call.
func parse(cfg Config) (*sweep, error) {
	sw := &sweep{cfg: cfg.withDefaults()}
	calls, err := ParseScript(sw.cfg.Script)
	if err != nil {
		return nil, err
	}
	sw.calls = calls
	if sw.cfg.Probe != "" {
		pc, err := ParseScript(sw.cfg.Probe)
		if err != nil {
			return nil, err
		}
		if len(pc) != 1 {
			return nil, fmt.Errorf("torture: probe must be a single call, got %d", len(pc))
		}
		sw.probe = &pc[0]
	}
	return sw, nil
}

// enumerate runs the workload once on a freshly deployed trial with nothing
// injected and returns every durability event in order: the universe the
// sweep's fault specs index. A trap is an error, since nothing was
// injected. The trial's per-call hook runs too, so a replication rig ships
// its baseline run.
func enumerate(t *trial) ([]EventInfo, error) {
	var events []EventInfo
	t.inst.Pool.SetCrashFunc(crashHook(func(_ int, ev pmem.DurEvent) (int, bool) {
		events = append(events, EventInfo{Kind: ev.Kind.String(), Addr: ev.Addr, Words: ev.Words})
		return ev.Words, false
	}))
	for _, c := range t.calls {
		if _, trap := t.inst.Call(c.Fn, c.Args...); trap != nil {
			return nil, fmt.Errorf("workload call %q trapped with no injection: %v", c, trap)
		}
		if t.afterCall != nil && !t.afterCall() {
			return nil, errors.New(t.violations[0])
		}
	}
	return events, nil
}

// baseline deploys the sweep's program and enumerates its events.
func baseline(sw *sweep) (*trial, []EventInfo, error) {
	t, err := newTrial(sw, sw.cfg.instance())
	if err != nil {
		return nil, nil, err
	}
	events, err := enumerate(t)
	return t, events, err
}

// sample keeps points of the specs, chosen by rng, in their original order
// so reports stay readable. points <= 0 keeps them all.
func sample[S any](rng *rand.Rand, specs []S, points int) []S {
	if points <= 0 || len(specs) <= points {
		return specs
	}
	idx := rng.Perm(len(specs))[:points]
	sort.Ints(idx)
	out := make([]S, 0, points)
	for _, i := range idx {
		out = append(out, specs[i])
	}
	return out
}

// runTrials runs trial(i) for every i < n on up to workers goroutines and
// returns the results in index order. Trials share nothing, so the order
// they run in never shows in a report.
func runTrials[R any](workers, n int, trial func(i int) R) []R {
	out := make([]R, n)
	if workers <= 1 {
		for i := range out {
			out[i] = trial(i)
		}
		return out
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range out {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i] = trial(i)
		}(i)
	}
	wg.Wait()
	return out
}

// tally counts the clean, healed and violated outcomes of a sweep's trials.
func tally[R any](results []R, outcome func(R) string) (clean, healed, violated int) {
	for _, r := range results {
		switch outcome(r) {
		case "clean":
			clean++
		case "healed":
			healed++
		default:
			violated++
		}
	}
	return clean, healed, violated
}
