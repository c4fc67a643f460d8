// Package torture is a deterministic crash-point exploration harness for
// the Arthas toolchain: it enumerates every durability event a workload
// produces (library persists, transaction-commit ranges, allocator/root
// metadata updates), and for each point runs the workload in a fresh
// instrumented deployment with a crash injected exactly there — including
// *torn* crashes, where only the first k words of a multi-word flush became
// durable. After each injected crash the harness drives the REAL recovery
// path — serialize the image, reopen it (open-time allocator recovery,
// strict integrity check, checkpoint-log and flight-recorder parsing), run
// the recovery function — and checks invariants:
//
//   - the image reopens (typed errors from pmem/checkpoint readers are
//     violations: a legitimate crash state must never be unreadable);
//   - the pool passes CheckIntegrity after open-time recovery;
//   - the checkpoint log passes Validate (well-formed, monotonic);
//   - the flight-recorder section parses when enabled;
//   - recovery either completes clean or the failure is healed by the
//     reactor (detector → mitigation), deterministically.
//
// Failing schedules are shrunk to a minimal crash-point sequence and
// emitted as replayable seeds (testdata/torture holds the regression
// corpus). Everything is deterministic for a given -seed: trial schedules
// come from a seeded PRNG, trials share no state, and reports carry no
// wall-clock data — the JSON output is byte-identical across runs and
// across -workers values.
//
// The media-fault, replication and optimizer-equivalence sweeps run on the
// same engine: one driver (sweep.go) and one trial rig (trial.go), with
// each mode supplying its fault injector and final oracle.
package torture

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"arthas"
)

// Call is one workload statement: a PML function invocation.
type Call struct {
	Fn   string  `json:"fn"`
	Args []int64 `json:"args,omitempty"`
}

func (c Call) String() string {
	s := c.Fn
	for _, a := range c.Args {
		s += " " + strconv.FormatInt(a, 10)
	}
	return s
}

// ParseScript parses a semicolon-separated workload script ("init_; put 1
// 2; get 1") into calls. Statement syntax matches Instance.RunScript's call
// form (no pseudo-ops).
func ParseScript(script string) ([]Call, error) {
	var calls []Call
	for _, stmt := range strings.Split(script, ";") {
		fields := strings.Fields(stmt)
		if len(fields) == 0 {
			continue
		}
		c := Call{Fn: fields[0]}
		for _, f := range fields[1:] {
			v, err := strconv.ParseInt(f, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("torture: bad argument %q in %q", f, strings.TrimSpace(stmt))
			}
			c.Args = append(c.Args, v)
		}
		calls = append(calls, c)
	}
	if len(calls) == 0 {
		return nil, fmt.Errorf("torture: empty workload script")
	}
	return calls, nil
}

// Config describes one torture run.
type Config struct {
	// Name and Source identify and hold the PML program under test.
	Name   string
	Source string
	// Script is the workload (ParseScript syntax).
	Script string
	// RecoverFn names the recovery entry point run after each reopen
	// (optional, matching arthas.Config.RecoverFn).
	RecoverFn string
	// Probe, when non-empty, is one call ("fn a b") whose failure drives
	// mitigation; after clean recovery it must also succeed. Empty keeps
	// recovery-only probing (mitigation re-executes restart+recovery).
	Probe string
	// Seed drives schedule sampling. Same seed -> identical report.
	Seed int64
	// Points bounds the number of trials (0 = every enumerated crash
	// point, including torn variants).
	Points int
	// Torn enables torn-crash variants of multi-word durability events.
	Torn bool
	// Depth is the number of crashes per schedule (default 1; depth 2 adds
	// schedules that crash again during the re-run after recovery).
	Depth int
	// Workers parallelizes trials (trials are independent; the report is
	// identical at any worker count). <= 1 runs sequentially.
	Workers int
	// PoolWords / MaxVersions / StepLimit / FlightEvents mirror
	// arthas.Config (zero = that package's defaults, except FlightEvents
	// which defaults to 64 so the flight-section invariant is exercised).
	PoolWords    int
	MaxVersions  int
	StepLimit    int64
	FlightEvents int
	// Shrink enables minimization of failing schedules (default in Run).
	Shrink bool
	// Optimize runs the flush/fence-elimination pass (internal/opt) on the
	// program under torture, so the invariant sweep exercises the optimized
	// build. RunEquivalence ignores this flag: it always compares the
	// optimized and unoptimized builds against each other.
	Optimize bool
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Depth <= 0 {
		out.Depth = 1
	}
	if out.FlightEvents == 0 {
		out.FlightEvents = 64
	}
	if out.Workers <= 0 {
		out.Workers = 1
	}
	return out
}

// instance builds the arthas configuration every deploy and reopen of
// the program under test uses.
func (c Config) instance() arthas.Config {
	return arthas.Config{
		PoolWords:    c.PoolWords,
		MaxVersions:  c.MaxVersions,
		StepLimit:    c.StepLimit,
		RecoverFn:    c.RecoverFn,
		FlightEvents: c.FlightEvents,
		Optimize:     c.Optimize,
	}
}

// EventInfo describes one enumerated durability event.
type EventInfo struct {
	Kind  string `json:"kind"` // persist | tx | meta
	Addr  uint64 `json:"addr"`
	Words int    `json:"words"`
}

// TrialResult is the outcome of one schedule.
type TrialResult struct {
	Trial    int      `json:"trial"`
	Schedule Schedule `json:"schedule"`
	// Crashes describes the events where injection actually fired
	// ("meta@0x100000018+2 keep=1"); a schedule whose event index exceeds
	// the run's events fires fewer crashes than it has specs.
	Crashes []string `json:"crashes,omitempty"`
	// Outcome is "clean" (recovery needed no healing), "healed" (the
	// reactor mitigated a post-crash failure), or "violated".
	Outcome    string   `json:"outcome"`
	Violations []string `json:"violations,omitempty"`
	// MitigationAttempts totals reactor re-executions across the trial.
	MitigationAttempts int `json:"mitigation_attempts,omitempty"`
}

// Report is the full deterministic output of a run.
type Report struct {
	Program  string        `json:"program"`
	Script   string        `json:"script"`
	Seed     int64         `json:"seed"`
	Events   int           `json:"events"`
	Trials   int           `json:"trials"`
	Clean    int           `json:"clean"`
	Healed   int           `json:"healed"`
	Violated int           `json:"violated"`
	Results  []TrialResult `json:"results"`
	// Shrunk holds minimized failing schedules, ready to store as
	// regression seeds (testdata/torture).
	Shrunk []Seed `json:"shrunk,omitempty"`
}

// JSON renders the report byte-identically for a given seed.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Seed is a replayable minimal failing schedule.
type Seed struct {
	Program   string   `json:"program"`
	Script    string   `json:"script"`
	RecoverFn string   `json:"recover_fn,omitempty"`
	Probe     string   `json:"probe,omitempty"`
	Schedule  Schedule `json:"schedule"`
	// Note describes the violation the schedule originally provoked.
	Note string `json:"note,omitempty"`
}

// Run executes a full torture sweep: enumerate durability events with a
// baseline run, build crash schedules, run each as an independent trial,
// shrink failures.
func Run(cfg Config) (*Report, error) {
	sw, err := parse(cfg)
	if err != nil {
		return nil, err
	}
	_, events, err := baseline(sw)
	if err != nil {
		return nil, fmt.Errorf("torture: baseline run: %w", err)
	}
	schedules := buildSchedules(sw.cfg, events)
	rep := &Report{
		Program: sw.cfg.Name,
		Script:  sw.cfg.Script,
		Seed:    sw.cfg.Seed,
		Events:  len(events),
		Trials:  len(schedules),
		Results: runTrials(sw.cfg.Workers, len(schedules), func(i int) TrialResult {
			res := crashTrial(sw, schedules[i])
			res.Trial = i
			return res
		}),
	}
	rep.Clean, rep.Healed, rep.Violated = tally(rep.Results, func(r TrialResult) string { return r.Outcome })
	if sw.cfg.Shrink && rep.Violated > 0 {
		rep.Shrunk = shrinkAll(sw, rep.Results)
	}
	return rep, nil
}

// Replay runs one seed's schedule against the program source and returns
// its result — the regression path for the golden corpus.
func Replay(source string, seed Seed) (*TrialResult, error) {
	sw, err := parse(Config{
		Name:      seed.Program,
		Source:    source,
		Script:    seed.Script,
		RecoverFn: seed.RecoverFn,
		Probe:     seed.Probe,
	})
	if err != nil {
		return nil, err
	}
	res := crashTrial(sw, seed.Schedule)
	return &res, nil
}

// crashTrial runs one crash schedule on a fresh instance. Its final oracle
// is the structural one: after the workload and probe complete, the state
// must survive one more save/reopen round trip cleanly.
func crashTrial(sw *sweep, sched Schedule) TrialResult {
	t, _ := newTrial(sw, sw.cfg.instance())
	if t.run(sched) && t.reopen() {
		t.check()
	}
	res := TrialResult{Schedule: sched, Crashes: t.crashes, MitigationAttempts: t.attempts}
	res.Violations, res.Outcome = t.verdict()
	return res
}
