package torture

import (
	"encoding/json"
	"fmt"
	"slices"

	"arthas/internal/opt"
)

// Durability-equivalence sweep: the torture-grade proof obligation of the
// optimizer. For every enumerated crash point of the OPTIMIZED program
// (including torn variants when enabled), the schedule runs against the
// optimized build, the power failure latches, and the resulting durable
// image is recovered twice — once by the optimized stack and once by the
// unoptimized stack. The two recovered durable images must be
// word-identical: the optimizer may remove persists, but it must never
// change what any crash can make durable or how recovery repairs it. A
// crash-free full run of both builds must likewise end word-identical.
// Comparison is over pmem.Pool.DurableImage — the crash-preserved payload
// alone, not the serialized pool file, whose stats section counts persist
// traffic and would legitimately differ between the two builds.

// EquivSchemaVersion identifies the equivalence report format.
const EquivSchemaVersion = "arthas-equiv/v1"

// EquivMismatch records one crash point whose recovered states diverged.
type EquivMismatch struct {
	Trial  int    `json:"trial"`
	Event  int    `json:"event"`
	Keep   int    `json:"keep"`
	Detail string `json:"detail"`
}

// EquivReport is the deterministic output of RunEquivalence.
type EquivReport struct {
	Schema  string `json:"schema"`
	Program string `json:"program"`
	Script  string `json:"script"`
	Seed    int64  `json:"seed"`
	// EventsBaseline / EventsOptimized count durability events in one
	// uninjected run of each build: the dynamic persist-traffic reduction.
	EventsBaseline  int `json:"events_baseline"`
	EventsOptimized int `json:"events_optimized"`
	// Trials is the number of crash points swept (on the optimized build);
	// Matched of them recovered byte-identically under both stacks.
	Trials  int `json:"trials"`
	Matched int `json:"matched"`
	// Skipped counts schedules whose event never fired (the optimized run
	// produced fewer events than the schedule indexed).
	Skipped int `json:"skipped"`
	// FinalMatch is the crash-free check: both builds run the workload to
	// completion and the durable pools compare equal.
	FinalMatch bool            `json:"final_match"`
	Mismatches []EquivMismatch `json:"mismatches,omitempty"`
	// OptStats is what the optimizer did to the program under test.
	OptStats *opt.Stats `json:"opt_stats"`
}

// OK reports whether every swept crash point (and the crash-free run)
// recovered identically.
func (r *EquivReport) OK() bool {
	return len(r.Mismatches) == 0 && r.FinalMatch
}

// JSON renders the report byte-identically for a given seed.
func (r *EquivReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RunEquivalence sweeps every enumerated crash point of the optimized
// program and proves recovery equivalence against the unoptimized build.
// cfg.Optimize is ignored (both builds always run); cfg.FlightEvents is
// forced to zero so pool images carry no telemetry tail and compare by
// durable content alone; cfg.Probe is not run, since equivalence is about
// what recovery alone makes durable.
func RunEquivalence(cfg Config) (*EquivReport, error) {
	optimized, err := parse(cfg)
	if err != nil {
		return nil, err
	}
	// Depth 1: equivalence is a property of one crash image at a time.
	optimized.cfg.FlightEvents, optimized.cfg.Depth, optimized.cfg.Optimize, optimized.probe = 0, 1, true, nil
	unoptimized := *optimized
	unoptimized.cfg.Optimize = false

	// Dynamic event universes for both builds; their crash-free final
	// images must agree word for word.
	optRun, err := newTrial(optimized, optimized.cfg.instance())
	if err != nil {
		return nil, fmt.Errorf("torture: optimized deploy: %w", err)
	}
	optEvents, err := enumerate(optRun)
	if err != nil {
		return nil, fmt.Errorf("torture: optimized baseline run: %w", err)
	}
	baseRun, baseEvents, err := baseline(&unoptimized)
	if err != nil {
		return nil, fmt.Errorf("torture: unoptimized baseline run: %w", err)
	}

	schedules := buildSchedules(optimized.cfg, optEvents)
	rep := &EquivReport{
		Schema:          EquivSchemaVersion,
		Program:         optimized.cfg.Name,
		Script:          optimized.cfg.Script,
		Seed:            optimized.cfg.Seed,
		EventsBaseline:  len(baseEvents),
		EventsOptimized: len(optEvents),
		Trials:          len(schedules),
		FinalMatch:      slices.Equal(optRun.inst.Pool.DurableImage(), baseRun.inst.Pool.DurableImage()),
		OptStats:        optRun.inst.OptStats,
	}
	details := runTrials(optimized.cfg.Workers, len(schedules), func(i int) *string {
		return equivTrial(optimized, &unoptimized, schedules[i][0])
	})
	for i, d := range details {
		switch {
		case d == nil:
			rep.Skipped++
		case *d == "":
			rep.Matched++
		default:
			spec := schedules[i][0]
			rep.Mismatches = append(rep.Mismatches, EquivMismatch{
				Trial: i, Event: spec.Event, Keep: spec.Keep, Detail: *d,
			})
		}
	}
	return rep, nil
}

// equivTrial runs the optimized build until spec's event fires, latches the
// power failure, recovers the crash image under both builds (with detector
// → reactor healing if recovery traps), and compares the recovered durable
// images. It returns nil when the workload completed without reaching the
// event, "" when the recovered images match, and the mismatch otherwise.
func equivTrial(optimized, unoptimized *sweep, spec CrashSpec) *string {
	detail := ""
	t, _ := newTrial(optimized, optimized.cfg.instance())
	if t.inst == nil {
		detail = "optimized run: " + t.violations[0]
		return &detail
	}
	t.arm(spec)
	for _, c := range t.calls {
		t.inst.Call(c.Fn, c.Args...)
		if t.inst.Pool.CrashLatched() {
			break
		}
	}
	if !t.inst.Pool.CrashLatched() {
		return nil
	}
	image, ok := t.powerFail()
	if !ok {
		detail = "optimized run: " + t.violations[0]
		return &detail
	}
	optPool, optErr := recoverImage(optimized, image)
	basePool, baseErr := recoverImage(unoptimized, image)
	switch {
	case optErr != "" || baseErr != "":
		detail = fmt.Sprintf("recovery failed (opt: %v, base: %v)", optErr, baseErr)
	case !slices.Equal(optPool, basePool):
		detail = fmt.Sprintf("recovered durable images differ at word %d", firstDiff(optPool, basePool))
	}
	return &detail
}

// recoverImage reopens one crash image under one build, runs recovery (with
// detector → reactor healing if it traps), and returns the recovered
// durable word image, or the violation that stopped it.
func recoverImage(build *sweep, image []byte) ([]uint64, string) {
	t := &trial{sweep: build, acfg: build.cfg.instance()}
	if t.recover(image) {
		return t.inst.Pool.DurableImage(), ""
	}
	if t.inst == nil { // the image did not reopen
		return nil, t.violations[0]
	}
	return nil, "recovery unhealed: " + t.violations[0]
}

// firstDiff returns the first index where a and b disagree (or the shorter
// length when one is a prefix of the other).
func firstDiff(a, b []uint64) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
