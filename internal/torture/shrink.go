package torture

import "fmt"

// Shrinking reduces a failing schedule to a minimal reproducer: first drop
// whole crash specs greedily (a two-crash failure often needs only one of
// them), then simplify each surviving spec's keep toward the canonical
// points (0, then full). The result is emitted as a replayable Seed — the
// regression-corpus format under testdata/torture.

// shrinkAll minimizes every violated schedule in a result set, deduplicating
// schedules that shrink to the same reproducer. Deterministic: results are
// visited in trial order and every probe re-runs a fresh trial.
func shrinkAll(sw *sweep, results []TrialResult) []Seed {
	violates := func(s Schedule) (bool, string) {
		r := crashTrial(sw, s)
		if r.Outcome != "violated" {
			return false, ""
		}
		note := ""
		if len(r.Violations) > 0 {
			note = r.Violations[0]
		}
		return true, note
	}

	var seeds []Seed
	seen := map[string]bool{}
	for _, r := range results {
		if r.Outcome != "violated" {
			continue
		}
		min, note := shrinkOne(r.Schedule, violates)
		key := min.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		seeds = append(seeds, Seed{
			Program:   sw.cfg.Name,
			Script:    sw.cfg.Script,
			RecoverFn: sw.cfg.RecoverFn,
			Probe:     sw.cfg.Probe,
			Schedule:  min,
			Note:      note,
		})
	}
	return seeds
}

// shrinkOne greedily minimizes one failing schedule. violates must re-run
// the trial and report whether the candidate still fails (plus the leading
// violation, kept as the seed's note).
func shrinkOne(sched Schedule, violates func(Schedule) (bool, string)) (Schedule, string) {
	cur := append(Schedule{}, sched...)
	_, note := violates(cur) // note for the full schedule (known to fail)

	// Phase 1: drop specs.
	for i := 0; i < len(cur) && len(cur) > 1; {
		cand := append(append(Schedule{}, cur[:i]...), cur[i+1:]...)
		if ok, n := violates(cand); ok {
			cur, note = cand, n
		} else {
			i++
		}
	}
	// Phase 2: canonicalize keeps (torn points shrink to 0 or full when the
	// tear itself is not what the failure needs).
	for i := range cur {
		for _, k := range []int{0, -1} {
			if cur[i].Keep == k {
				break
			}
			cand := append(Schedule{}, cur...)
			cand[i].Keep = k
			if ok, n := violates(cand); ok {
				cur, note = cand, n
				break
			}
		}
	}
	return cur, note
}

// describeSeed renders a one-line label for logs and test names.
func describeSeed(s Seed) string {
	return fmt.Sprintf("%s[%s]", s.Program, s.Schedule)
}
