package torture

import (
	"fmt"
	"math/rand"
)

// CrashSpec orders one injected crash: at the Event'th durability event of
// the current workload segment (events are counted from 0 and reset after
// each recovery), crash with the first Keep words of that event durable.
// Keep == -1 keeps the whole range — the "flush completed, checkpoint hook
// and tx commit never ran" point; Keep == 0 crashes before any word landed;
// anything between is a torn flush.
type CrashSpec struct {
	Event int `json:"event"`
	Keep  int `json:"keep"`
}

// Schedule is the ordered crash plan for one trial.
type Schedule []CrashSpec

func (s Schedule) String() string {
	out := ""
	for i, sp := range s {
		if i > 0 {
			out += ","
		}
		out += fmt.Sprintf("e%dk%d", sp.Event, sp.Keep)
	}
	return out
}

// buildSchedules expands the event universe into crash schedules:
//
//   - every event gets a keep=0 ("nothing landed") and keep=-1 ("all landed,
//     hooks lost") variant;
//   - multi-word events additionally get torn variants (1, n/2, n-1 words
//     durable) when cfg.Torn is set;
//   - Depth >= 2 adds sampled two-crash schedules (crash, recover, crash
//     again during the re-run);
//   - the whole set is then sampled down to cfg.Points with the seeded PRNG
//     (order-preserving, so reports stay readable and deterministic).
func buildSchedules(cfg Config, events []EventInfo) []Schedule {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var all []Schedule
	for i, ev := range events {
		keeps := []int{0, -1}
		if cfg.Torn && ev.Words > 1 {
			for _, k := range []int{1, ev.Words / 2, ev.Words - 1} {
				if k > 0 && k < ev.Words {
					keeps = append(keeps, k)
				}
			}
			keeps = dedupInts(keeps)
		}
		for _, k := range keeps {
			all = append(all, Schedule{{Event: i, Keep: k}})
		}
	}
	if cfg.Depth >= 2 && len(all) > 0 {
		// Sampled second crashes: after the first recovery the segment's
		// event stream differs from the baseline, so the second index is a
		// blind (but deterministic) probe into it.
		n := len(events)
		if n > 64 {
			n = 64
		}
		for i := 0; i < n; i++ {
			first := all[rng.Intn(len(all))][0]
			second := CrashSpec{Event: rng.Intn(len(events)), Keep: -1}
			if rng.Intn(2) == 0 {
				second.Keep = 0
			}
			all = append(all, Schedule{first, second})
		}
	}
	return sample(rng, all, cfg.Points)
}

func dedupInts(in []int) []int {
	seen := map[int]bool{}
	out := in[:0]
	for _, v := range in {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
