package torture

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"arthas/internal/pmem"
)

// Media-fault torture mode: instead of crashing at durability events, the
// harness corrupts the durable image AT them — bit flips, stuck words, stray
// writes, and whole-block poison landing behind the checksums' back — and
// then verifies the system heals end to end through BOTH repair paths: the
// in-process reactor (trap → detector → scrub-then-retry) while the workload
// keeps running, and the open path (SaveImage → OpenImage scrubs from the
// image's own checkpoint log) afterwards. Like the crash sweep, everything
// is deterministic for a given -seed and byte-identical across -workers.

// MediaSpec orders one injected media fault: after the Event'th durability
// event of the workload, corrupt the word at that event's address plus the
// Word offset with the named fault kind (docs/MEDIA_FAULTS.md taxonomy).
type MediaSpec struct {
	Event int    `json:"event"`
	Kind  string `json:"kind"`
	Word  int    `json:"word,omitempty"`
	Bits  uint64 `json:"bits,omitempty"`
	Value uint64 `json:"value,omitempty"`
	Seed  int64  `json:"seed,omitempty"`
}

func (s MediaSpec) String() string {
	return fmt.Sprintf("e%d:%s+%d", s.Event, s.Kind, s.Word)
}

// mediaKinds are the fault kinds the sweep cycles through.
var mediaKinds = []pmem.MediaFaultKind{
	pmem.MediaBitFlip, pmem.MediaStuckWord,
	pmem.MediaStrayWrite, pmem.MediaBlockPoison,
}

// MediaTrialResult is the outcome of one media-fault schedule.
type MediaTrialResult struct {
	Trial int       `json:"trial"`
	Spec  MediaSpec `json:"spec"`
	// Inject describes the fault that actually fired ("stuck-word@0x...+2");
	// empty when the spec's event index exceeded the run's event stream.
	Inject     string   `json:"inject,omitempty"`
	Outcome    string   `json:"outcome"`
	Violations []string `json:"violations,omitempty"`
	// ScrubRepairs totals in-process scrub passes the reactor ran; OpenHealed
	// reports that the final reopen had to scrub the image.
	ScrubRepairs       int  `json:"scrub_repairs,omitempty"`
	OpenHealed         bool `json:"open_healed,omitempty"`
	Quarantined        int  `json:"quarantined,omitempty"`
	MitigationAttempts int  `json:"mitigation_attempts,omitempty"`
}

// MediaReport is the full deterministic output of a media sweep.
type MediaReport struct {
	Program  string             `json:"program"`
	Script   string             `json:"script"`
	Seed     int64              `json:"seed"`
	Events   int                `json:"events"`
	Trials   int                `json:"trials"`
	Clean    int                `json:"clean"`
	Healed   int                `json:"healed"`
	Violated int                `json:"violated"`
	Results  []MediaTrialResult `json:"results"`
}

// JSON renders the report byte-identically for a given seed.
func (r *MediaReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RunMedia executes a media-fault sweep: enumerate durability events with a
// baseline run, derive one fault spec per sampled event (kinds cycled, offsets
// and patterns from the seeded PRNG), and run each as an independent trial.
// When imageDir is non-empty, each trial's post-injection (still corrupt)
// image is saved there as <name>-media-NNN.img for offline tooling
// (arthas-inspect scrub) and the CI media job.
func RunMedia(cfg Config, imageDir string) (*MediaReport, error) {
	sw, err := parse(cfg)
	if err != nil {
		return nil, err
	}
	_, events, err := baseline(sw)
	if err != nil {
		return nil, fmt.Errorf("torture: baseline run: %w", err)
	}
	specs := buildMediaSchedules(sw.cfg, events)
	if imageDir != "" {
		if err := os.MkdirAll(imageDir, 0o755); err != nil {
			return nil, fmt.Errorf("torture: image dir: %w", err)
		}
	}
	rep := &MediaReport{
		Program: sw.cfg.Name,
		Script:  sw.cfg.Script,
		Seed:    sw.cfg.Seed,
		Events:  len(events),
		Trials:  len(specs),
		Results: runTrials(sw.cfg.Workers, len(specs), func(i int) MediaTrialResult {
			res := mediaTrial(sw, specs[i], i, imageDir)
			res.Trial = i
			return res
		}),
	}
	rep.Clean, rep.Healed, rep.Violated = tally(rep.Results, func(r MediaTrialResult) string { return r.Outcome })
	return rep, nil
}

// buildMediaSchedules derives one fault spec per event, cycling through the
// four fault kinds so every kind exercises many distinct targets, with the
// seeded PRNG choosing word offsets and corruption patterns. The set is then
// sampled down to cfg.Points (order-preserving).
func buildMediaSchedules(cfg Config, events []EventInfo) []MediaSpec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	specs := make([]MediaSpec, 0, len(events))
	for i, ev := range events {
		k := mediaKinds[i%len(mediaKinds)]
		sp := MediaSpec{Event: i, Kind: k.String()}
		if ev.Words > 1 {
			sp.Word = rng.Intn(ev.Words)
		}
		switch k {
		case pmem.MediaBitFlip:
			sp.Bits = 1 << uint(rng.Intn(64))
		case pmem.MediaStuckWord:
			sp.Value = rng.Uint64()
		case pmem.MediaBlockPoison:
			sp.Seed = rng.Int63()
		}
		specs = append(specs, sp)
	}
	return sample(rng, specs, cfg.Points)
}

// mediaTrial runs one media-fault schedule on a fresh instance. Its
// injector is a passive crash hook that spots where the spec's event
// landed; the fault goes in between workload calls, right after that event
// — modeling media that went bad under a completed write-back. The rest of
// the workload may trap media-corrupt (in-process heal via the reactor's
// scrub-then-retry). The final oracle reopens the image, so whatever
// corruption the workload never touched must be healed (or fenced) by
// OpenImage's scrubber, and the reopened state must pass every structural
// and media invariant.
func mediaTrial(sw *sweep, spec MediaSpec, trial int, imageDir string) MediaTrialResult {
	res := MediaTrialResult{Spec: spec}
	// spec comes from buildMediaSchedules, so its kind is one of mediaKinds.
	fault := pmem.MediaFault{Bits: spec.Bits, Value: spec.Value, Seed: spec.Seed}
	for _, k := range mediaKinds {
		if k.String() == spec.Kind {
			fault.Kind = k
		}
	}
	t, _ := newTrial(sw, sw.cfg.instance())
	pending := false
	t.watch = crashHook(func(i int, ev pmem.DurEvent) (int, bool) {
		if i == spec.Event {
			off := 0
			if ev.Words > 0 {
				off = spec.Word % ev.Words
			}
			fault.Addr = ev.Addr + uint64(off)
			pending = true
		}
		return ev.Words, false
	})
	t.afterCall = func() bool {
		if !pending || res.Inject != "" {
			return true
		}
		r, err := t.inst.Pool.InjectMediaFault(fault)
		if err != nil {
			return t.fail("inject-failed: " + err.Error())
		}
		res.Inject = fmt.Sprintf("%s@%#x+%d", spec.Kind, r.Addr, r.Words)
		if imageDir != "" {
			saveTrialImage(t, imageDir, trial)
		}
		return true
	}
	if t.run(nil) && t.reopen() {
		if s := t.inst.LastScrub; s != nil {
			res.OpenHealed = true
			res.Quarantined = s.Quarantined
			if !s.Healthy() {
				t.fail("open-scrub-unhealthy: " + s.String())
			}
			t.healed = true
		}
		if merr := t.inst.Pool.VerifyMedia(); merr != nil {
			t.fail("media-unclean: " + merr.Error())
		}
		t.check()
		// Reads of quarantined (unreconstructible) data may still trap —
		// that is data loss the log could not prevent, not a violation —
		// but only when something was actually fenced off.
		if t.probe != nil && len(t.violations) == 0 && res.Quarantined == 0 {
			if _, trap := t.inst.Call(t.probe.Fn, t.probe.Args...); trap != nil {
				t.fail("probe-after-reopen: " + trap.Error())
			}
		}
	}
	res.ScrubRepairs, res.MitigationAttempts = t.scrubs, t.attempts
	res.Violations, res.Outcome = t.verdict()
	return res
}

// saveTrialImage writes the still-corrupt image snapshot for offline repair
// tooling. Write failures are violations: the CI job depends on the corpus.
func saveTrialImage(t *trial, dir string, trial int) {
	name := filepath.Base(t.cfg.Name)
	path := filepath.Join(dir, fmt.Sprintf("%s-media-%03d.img", strings.TrimSuffix(name, filepath.Ext(name)), trial))
	var buf bytes.Buffer
	err := t.inst.SaveImage(&buf)
	if err == nil {
		err = os.WriteFile(path, buf.Bytes(), 0o644)
	}
	if err != nil {
		t.fail("image-save-failed: " + err.Error())
	}
}
