package torture

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"arthas"
	"arthas/internal/checkpoint"
	"arthas/internal/pmem"
	"arthas/internal/repl"
)

// Replication torture mode: a primary streams its checkpoint log to a
// standby replica (internal/repl) while the harness kills one party at a
// time — the primary at every durability event (torn tails included), the
// stream mid-record at every shipped sequence number, the replica at every
// applied sequence number — and after every such failure the sweep demands
// the protocol converge back to a WORD-IDENTICAL durable image on both
// sides (pmem.Pool.DurableImage). Like the crash and media sweeps, the
// report is a pure function of the seed and byte-identical at any -workers.

// Replication victim kinds.
const (
	ReplVictimPrimary = "primary" // power-fail the primary at a durability event
	ReplVictimStream  = "stream"  // cut the shipped batch mid-record at a target seq
	ReplVictimReplica = "replica" // kill the replica applying a target seq
)

// ReplSpec orders one replication failure.
type ReplSpec struct {
	Victim string `json:"victim"`
	// Event and Keep drive primary crashes: power-fail at the Event'th
	// durability event keeping Keep words of it durable (-1 = all, the
	// untorn variant).
	Event int `json:"event,omitempty"`
	Keep  int `json:"keep,omitempty"`
	// Seq targets stream cuts and replica kills at one stream record.
	Seq uint64 `json:"seq,omitempty"`
	// Cut picks where inside the target record the stream tears (bytes,
	// reduced mod the record length so the tear is always mid-record).
	Cut int `json:"cut,omitempty"`
}

func (s ReplSpec) String() string {
	switch s.Victim {
	case ReplVictimPrimary:
		return fmt.Sprintf("primary@e%d keep=%d", s.Event, s.Keep)
	case ReplVictimStream:
		return fmt.Sprintf("stream@seq%d cut=%d", s.Seq, s.Cut)
	default:
		return fmt.Sprintf("replica@seq%d", s.Seq)
	}
}

// ReplTrialResult is the outcome of one replication-failure schedule.
type ReplTrialResult struct {
	Trial int      `json:"trial"`
	Spec  ReplSpec `json:"spec"`
	// Fired reports whether the ordered failure actually hit (an event or
	// seq past the run's stream simply never fires).
	Fired bool `json:"fired"`
	// Crashes describes primary power failures that fired ("tx@0x...+3
	// keep=1").
	Crashes []string `json:"crashes,omitempty"`
	// Session counters at the end of the trial.
	Truncations        uint64   `json:"truncations,omitempty"`
	Drops              uint64   `json:"drops,omitempty"`
	Resyncs            uint64   `json:"resyncs,omitempty"`
	Records            uint64   `json:"records,omitempty"`
	MitigationAttempts int      `json:"mitigation_attempts,omitempty"`
	Outcome            string   `json:"outcome"`
	Violations         []string `json:"violations,omitempty"`
}

// ReplReport is the full deterministic output of a replication sweep.
type ReplReport struct {
	Program string `json:"program"`
	Script  string `json:"script"`
	Seed    int64  `json:"seed"`
	// Events is the durability-event count of the fault-free workload;
	// Records the stream records one fault-free replication run ships.
	Events   int               `json:"events"`
	Records  uint64            `json:"records"`
	Trials   int               `json:"trials"`
	Clean    int               `json:"clean"`
	Healed   int               `json:"healed"`
	Violated int               `json:"violated"`
	Results  []ReplTrialResult `json:"results"`
}

// JSON renders the report byte-identically for a given seed.
func (r *ReplReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// RunRepl executes a replication sweep: enumerate the workload's durability
// events and its stream records with one fault-free replication run, derive
// one failure spec per event for each victim kind, and run each as an
// independent trial asserting word-identical convergence.
func RunRepl(cfg Config) (*ReplReport, error) {
	sw, err := parse(cfg)
	if err != nil {
		return nil, err
	}
	// The baseline run ships after every call like a trial, and must itself
	// converge: a broken protocol fails fast here instead of poisoning
	// every trial.
	var events []EventInfo
	base, sess, err := newReplTrial(sw)
	if err == nil {
		events, err = enumerate(base)
	}
	if err != nil {
		return nil, fmt.Errorf("torture: baseline run: %w", err)
	}
	if v := replIdentityViolation(base.inst, sess); v != "" {
		return nil, fmt.Errorf("torture: baseline replication: fault-free replication diverged: %s", v)
	}
	records := sess.Status().Seq
	specs := buildReplSchedules(sw.cfg, events, records)
	rep := &ReplReport{
		Program: sw.cfg.Name,
		Script:  sw.cfg.Script,
		Seed:    sw.cfg.Seed,
		Events:  len(events),
		Records: records,
		Trials:  len(specs),
		Results: runTrials(sw.cfg.Workers, len(specs), func(i int) ReplTrialResult {
			res := replTrial(sw, specs[i])
			res.Trial = i
			return res
		}),
	}
	rep.Clean, rep.Healed, rep.Violated = tally(rep.Results, func(r ReplTrialResult) string { return r.Outcome })
	return rep, nil
}

// buildReplSchedules derives the victim universe: every durability event as
// a primary crash (torn variants when cfg.Torn and the event spans words),
// every stream record as a mid-record cut, every stream record as a replica
// kill — then samples down to cfg.Points (order-preserving).
func buildReplSchedules(cfg Config, events []EventInfo, records uint64) []ReplSpec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var specs []ReplSpec
	for i, ev := range events {
		specs = append(specs, ReplSpec{Victim: ReplVictimPrimary, Event: i, Keep: -1})
		if cfg.Torn && ev.Words > 1 {
			specs = append(specs, ReplSpec{
				Victim: ReplVictimPrimary, Event: i, Keep: rng.Intn(ev.Words),
			})
		}
	}
	for seq := uint64(1); seq <= records; seq++ {
		specs = append(specs, ReplSpec{Victim: ReplVictimStream, Seq: seq, Cut: 1 + rng.Intn(62)})
	}
	for seq := uint64(1); seq <= records; seq++ {
		specs = append(specs, ReplSpec{Victim: ReplVictimReplica, Seq: seq})
	}
	return sample(rng, specs, cfg.Points)
}

// newReplTrial deploys a primary whose checkpoint log streams through a
// shipper to a standby replica, and hooks the session into the trial: it
// ships after every call (the tightest lag bound), and every heal or crash
// reopen — durable writes the stream never saw — marks it dirty so it
// resyncs before trusting the stream again. The session's snapshot source
// reads the trial's CURRENT instance, which crash reopens replace.
func newReplTrial(sw *sweep) (*trial, *repl.Session, error) {
	sh := repl.NewShipper()
	acfg := sw.cfg.instance()
	acfg.WrapHooks = sh.WrapHooks
	t, err := newTrial(sw, acfg)
	if err != nil {
		return t, nil, err
	}
	sess := repl.NewSession(sh, uint64(sw.cfg.Seed)|1, func() (*pmem.Pool, *checkpoint.Log) {
		return t.inst.Pool, t.inst.Log
	})
	if err := sess.Ship(); err != nil {
		t.fail("deploy-failed: " + err.Error())
		return t, nil, err
	}
	t.afterCall = func() bool {
		if err := sess.Ship(); err != nil {
			return t.fail("ship-failed: " + err.Error())
		}
		return true
	}
	t.dirty = sess.MarkDirty
	return t, sess, nil
}

// replIdentityViolation ships any residue and compares the primary's and
// replica's durable images word by word — the sweep's convergence oracle.
func replIdentityViolation(primary *arthas.Instance, sess *repl.Session) string {
	if err := sess.Ship(); err != nil {
		return "final-ship-failed: " + err.Error()
	}
	if lag := sess.Lag(); lag != 0 {
		return fmt.Sprintf("residual-lag: %d records unacked after final ship", lag)
	}
	prim := primary.Pool.DurableImage()
	rep := sess.ReplicaImage()
	if rep == nil {
		return "no-replica: session lost its replica"
	}
	if len(prim) != len(rep) {
		return fmt.Sprintf("image-size-mismatch: %d vs %d words", len(prim), len(rep))
	}
	for i := range prim {
		if prim[i] != rep[i] {
			return fmt.Sprintf("word-divergence: addr %#x primary=%#x replica=%#x",
				i, prim[i], rep[i])
		}
	}
	return ""
}

// replTrial runs one replication-failure schedule on a fresh rig. A primary
// victim is a one-crash schedule; a stream or replica victim is a link or
// replica fault that fires once. The final oracle demands convergence:
// primary and replica durable images word-identical, zero residual lag,
// and the session having noticed the failure it was dealt.
func replTrial(sw *sweep, spec ReplSpec) ReplTrialResult {
	res := ReplTrialResult{Spec: spec}
	t, sess, err := newReplTrial(sw)
	if err != nil {
		res.Violations, res.Outcome = t.verdict()
		return res
	}
	var sched Schedule
	switch spec.Victim {
	case ReplVictimPrimary:
		sched = Schedule{{Event: spec.Event, Keep: spec.Keep}}
	case ReplVictimStream:
		// Tear the wire batch mid-record at the target seq, once. The
		// session must keep the complete prefix, count a truncation, and
		// re-ship the tail.
		sess.LinkFault = func(b []byte) []byte {
			if res.Fired {
				return b
			}
			ops, err := checkpoint.DecodeStream(b)
			if err != nil {
				return b
			}
			off := 0
			for _, op := range ops {
				l := op.EncodedLen()
				if op.Seq == spec.Seq {
					cut := spec.Cut % (l - 1)
					if cut == 0 {
						cut = 1
					}
					res.Fired = true
					return b[:off+cut]
				}
				off += l
			}
			return b
		}
	case ReplVictimReplica:
		// Kill the replica as it applies the target seq, once. The session
		// must drop it, back off, and resync from a fresh snapshot.
		sess.ReplicaFault = func(seq uint64) bool {
			if !res.Fired && seq == spec.Seq {
				res.Fired = true
				return true
			}
			return false
		}
	}
	if t.run(sched) {
		if v := replIdentityViolation(t.inst, sess); v != "" {
			t.fail(v)
		}
		st := sess.Status()
		switch {
		case res.Fired && spec.Victim == ReplVictimStream && st.Truncations == 0:
			t.fail("cut-unnoticed: stream tear produced no truncation")
		case res.Fired && spec.Victim == ReplVictimReplica && st.Drops == 0:
			t.fail("kill-unnoticed: replica death produced no drop")
		}
		t.check()
	}
	st := sess.Status()
	res.Fired = res.Fired || len(t.crashes) > 0
	res.Crashes, res.MitigationAttempts = t.crashes, t.attempts
	res.Truncations, res.Drops, res.Resyncs, res.Records = st.Truncations, st.Drops, st.Resyncs, st.Records
	res.Violations, res.Outcome = t.verdict()
	return res
}
