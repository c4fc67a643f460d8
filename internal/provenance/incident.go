// Incident reports: the end-to-end causal story of one mitigated fault,
// serialized as `arthas-incident/v1` JSON. One report joins every stage the
// pipeline already runs — detector signature, lineage of the faulting words,
// the reactor's candidate plan with per-candidate evidence, the reversion
// and scrub decisions, and the outcome — so a post-mortem no longer has to
// reconstruct the story from four different tools.
//
// Determinism contract (mirrors internal/scrub's report): two runs of the
// same case produce byte-identical JSON at any worker count. No wall-clock
// times, no Go-map iteration feeds the encoder; every slice is emitted in a
// deterministic order.
package provenance

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"arthas/internal/analysis"
	"arthas/internal/checkpoint"
	"arthas/internal/detector"
	"arthas/internal/reactor"
	"arthas/internal/scrub"
	"arthas/internal/vm"
)

// IncidentSchema identifies the incident report JSON schema.
const IncidentSchema = "arthas-incident/v1"

// Site is one instrumented source location (from the analyzer's GUID table).
type Site struct {
	GUID  int    `json:"guid"`
	Fn    string `json:"fn,omitempty"`
	Pos   string `json:"pos,omitempty"`
	Instr string `json:"instr,omitempty"`
}

// String renders "fn @ pos (instr)".
func (s *Site) String() string {
	if s == nil {
		return "?"
	}
	out := fmt.Sprintf("%s @ %s", s.Fn, s.Pos)
	if s.Instr != "" {
		out += " (" + s.Instr + ")"
	}
	return out
}

// WordLineage is the provenance of one durable word at incident time.
type WordLineage struct {
	Addr        uint64 `json:"addr"`
	Seq         uint64 `json:"seq,omitempty"`
	Tx          uint64 `json:"tx,omitempty"`
	WriteStep   int64  `json:"write_step,omitempty"`
	PersistStep int64  `json:"persist_step,omitempty"`
	Persists    uint64 `json:"persists,omitempty"`
	Site        *Site  `json:"site,omitempty"`
	// Known is false when the lineage ring no longer holds the word (never
	// persisted, or its record aged out).
	Known bool `json:"known"`
}

// IncidentSignature flattens the detector signature.
type IncidentSignature struct {
	Kind      string `json:"kind"`
	Fn        string `json:"fn,omitempty"`
	Loc       string `json:"loc,omitempty"`
	GUID      int    `json:"guid,omitempty"`
	Code      int64  `json:"code,omitempty"`
	Stack     string `json:"stack,omitempty"`
	HardFault bool   `json:"hard_fault"`
}

// CandidateEvidence is one reversion-plan candidate with its evidence: why
// the reactor considered it (slice distance, trace address) and what lineage
// the index holds for that address.
type CandidateEvidence struct {
	Seq      uint64       `json:"seq"`
	GUID     int          `json:"guid"`
	Dist     int          `json:"dist"`
	Addr     uint64       `json:"addr"`
	Tx       uint64       `json:"tx,omitempty"`
	Site     *Site        `json:"site,omitempty"`
	Reverted bool         `json:"reverted,omitempty"`
	Lineage  *WordLineage `json:"lineage,omitempty"`
}

// ModeAttempts is one strategy's attempt count (sorted slice, never a map).
type ModeAttempts struct {
	Mode     string `json:"mode"`
	Attempts int    `json:"attempts"`
}

// Mitigation summarizes the reactor's decisions and their cost.
type Mitigation struct {
	Recovered        bool           `json:"recovered"`
	RestartOnly      bool           `json:"restart_only,omitempty"`
	ModeUsed         string         `json:"mode_used"`
	FellBack         bool           `json:"fell_back,omitempty"`
	Replans          int            `json:"replans,omitempty"`
	ScrubRepairs     int            `json:"scrub_repairs,omitempty"`
	Attempts         int            `json:"attempts"`
	AttemptsByMode   []ModeAttempts `json:"attempts_by_mode,omitempty"`
	CandidateCount   int            `json:"candidate_count"`
	RevertedSeqs     []uint64       `json:"reverted_seqs,omitempty"`
	RevertedVersions int            `json:"reverted_versions"`
	TotalVersions    uint64         `json:"total_versions"`
}

// RootCause names the write the mitigation actually undid: the first
// reverted checkpoint version, resolved through the plan, the checkpoint
// log, and the analyzer's GUID table.
type RootCause struct {
	Seq uint64 `json:"seq"`
	Tx  uint64 `json:"tx,omitempty"`
	// EntryAddr/EntryWords/VersionIndex locate the reverted version inside
	// the checkpoint log (entry↔lineage linkage).
	EntryAddr    uint64 `json:"entry_addr"`
	EntryWords   int    `json:"entry_words"`
	VersionIndex int    `json:"version_index"`
	GUID         int    `json:"guid,omitempty"`
	Site         *Site  `json:"site,omitempty"`
}

// ScrubSummary condenses a media-scrub report into the incident.
type ScrubSummary struct {
	CorruptBlocks int  `json:"corrupt_blocks"`
	Healed        int  `json:"healed"`
	Quarantined   int  `json:"quarantined"`
	RepairedWords int  `json:"repaired_words"`
	Degraded      bool `json:"degraded,omitempty"`
	Healthy       bool `json:"healthy"`
}

// Incident is one end-to-end incident report (`arthas-incident/v1`).
type Incident struct {
	Schema      string `json:"schema"`
	Case        string `json:"case,omitempty"`
	System      string `json:"system,omitempty"`
	Fault       string `json:"fault,omitempty"`
	Consequence string `json:"consequence,omitempty"`

	Signature IncidentSignature `json:"signature"`
	// FaultAddr/FaultStep describe the trapping access (0 when the failure
	// had no faulting address — asserts, hangs, wrong results).
	FaultAddr uint64 `json:"fault_addr,omitempty"`
	FaultStep int64  `json:"fault_step,omitempty"`

	// Lineage holds the provenance of the faulting words: the trap address
	// plus every address the winning reversion touched, ascending.
	Lineage []WordLineage `json:"lineage,omitempty"`

	// Plan is the reactor's candidate list in plan (trial) order.
	Plan []CandidateEvidence `json:"plan,omitempty"`

	Mitigation Mitigation    `json:"mitigation"`
	RootCause  *RootCause    `json:"root_cause,omitempty"`
	Scrub      *ScrubSummary `json:"scrub,omitempty"`

	// Outcome is "recovered", "restart-only", or "not-recovered".
	Outcome string `json:"outcome"`
}

// IncidentInput bundles what BuildIncident joins. Index, Log, Analysis,
// Scrub, and Report.Plan may each be nil; the report degrades gracefully
// (lineage unknown, sites unresolved) rather than failing.
type IncidentInput struct {
	Case        string
	System      string
	Fault       string
	Consequence string

	Signature detector.Signature
	HardFault bool
	Trap      *vm.Trap

	Report   *reactor.Report
	Index    *Index
	Log      *checkpoint.Log
	Analysis *analysis.Result
	Scrub    *scrub.Report

	// VersionsAtFailure, when nonzero, overrides the report's TotalVersions
	// in the incident. The report counts the log's LIFETIME versions, which
	// sequential probe re-executions inflate on the primary log while
	// parallel ones inflate private fork logs — the count at failure time is
	// the one that is identical at every worker count.
	VersionsAtFailure uint64
}

// siteCache resolves GUIDs to source sites (nil when unknown), each GUID
// once per incident: plan candidates and lineage entries share few GUIDs.
type siteCache struct {
	res   *analysis.Result
	sites map[int]*Site
}

func (c *siteCache) of(guid int) *Site {
	if c.res == nil || guid == 0 {
		return nil
	}
	if s, ok := c.sites[guid]; ok {
		return s
	}
	var s *Site
	for i := range c.res.GUIDs {
		if gi := &c.res.GUIDs[i]; gi.GUID == guid {
			s = &Site{GUID: guid, Fn: gi.Fn, Pos: gi.Pos.String(), Instr: gi.Instr}
			break
		}
	}
	c.sites[guid] = s
	return s
}

// lineageOf assembles one word's lineage entry.
func lineageOf(idx *Index, sites *siteCache, addr uint64) WordLineage {
	wl := WordLineage{Addr: addr}
	if idx == nil {
		return wl
	}
	rec, ok := idx.Lookup(addr)
	if !ok {
		wl.Persists = idx.Persists(addr)
		return wl
	}
	wl.Known = true
	wl.Seq = rec.Seq
	wl.Tx = rec.Tx
	wl.WriteStep = rec.WriteStep
	wl.PersistStep = rec.PersistStep
	wl.Persists = rec.Persists
	wl.Site = sites.of(rec.GUID)
	return wl
}

// BuildIncident joins one mitigated fault into an incident report.
func BuildIncident(in IncidentInput) *Incident {
	inc := &Incident{
		Schema:      IncidentSchema,
		Case:        in.Case,
		System:      in.System,
		Fault:       in.Fault,
		Consequence: in.Consequence,
		Signature: IncidentSignature{
			Kind:      in.Signature.Kind.String(),
			Fn:        in.Signature.Fn,
			Loc:       in.Signature.Loc,
			GUID:      in.Signature.GUID,
			Code:      in.Signature.Code,
			Stack:     in.Signature.Stack,
			HardFault: in.HardFault,
		},
		Outcome: "not-recovered",
	}
	sites := &siteCache{res: in.Analysis, sites: map[int]*Site{}}
	if in.Trap != nil {
		inc.FaultAddr = in.Trap.Addr
		inc.FaultStep = in.Trap.Step
	}

	rep := in.Report
	reverted := map[uint64]bool{}
	if rep != nil {
		for _, s := range rep.RevertedSeqs {
			reverted[s] = true
		}
		inc.Mitigation = Mitigation{
			Recovered:        rep.Recovered,
			RestartOnly:      rep.RestartOnly,
			ModeUsed:         rep.ModeUsed.String(),
			FellBack:         rep.FellBack,
			Replans:          rep.Replans,
			ScrubRepairs:     rep.ScrubRepairs,
			Attempts:         rep.Attempts,
			CandidateCount:   rep.CandidateCount,
			RevertedSeqs:     append([]uint64(nil), rep.RevertedSeqs...),
			RevertedVersions: rep.RevertedVersions,
			TotalVersions:    rep.TotalVersions,
		}
		if in.VersionsAtFailure != 0 {
			inc.Mitigation.TotalVersions = in.VersionsAtFailure
		}
		for _, mode := range []string{"purge", "rollback", "restart"} {
			if n := rep.AttemptsByMode[mode]; n > 0 {
				inc.Mitigation.AttemptsByMode = append(inc.Mitigation.AttemptsByMode,
					ModeAttempts{Mode: mode, Attempts: n})
			}
		}
		switch {
		case rep.Recovered && rep.RestartOnly:
			inc.Outcome = "restart-only"
		case rep.Recovered:
			inc.Outcome = "recovered"
		}
	}

	// Plan with per-candidate evidence.
	if rep != nil && rep.Plan != nil && len(rep.Plan.Candidates) > 0 {
		inc.Plan = make([]CandidateEvidence, 0, len(rep.Plan.Candidates))
		for _, c := range rep.Plan.Candidates {
			ev := CandidateEvidence{
				Seq: c.Seq, GUID: c.GUID, Dist: c.Dist, Addr: c.Addr,
				Site:     sites.of(c.GUID),
				Reverted: reverted[c.Seq],
			}
			if in.Log != nil {
				ev.Tx = in.Log.TxOf(c.Seq)
			}
			if in.Index != nil {
				wl := lineageOf(in.Index, sites, c.Addr)
				ev.Lineage = &wl
			}
			inc.Plan = append(inc.Plan, ev)
		}
	}

	// Lineage of the faulting words: trap address + reverted candidates'
	// addresses, deduplicated, ascending.
	addrSet := map[uint64]bool{}
	if in.Trap != nil && in.Trap.Addr != 0 {
		addrSet[in.Trap.Addr] = true
	}
	for _, ev := range inc.Plan {
		if ev.Reverted {
			addrSet[ev.Addr] = true
		}
	}
	addrs := make([]uint64, 0, len(addrSet))
	for a := range addrSet {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	for _, a := range addrs {
		inc.Lineage = append(inc.Lineage, lineageOf(in.Index, sites, a))
	}

	// Root cause: the first reverted sequence number, resolved to its
	// checkpoint entry/version and its write site.
	if rep != nil && len(rep.RevertedSeqs) > 0 {
		seq := rep.RevertedSeqs[0]
		rc := &RootCause{Seq: seq}
		if in.Log != nil {
			rc.Tx = in.Log.TxOf(seq)
			if e, vi, ok := in.Log.Locate(seq); ok {
				rc.EntryAddr = e.Addr
				rc.EntryWords = e.Words
				rc.VersionIndex = vi
			}
		}
		if rep.Plan != nil {
			for _, c := range rep.Plan.Candidates {
				if c.Seq == seq {
					rc.GUID = c.GUID
					rc.Site = sites.of(c.GUID)
					break
				}
			}
		}
		inc.RootCause = rc
	}

	if in.Scrub != nil {
		inc.Scrub = &ScrubSummary{
			CorruptBlocks: in.Scrub.CorruptBlocks,
			Healed:        in.Scrub.Healed,
			Quarantined:   in.Scrub.Quarantined,
			RepairedWords: in.Scrub.RepairedWords,
			Degraded:      in.Scrub.Degraded,
			Healthy:       in.Scrub.Healthy(),
		}
	}
	return inc
}

// JSON renders the incident deterministically (trailing newline included).
func (inc *Incident) JSON() []byte {
	b, _ := json.MarshalIndent(inc, "", "  ")
	return append(b, '\n')
}

// DecodeIncident parses an incident report, checking the schema tag.
func DecodeIncident(data []byte) (*Incident, error) {
	var inc Incident
	if err := json.Unmarshal(data, &inc); err != nil {
		return nil, fmt.Errorf("incident: %w", err)
	}
	if inc.Schema != IncidentSchema {
		return nil, fmt.Errorf("incident: schema %q, want %q", inc.Schema, IncidentSchema)
	}
	return &inc, nil
}

// Text renders the incident as a human post-mortem timeline
// (arthas-inspect incident).
func (inc *Incident) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "incident (%s)", inc.Schema)
	if inc.Case != "" {
		fmt.Fprintf(&sb, " — case %s", inc.Case)
	}
	if inc.System != "" {
		fmt.Fprintf(&sb, " on %s", inc.System)
	}
	sb.WriteString("\n")
	if inc.Fault != "" {
		fmt.Fprintf(&sb, "  fault:       %s", inc.Fault)
		if inc.Consequence != "" {
			fmt.Fprintf(&sb, " → %s", inc.Consequence)
		}
		sb.WriteString("\n")
	}
	sig := inc.Signature
	fmt.Fprintf(&sb, "  signature:   %s", sig.Kind)
	if sig.Fn != "" {
		fmt.Fprintf(&sb, " at %s @ %s", sig.Fn, sig.Loc)
	}
	if sig.GUID != 0 {
		fmt.Fprintf(&sb, " guid=%d", sig.GUID)
	}
	if sig.Code != 0 {
		fmt.Fprintf(&sb, " code=%d", sig.Code)
	}
	fmt.Fprintf(&sb, " hard=%v\n", sig.HardFault)
	if inc.FaultAddr != 0 {
		fmt.Fprintf(&sb, "  fault addr:  %#x (step %d)\n", inc.FaultAddr, inc.FaultStep)
	}
	if len(inc.Lineage) > 0 {
		sb.WriteString("  lineage of faulting words:\n")
		for _, wl := range inc.Lineage {
			fmt.Fprintf(&sb, "    %#x: ", wl.Addr)
			if !wl.Known {
				if wl.Persists > 0 {
					fmt.Fprintf(&sb, "lineage aged out (%d persists recorded)\n", wl.Persists)
				} else {
					sb.WriteString("no recorded lineage\n")
				}
				continue
			}
			fmt.Fprintf(&sb, "last written by %s, write step %d, persisted step %d",
				wl.Site.String(), wl.WriteStep, wl.PersistStep)
			if wl.Seq != 0 {
				fmt.Fprintf(&sb, ", ckpt seq %d", wl.Seq)
				if wl.Tx != 0 {
					fmt.Fprintf(&sb, " (tx %d)", wl.Tx)
				}
			}
			fmt.Fprintf(&sb, ", %d lifetime persists\n", wl.Persists)
		}
	}
	if len(inc.Plan) > 0 {
		fmt.Fprintf(&sb, "  plan: %d candidates (trial order)\n", len(inc.Plan))
		for i, ev := range inc.Plan {
			fmt.Fprintf(&sb, "    [%d] seq=%d dist=%d addr=%#x %s", i, ev.Seq, ev.Dist, ev.Addr, ev.Site.String())
			if ev.Tx != 0 {
				fmt.Fprintf(&sb, " tx=%d", ev.Tx)
			}
			if ev.Reverted {
				sb.WriteString("  << REVERTED")
			}
			sb.WriteString("\n")
		}
	}
	m := inc.Mitigation
	fmt.Fprintf(&sb, "  mitigation:  mode=%s attempts=%d", m.ModeUsed, m.Attempts)
	if len(m.AttemptsByMode) > 0 {
		var parts []string
		for _, ma := range m.AttemptsByMode {
			parts = append(parts, fmt.Sprintf("%s:%d", ma.Mode, ma.Attempts))
		}
		fmt.Fprintf(&sb, " [%s]", strings.Join(parts, " "))
	}
	fmt.Fprintf(&sb, " reverted=%d/%d versions", m.RevertedVersions, m.TotalVersions)
	if m.FellBack {
		sb.WriteString(" (fell back to rollback)")
	}
	if m.Replans > 0 {
		fmt.Fprintf(&sb, " replans=%d", m.Replans)
	}
	if m.ScrubRepairs > 0 {
		fmt.Fprintf(&sb, " scrub_repairs=%d", m.ScrubRepairs)
	}
	sb.WriteString("\n")
	if inc.Scrub != nil {
		s := inc.Scrub
		fmt.Fprintf(&sb, "  scrub:       %d corrupt blocks, %d healed, %d quarantined, %d words repaired",
			s.CorruptBlocks, s.Healed, s.Quarantined, s.RepairedWords)
		if s.Degraded {
			sb.WriteString(", DEGRADED")
		}
		sb.WriteString("\n")
	}
	if rc := inc.RootCause; rc != nil {
		fmt.Fprintf(&sb, "  root cause:  seq=%d", rc.Seq)
		if rc.Tx != 0 {
			fmt.Fprintf(&sb, " tx=%d", rc.Tx)
		}
		fmt.Fprintf(&sb, " — %s — checkpoint entry %#x+%d version %d\n",
			rc.Site.String(), rc.EntryAddr, rc.EntryWords, rc.VersionIndex)
	}
	fmt.Fprintf(&sb, "  outcome:     %s\n", inc.Outcome)
	return sb.String()
}
