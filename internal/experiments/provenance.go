package experiments

import (
	"fmt"
	"strings"
	"time"

	"arthas/internal/checkpoint"
	"arthas/internal/pmem"
	"arthas/internal/provenance"
)

// Provenance-overhead experiment: what the write-lineage index costs on the
// persist hot path (hooks wrapped around the checkpoint log's), against the
// same stream with lineage disabled. This is the baseline the future
// flush-elimination pass is judged against: its candidate metric (the
// redundant-persist ratio) is reported here from day one.

// ProvenanceConfig sizes the measurement.
type ProvenanceConfig struct {
	// PoolWords sizes the measured pool (default 1<<16).
	PoolWords int
	// PersistOps is the store+persist operations per variant (default
	// 30_000).
	PersistOps int
	// PersistSpan is the words per persist (default 8 — a cache line).
	PersistSpan int
	// RedundantEvery makes every Nth persist repeat the previous span
	// without new stores (default 4), so the redundant-persist accounting
	// has signal to report.
	RedundantEvery int
}

func (c ProvenanceConfig) withDefaults() ProvenanceConfig {
	if c.PoolWords == 0 {
		c.PoolWords = 1 << 16
	}
	if c.PersistOps == 0 {
		c.PersistOps = 30_000
	}
	if c.PersistSpan == 0 {
		c.PersistSpan = 8
	}
	if c.RedundantEvery == 0 {
		c.RedundantEvery = 4
	}
	return c
}

// ProvenanceResults is the measured cost plus the amplification digest the
// enabled index produced.
type ProvenanceResults struct {
	PersistOps  int `json:"persist_ops"`
	PersistSpan int `json:"persist_span"`
	// Persist hot path: checkpoint log alone vs log + lineage index.
	BaselineMS float64 `json:"baseline_ms"`
	LineageMS  float64 `json:"lineage_ms"`
	// OverheadPct is the relative cost of stamping lineage records
	// ((lineage/baseline - 1) × 100).
	OverheadPct float64 `json:"overhead_pct"`

	// Amplification digest from the enabled run (the Bentō baseline).
	LineageRecords      uint64  `json:"lineage_records"`
	DistinctWords       int     `json:"distinct_words"`
	MeanPersistsPerWord float64 `json:"mean_persists_per_word"`
	RedundantPersists   uint64  `json:"redundant_persists"`
	RedundantRatio      float64 `json:"redundant_ratio"`
	HotSiteGUID         int     `json:"hot_site_guid"`
	HotSiteWords        uint64  `json:"hot_site_words"`
}

// provenancePersistLoop runs the hot-path stream: fresh stores + persist,
// with every RedundantEvery-th persist re-persisting the previous span
// unmodified (a redundant flush).
func provenancePersistLoop(p *pmem.Pool, idx *provenance.Index, buf uint64, bufWords int, cfg ProvenanceConfig) error {
	span := cfg.PersistSpan
	spans := bufWords / span
	for op := 0; op < cfg.PersistOps; op++ {
		addr := buf + uint64((op%spans)*span)
		if op%cfg.RedundantEvery == cfg.RedundantEvery-1 && op > 0 {
			// Redundant flush: previous span, no new stores.
			prev := buf + uint64(((op-1)%spans)*span)
			if err := p.Persist(prev, span); err != nil {
				return err
			}
			continue
		}
		for w := 0; w < span; w++ {
			if idx != nil {
				// The VM's WriteSink analogue: attribute the store to a
				// synthetic site so the per-site table has entries.
				idx.NoteWrite(100+(op%7), addr+uint64(w))
			}
			p.Store(addr+uint64(w), uint64(op)<<8|uint64(w))
		}
		if err := p.Persist(addr, span); err != nil {
			return err
		}
	}
	return nil
}

// RunProvenance measures the lineage index's persist-path overhead.
func RunProvenance(cfg ProvenanceConfig) (*ProvenanceResults, error) {
	cfg = cfg.withDefaults()
	res := &ProvenanceResults{PersistOps: cfg.PersistOps, PersistSpan: cfg.PersistSpan}
	bufWords := 64 * pmem.MediaBlockWords
	if bufWords > cfg.PoolWords/2 {
		bufWords = cfg.PoolWords / 2
	}

	for _, lineage := range []bool{false, true} {
		p := pmem.New(cfg.PoolWords)
		log := checkpoint.NewLog(3)
		var idx *provenance.Index
		if lineage {
			idx = provenance.New()
			p.SetHooks(idx.WrapHooks(log.Hooks(), log))
		} else {
			p.SetHooks(log.Hooks())
		}
		buf, err := p.Alloc(bufWords)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := provenancePersistLoop(p, idx, buf, bufWords, cfg); err != nil {
			return nil, err
		}
		elapsed := ms(time.Since(start))
		if lineage {
			res.LineageMS = elapsed
			st := idx.Stats()
			res.LineageRecords = st.Records
			res.DistinctWords = st.DistinctWords
			res.MeanPersistsPerWord = st.MeanPersistsPerWord
			res.RedundantPersists = st.RedundantPersists
			res.RedundantRatio = st.RedundantRatio
			if len(st.Sites) > 0 {
				res.HotSiteGUID = st.Sites[0].GUID
				res.HotSiteWords = st.Sites[0].PersistedWords
			}
		} else {
			res.BaselineMS = elapsed
		}
	}
	if res.BaselineMS > 0 {
		res.OverheadPct = (res.LineageMS/res.BaselineMS - 1) * 100
	}
	return res, nil
}

// Text renders the results (arthas-bench -exp provenance).
func (r *ProvenanceResults) Text() string {
	var sb strings.Builder
	sb.WriteString("Write-lineage (provenance) cost on the persist hot path\n")
	fmt.Fprintf(&sb, "  persist stream (%d ops x %d words):\n", r.PersistOps, r.PersistSpan)
	fmt.Fprintf(&sb, "    checkpoint only:   %8.2f ms\n", r.BaselineMS)
	fmt.Fprintf(&sb, "    + lineage index:   %8.2f ms  (%+.2f%% overhead)\n", r.LineageMS, r.OverheadPct)
	fmt.Fprintf(&sb, "  amplification digest: %d records over %d distinct words, mean %.2f persists/word\n",
		r.LineageRecords, r.DistinctWords, r.MeanPersistsPerWord)
	fmt.Fprintf(&sb, "  redundant persists: %d (%.1f%% of word-persists — the flush-elimination headroom)\n",
		r.RedundantPersists, r.RedundantRatio*100)
	fmt.Fprintf(&sb, "  hottest site: guid=%d with %d persisted words\n", r.HotSiteGUID, r.HotSiteWords)
	return sb.String()
}
