package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"arthas/internal/checkpoint"
	"arthas/internal/pmem"
	"arthas/internal/scrub"
)

// Media-resilience cost experiments (docs/MEDIA_FAULTS.md): what the
// checksummed pool costs on the persist hot path, how fast a full seal scan
// runs, and what one scrub-and-heal cycle takes. These are this repo's
// additions over the paper's evaluation — the paper's Table 7 shows
// checksums detecting corruption; this measures making that detection an
// always-on property of the pool.

// ScrubConfig sizes the measurement.
type ScrubConfig struct {
	// PoolWords sizes the measured pool (default 1<<16).
	PoolWords int
	// PersistOps is the store+persist operations per maintenance variant
	// (default 30_000).
	PersistOps int
	// PersistSpan is the words per persist (default 8 — a cache line).
	PersistSpan int
	// ScanPasses is the full VerifyMedia sweeps timed (default 50).
	ScanPasses int
	// FaultBlocks is the media blocks corrupted per repair cycle (default 8).
	FaultBlocks int
	// Cycles is the inject-scrub-heal cycles measured (default 10).
	Cycles int
	Seed   int64
}

func (c ScrubConfig) withDefaults() ScrubConfig {
	if c.PoolWords == 0 {
		c.PoolWords = 1 << 16
	}
	if c.PersistOps == 0 {
		c.PersistOps = 30_000
	}
	if c.PersistSpan == 0 {
		c.PersistSpan = 8
	}
	if c.ScanPasses == 0 {
		c.ScanPasses = 50
	}
	if c.FaultBlocks == 0 {
		c.FaultBlocks = 8
	}
	if c.Cycles == 0 {
		c.Cycles = 10
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return c
}

// ScrubResults is the measured cost of media resilience.
type ScrubResults struct {
	// Persist hot path: identical store+persist streams with incremental
	// checksum maintenance off (baseline) and on.
	PersistOps    int     `json:"persist_ops"`
	PersistSpan   int     `json:"persist_span"`
	BaselineMS    float64 `json:"baseline_ms"`
	ChecksummedMS float64 `json:"checksummed_ms"`
	// OverheadPct is the relative persist-path cost of maintaining seals
	// ((checksummed/baseline - 1) × 100; the target is < 5%).
	OverheadPct float64 `json:"overhead_pct"`

	// Full-pool seal scan (VerifyMedia: recompute every block checksum).
	ScanPasses     int     `json:"scan_passes"`
	ScanWords      int     `json:"scan_words"`
	ScanWordsPerMS float64 `json:"scan_words_per_ms"`

	// Scrub-and-heal cycle: FaultBlocks bit flips injected, then
	// scrub.Repair rolls the poisoned words forward from the checkpoint log.
	Cycles        int     `json:"cycles"`
	FaultBlocks   int     `json:"fault_blocks"`
	RepairMeanMS  float64 `json:"repair_mean_ms"`
	RepairedWords int     `json:"repaired_words"`
	AllHealed     bool    `json:"all_healed"`
}

// persistLoop runs the hot-path stream: cycle over the buffer storing fresh
// values and persisting PersistSpan-word spans.
func persistLoop(p *pmem.Pool, buf uint64, bufWords int, cfg ScrubConfig) error {
	span := cfg.PersistSpan
	spans := bufWords / span
	for op := 0; op < cfg.PersistOps; op++ {
		addr := buf + uint64((op%spans)*span)
		for w := 0; w < span; w++ {
			p.Store(addr+uint64(w), uint64(op)<<8|uint64(w))
		}
		if err := p.Persist(addr, span); err != nil {
			return err
		}
	}
	return nil
}

// RunScrub measures the three media-resilience costs.
func RunScrub(cfg ScrubConfig) (*ScrubResults, error) {
	cfg = cfg.withDefaults()
	res := &ScrubResults{
		PersistOps:  cfg.PersistOps,
		PersistSpan: cfg.PersistSpan,
		ScanPasses:  cfg.ScanPasses,
		Cycles:      cfg.Cycles,
		FaultBlocks: cfg.FaultBlocks,
		AllHealed:   true,
	}
	bufWords := 64 * pmem.MediaBlockWords
	if bufWords > cfg.PoolWords/2 {
		bufWords = cfg.PoolWords / 2
	}

	// Persist-path overhead: same stream, maintenance off vs on, each on a
	// fresh pool so allocator state is identical.
	for _, maintain := range []bool{false, true} {
		p := pmem.New(cfg.PoolWords)
		buf, err := p.Alloc(bufWords)
		if err != nil {
			return nil, err
		}
		p.SetMediaMaintenance(maintain)
		start := time.Now()
		if err := persistLoop(p, buf, bufWords, cfg); err != nil {
			return nil, err
		}
		elapsed := ms(time.Since(start))
		if maintain {
			res.ChecksummedMS = elapsed
		} else {
			res.BaselineMS = elapsed
		}
	}
	if res.BaselineMS > 0 {
		res.OverheadPct = (res.ChecksummedMS/res.BaselineMS - 1) * 100
	}

	// Scan throughput: full seal sweeps over a sealed pool with live data.
	p := pmem.New(cfg.PoolWords)
	buf, err := p.Alloc(bufWords)
	if err != nil {
		return nil, err
	}
	if err := persistLoop(p, buf, bufWords, cfg); err != nil {
		return nil, err
	}
	res.ScanWords = p.Words()
	start := time.Now()
	for i := 0; i < cfg.ScanPasses; i++ {
		if merr := p.VerifyMedia(); merr != nil {
			return nil, fmt.Errorf("scrub bench: clean pool failed scan: %v", merr)
		}
	}
	scanMS := ms(time.Since(start))
	if scanMS > 0 {
		res.ScanWordsPerMS = float64(res.ScanWords*cfg.ScanPasses) / scanMS
	}

	// Repair cycle: a checkpointed pool, FaultBlocks bit flips per cycle,
	// healed from the log.
	p = pmem.New(cfg.PoolWords)
	log := checkpoint.NewLog(3)
	p.SetHooks(log.Hooks())
	buf, err = p.Alloc(bufWords)
	if err != nil {
		return nil, err
	}
	if err := persistLoop(p, buf, bufWords, cfg); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	blocks := bufWords / pmem.MediaBlockWords
	var repairTotal time.Duration
	for c := 0; c < cfg.Cycles; c++ {
		hit := rng.Perm(blocks)[:cfg.FaultBlocks]
		for _, b := range hit {
			addr := buf + uint64(b*pmem.MediaBlockWords+rng.Intn(pmem.MediaBlockWords))
			if _, err := p.InjectMediaFault(pmem.MediaFault{
				Kind: pmem.MediaBitFlip, Addr: addr, Bits: 1 << uint(rng.Intn(64)),
			}); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		rep := scrub.Repair(p, log, nil)
		repairTotal += time.Since(start)
		res.RepairedWords += rep.RepairedWords
		if !rep.Healthy() || rep.Healed != rep.CorruptBlocks {
			res.AllHealed = false
		}
	}
	res.RepairMeanMS = ms(repairTotal) / float64(cfg.Cycles)
	return res, nil
}

// Text renders the results (arthas-bench -exp scrub).
func (r *ScrubResults) Text() string {
	var sb strings.Builder
	sb.WriteString("Media resilience cost (docs/MEDIA_FAULTS.md)\n")
	fmt.Fprintf(&sb, "  persist hot path (%d ops x %d words):\n", r.PersistOps, r.PersistSpan)
	fmt.Fprintf(&sb, "    no checksums:   %8.2f ms\n", r.BaselineMS)
	fmt.Fprintf(&sb, "    checksummed:    %8.2f ms  (%+.2f%% overhead)\n", r.ChecksummedMS, r.OverheadPct)
	fmt.Fprintf(&sb, "  seal scan: %d passes over %d words, %.0f words/ms\n",
		r.ScanPasses, r.ScanWords, r.ScanWordsPerMS)
	fmt.Fprintf(&sb, "  scrub-and-heal: %d cycles x %d corrupt blocks, mean %.3f ms/cycle, %d words repaired",
		r.Cycles, r.FaultBlocks, r.RepairMeanMS, r.RepairedWords)
	if r.AllHealed {
		sb.WriteString(", all healed\n")
	} else {
		sb.WriteString(", NOT all healed\n")
	}
	return sb.String()
}
