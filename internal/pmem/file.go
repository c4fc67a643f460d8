package pmem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"arthas/internal/obs"
)

// Pool file persistence: the pmem_map_file analogue. A pool's DURABLE image
// can be serialized and reopened later — only durable state travels, so a
// save/load cycle has exactly crash semantics (unflushed stores are lost),
// and a pool file written by one process observes the same recovery
// obligations a DAX-mapped file would.
//
// Format v3 (current) appends the media-checksum section after v2's
// forensic sections, so seals travel with the image and corruption that
// happened while the file sat on (or moved between) real media is caught at
// open time (docs/MEDIA_FAULTS.md):
//
//	u64 fileMagic             "ARTH POOL"
//	u64 fileVersion           (3)
//	u64 words                 pool size
//	words × u64               durable image
//	u64 statsN (=7)           stats words that follow
//	statsN × u64              Loads, Stores, Persists, PersistedWords,
//	                          Allocs, Frees, Crashes
//	u64 flightLen             flight buffer byte length (0 = none)
//	flightLen bytes           obs.Flight binary encoding
//	u64 csumBlockWords        media-block granularity (= MediaBlockWords)
//	u64 csumN                 media block count
//	csumN × u64               per-block checksums
//	u64 quarN                 quarantined block count
//	quarN × u64               quarantined block indices, ascending
//	u64 degraded              0/1: header block unrepairable
//
// Format v1 files (everything up to and including the durable image) and v2
// files are still read: missing sections come back zero/empty, and missing
// checksums are backfilled from the durable image (declared authoritative).

// Typed read errors: every way a pool file can fail to load is one of
// these, so callers (and tests) can classify failures with errors.Is
// instead of string matching. Truncation, implausible section lengths, and
// undecodable sections are never silently tolerated — a reader either gets
// a fully parsed pool or a typed error.
var (
	// ErrNotPoolFile marks input that is not a pool file at all.
	ErrNotPoolFile = errors.New("pmem: not a pool file")
	// ErrTruncatedImage marks a pool file cut off mid-record.
	ErrTruncatedImage = errors.New("pmem: truncated pool file")
	// ErrCorruptImage marks a structurally undecodable pool file
	// (implausible lengths, undecodable sections, failed integrity).
	ErrCorruptImage = errors.New("pmem: corrupt pool file")
)

// fileMagic guards against feeding arbitrary files to Open.
const fileMagic uint64 = 0x41525448_504F4F4C // "ARTH POOL"

// fileVersion is the current format; fileVersionV1 is the oldest readable.
const (
	fileVersion   uint64 = 3
	fileVersionV2 uint64 = 2
	fileVersionV1 uint64 = 1
)

// maxFlightSection bounds the flight buffer a reader will load.
const maxFlightSection = 1 << 30

// WriteTo serializes the durable image plus the v2 forensic sections. It
// implements io.WriterTo.
func (p *Pool) WriteTo(w io.Writer) (int64, error) {
	var written int64
	put := func(v uint64) error {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		n, err := w.Write(buf[:])
		written += int64(n)
		return err
	}
	if err := put(fileMagic); err != nil {
		return written, err
	}
	if err := put(fileVersion); err != nil {
		return written, err
	}
	if err := put(uint64(p.words)); err != nil {
		return written, err
	}
	durable := p.durImage()
	buf := make([]byte, 8*len(durable))
	for i, word := range durable {
		binary.LittleEndian.PutUint64(buf[8*i:], word)
	}
	n, err := w.Write(buf)
	written += int64(n)
	if err != nil {
		return written, err
	}

	// Stats section.
	stats := []uint64{
		p.stats.Loads, p.stats.Stores, p.stats.Persists,
		p.stats.PersistedWords.Words, p.stats.Allocs, p.stats.Frees,
		p.stats.Crashes,
	}
	if err := put(uint64(len(stats))); err != nil {
		return written, err
	}
	for _, v := range stats {
		if err := put(v); err != nil {
			return written, err
		}
	}

	// Flight-recorder section.
	var fb []byte
	if p.flight != nil {
		p.FlushObs() // the embedded tail covers everything up to the save
		if fb, err = p.flight.MarshalBinary(); err != nil {
			return written, fmt.Errorf("pmem: encoding flight recorder: %w", err)
		}
	}
	if err := put(uint64(len(fb))); err != nil {
		return written, err
	}
	n, err = w.Write(fb)
	written += int64(n)
	if err != nil {
		return written, err
	}

	// Media-checksum section (v3). The image written is durImage(), so a
	// fork's checksums (which track its overlaid durable view) serialize
	// consistently with the image bytes.
	if err := put(MediaBlockWords); err != nil {
		return written, err
	}
	if err := put(uint64(len(p.csums))); err != nil {
		return written, err
	}
	for b := range p.csums {
		if err := put(p.csums[b]); err != nil {
			return written, err
		}
	}
	quar := p.QuarantinedBlocks()
	if err := put(uint64(len(quar))); err != nil {
		return written, err
	}
	for _, b := range quar {
		if err := put(uint64(b)); err != nil {
			return written, err
		}
	}
	var deg uint64
	if p.degraded {
		deg = 1
	}
	if err := put(deg); err != nil {
		return written, err
	}
	return written, nil
}

// ReadPool deserializes a pool file. The current image starts equal to the
// durable one (a clean open after a crash). Structurally corrupt files and
// images failing the integrity check are rejected; use ReadPoolInspect to
// open a damaged image for forensics.
//
// Media corruption is special-cased: when block checksums mismatch, ReadPool
// returns the parsed pool AND a *MediaError (both non-nil) so the caller can
// run the scrubber against it and retry verification — see scrub.Repair.
func ReadPool(r io.Reader) (*Pool, error) {
	return readPool(r, true)
}

// ReadPoolInspect opens a pool file WITHOUT validating the formatted-pool
// magic or running the integrity check, so post-mortem tooling can examine
// corrupted images (the pmempool-info analogue). The container must still
// parse: truncated or non-pool files are rejected.
func ReadPoolInspect(r io.Reader) (*Pool, error) {
	return readPool(r, false)
}

func readPool(r io.Reader, strict bool) (*Pool, error) {
	get := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrTruncatedImage, err)
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	magic, err := get()
	if err != nil {
		return nil, fmt.Errorf("%w (empty or short header)", ErrNotPoolFile)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("%w (magic %#x)", ErrNotPoolFile, magic)
	}
	version, err := get()
	if err != nil {
		return nil, err
	}
	if version != fileVersion && version != fileVersionV2 && version != fileVersionV1 {
		return nil, fmt.Errorf("%w: version %d, want <= %d", ErrCorruptImage, version, fileVersion)
	}
	words64, err := get()
	if err != nil {
		return nil, err
	}
	words := int(words64)
	if words < 64 || words > 1<<32 {
		return nil, fmt.Errorf("%w: implausible pool size %d", ErrCorruptImage, words)
	}
	p := newRoot(words, int(version))
	buf := make([]byte, 8*words)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("%w (durable image): %v", ErrTruncatedImage, err)
	}
	for i := range p.durable {
		p.durable[i] = binary.LittleEndian.Uint64(buf[8*i:])
	}
	copy(p.cur, p.durable)

	if version >= 2 {
		// Stats section: a count guards forward evolution (newer writers
		// may append stats; older readers must skip what they don't know).
		statsN, err := get()
		if err != nil {
			return nil, fmt.Errorf("%w (stats)", err)
		}
		if statsN > 64 {
			return nil, fmt.Errorf("%w: implausible stats section length %d", ErrCorruptImage, statsN)
		}
		vals := make([]uint64, statsN)
		for i := range vals {
			if vals[i], err = get(); err != nil {
				return nil, fmt.Errorf("%w (stats)", err)
			}
		}
		dst := []*uint64{
			&p.stats.Loads, &p.stats.Stores, &p.stats.Persists,
			&p.stats.PersistedWords.Words, &p.stats.Allocs, &p.stats.Frees,
			&p.stats.Crashes,
		}
		for i, d := range dst {
			if i < len(vals) {
				*d = vals[i]
			}
		}

		// Flight-recorder section.
		flightLen, err := get()
		if err != nil {
			return nil, fmt.Errorf("%w (flight)", err)
		}
		if flightLen > maxFlightSection {
			return nil, fmt.Errorf("%w: implausible flight section length %d", ErrCorruptImage, flightLen)
		}
		if flightLen > 0 {
			fb := make([]byte, flightLen)
			if _, err := io.ReadFull(r, fb); err != nil {
				return nil, fmt.Errorf("%w (flight section): %v", ErrTruncatedImage, err)
			}
			fl, err := obs.UnmarshalFlight(fb)
			if err != nil {
				return nil, fmt.Errorf("%w: undecodable flight recorder: %v", ErrCorruptImage, err)
			}
			p.flight = fl
		}
	}

	if version >= 3 {
		// Media-checksum section.
		bw, err := get()
		if err != nil {
			return nil, fmt.Errorf("%w (media)", err)
		}
		if bw != MediaBlockWords {
			return nil, fmt.Errorf("%w: media block size %d, want %d", ErrCorruptImage, bw, MediaBlockWords)
		}
		csumN, err := get()
		if err != nil {
			return nil, fmt.Errorf("%w (media)", err)
		}
		if int(csumN) != p.mediaBlocks() {
			return nil, fmt.Errorf("%w: media checksum count %d, want %d", ErrCorruptImage, csumN, p.mediaBlocks())
		}
		p.csums = make([]uint64, csumN)
		p.verified = make([]bool, csumN)
		for b := range p.csums {
			if p.csums[b], err = get(); err != nil {
				return nil, fmt.Errorf("%w (media checksums)", err)
			}
		}
		quarN, err := get()
		if err != nil {
			return nil, fmt.Errorf("%w (media)", err)
		}
		if quarN > csumN {
			return nil, fmt.Errorf("%w: implausible quarantine count %d", ErrCorruptImage, quarN)
		}
		for q := uint64(0); q < quarN; q++ {
			b, err := get()
			if err != nil {
				return nil, fmt.Errorf("%w (media quarantine)", err)
			}
			if b == 0 || b >= csumN {
				return nil, fmt.Errorf("%w: implausible quarantined block %d", ErrCorruptImage, b)
			}
			if p.quar == nil {
				p.quar = map[int]bool{}
			}
			p.quar[int(b)] = true
		}
		deg, err := get()
		if err != nil {
			return nil, fmt.Errorf("%w (media)", err)
		}
		p.degraded = deg != 0
	} else {
		// Pre-v3 image: no seals on disk. Backfill by declaring the durable
		// image authoritative, exactly as New does.
		p.initMedia()
	}

	if strict {
		// Media verification comes FIRST: allocator recovery and the
		// integrity check write and walk metadata, which must not be trusted
		// (or modified) while any block's seal is broken. On corruption the
		// parsed pool is returned ALONGSIDE the error so callers can hand it
		// to the scrubber (internal/scrub) and retry.
		if merr := p.VerifyMedia(); merr != nil {
			return p, merr
		}
		if p.durable[hdrMagic] != magicValue {
			return nil, fmt.Errorf("%w: pool image not formatted (magic %#x)", ErrCorruptImage, p.durable[hdrMagic])
		}
		// Open-time recovery (the palloc-recovery analogue): repair the
		// allocator-metadata states an interrupted alloc/free legitimately
		// leaves behind, then insist the image checks out. Corruption the
		// block chain cannot explain stays a hard error.
		rec := p.RecoverMeta()
		if !rec.OK() {
			return nil, fmt.Errorf("%w: unrecoverable pool image: %v", ErrCorruptImage, rec)
		}
		if !rec.Clean() {
			p.recovery = rec
		}
		if rep := p.CheckIntegrity(); !rep.OK() {
			return nil, fmt.Errorf("%w: pool file failed integrity check: %v", ErrCorruptImage, rep)
		}
	}
	return p, nil
}
