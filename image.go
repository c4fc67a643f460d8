package arthas

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"arthas/internal/checkpoint"
	"arthas/internal/obs"
	"arthas/internal/pmem"
	"arthas/internal/scrub"
	"arthas/internal/trace"
)

// A full Arthas image bundles the pool's durable state with the durable
// metadata the toolchain keeps alongside it: the checkpoint log (which the
// paper stores IN persistent memory, §4.2) and the PM address trace (a file
// that outlives the process, §4.1/§5). Reopening an image restores full
// mitigation power — reversion history recorded before the save remains
// usable, exactly as after a real restart of the paper's deployment.
//
// SavePool/Open (pool-only) model a bare pool file instead: durable data
// travels but history does not.

const (
	imageMagic   uint64 = 0x41525448_494D4731 // "ARTH IMG1"
	imageVersion uint64 = 1
)

// SaveImage writes pool + checkpoint log + trace.
func (i *Instance) SaveImage(w io.Writer) error {
	if err := i.need("SaveImage", LayerCheckpoint|LayerTrace); err != nil {
		return err
	}
	return WriteImage(w, i.Pool, i.Log, i.Trace)
}

// WriteImage serializes a full image from loose components — what SaveImage
// does for an Instance, exposed so tooling (arthas-inspect -repair) can
// rewrite an image it opened with ReadAnyImage after scrubbing the pool.
func WriteImage(w io.Writer, pool *pmem.Pool, log *checkpoint.Log, tr *trace.Trace) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], imageMagic)
	binary.LittleEndian.PutUint64(hdr[8:], imageVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := pool.WriteTo(w); err != nil {
		return fmt.Errorf("arthas: saving pool: %w", err)
	}
	if log == nil {
		log = checkpoint.NewLog(0)
	}
	if _, err := log.WriteTo(w); err != nil {
		return fmt.Errorf("arthas: saving checkpoint log: %w", err)
	}
	if tr == nil {
		tr = trace.New()
	}
	if _, err := tr.WriteTo(w); err != nil {
		return fmt.Errorf("arthas: saving trace: %w", err)
	}
	return nil
}

// OpenImage reopens a full image saved by SaveImage.
//
// Media corruption detected while opening the pool is auto-healed using the
// image's own checkpoint log — the paper's version store doubles as the
// scrubber's ground truth, so poisoned words roll forward to their newest
// checkpointed values; what the log cannot prove is quarantined and the
// pool opens degraded rather than failing. The pass is recorded in
// Instance.LastScrub.
func OpenImage(name, source string, cfg Config, r io.Reader) (*Instance, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("arthas: reading image: %w", err)
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != imageMagic {
		return nil, fmt.Errorf("arthas: not an image file")
	}
	if v := binary.LittleEndian.Uint64(hdr[8:]); v != imageVersion {
		return nil, fmt.Errorf("arthas: image version %d, want %d", v, imageVersion)
	}
	// The log and trace sections follow the pool bytes, which are fully
	// consumed even on a media error — read them, then heal with the log.
	pool, perr := pmem.ReadPool(r)
	var merr *pmem.MediaError
	if perr != nil && (!errors.As(perr, &merr) || pool == nil) {
		return nil, fmt.Errorf("arthas: %w", perr)
	}
	from := restored{pool: pool}
	var err error
	if from.log, err = checkpoint.ReadLog(r); err == nil {
		from.trace, err = trace.ReadTrace(r)
	}
	switch {
	case err != nil && perr != nil:
		return nil, fmt.Errorf("arthas: %w (and media corrupt: %v)", err, perr)
	case err != nil:
		return nil, fmt.Errorf("arthas: %w", err)
	case perr != nil:
		from.scrub = scrub.Repair(pool, from.log, obs.OrNop(cfg.Observer))
		if !from.scrub.Healthy() {
			return nil, fmt.Errorf("arthas: image unscrubbable (%s): %w", from.scrub, perr)
		}
	}
	return build(name, source, cfg, from)
}

// ReadAnyImage opens either a full image (SaveImage) or a bare pool file
// (SavePool / pmem's WriteTo) for post-mortem inspection, WITHOUT compiling
// a program or validating pool integrity — corrupted images open so that
// forensics tooling (cmd/arthas-inspect) can examine them. The checkpoint
// log and trace are nil for bare pool files. A non-nil pool may be returned
// alongside a non-nil error when the pool parsed but the image's durable
// metadata (checkpoint log, trace) is damaged.
func ReadAnyImage(r io.Reader) (*pmem.Pool, *checkpoint.Log, *trace.Trace, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(8)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("arthas: reading image: %w", err)
	}
	if binary.LittleEndian.Uint64(head) != imageMagic {
		// Not a full image: try a bare pool file.
		pool, err := pmem.ReadPoolInspect(br)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("arthas: %w", err)
		}
		return pool, nil, nil, nil
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, nil, nil, fmt.Errorf("arthas: reading image: %w", err)
	}
	if v := binary.LittleEndian.Uint64(hdr[8:]); v != imageVersion {
		return nil, nil, nil, fmt.Errorf("arthas: image version %d, want %d", v, imageVersion)
	}
	pool, err := pmem.ReadPoolInspect(br)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("arthas: %w", err)
	}
	log, err := checkpoint.ReadLog(br)
	if err != nil {
		return pool, nil, nil, fmt.Errorf("arthas: checkpoint log damaged: %w", err)
	}
	tr, err := trace.ReadTrace(br)
	if err != nil {
		return pool, log, nil, fmt.Errorf("arthas: trace damaged: %w", err)
	}
	return pool, log, tr, nil
}
