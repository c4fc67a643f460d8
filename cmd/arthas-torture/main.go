// Command arthas-torture sweeps every crash point of a PML workload: it
// enumerates the workload's durability events (persists, transaction-commit
// ranges, allocator/root metadata updates), injects a crash at each one —
// including torn multi-word flushes — and drives the full recovery path
// (image save + reopen, open-time allocator recovery, checkpoint-log and
// flight-recorder parsing, the program's recovery function, and reactor
// mitigation for anything that still fails), checking invariants after
// every step. Failing schedules are shrunk to minimal replayable seeds.
//
// Usage:
//
//	arthas-torture [-seed N] [-points N] [-workers N] [-depth N]
//	               [-recover FN] [-probe "fn args"] [-torn=false]
//	               [-replay seed.json] [-o report.json] [-opt]
//	               file.pml "init_; put 1 2; get 1"
//
// Output is a JSON report that is byte-identical for a given -seed, across
// runs and across -workers values. The process exits nonzero when any
// trial ends in an invariant violation.
//
// -replay runs a single saved seed (the testdata/torture format) instead
// of a sweep — the regression path for shrunk schedules.
//
// -opt first proves durability equivalence — every enumerated crash point
// of the flush/fence-optimized build must recover to the identical durable
// image under both the optimized and unoptimized stacks (exit 1 and an
// arthas-equiv/v1 report on any mismatch) — then runs the sweep on the
// optimized program.
//
// -media switches to the media-fault sweep: instead of crashing at each
// durability event, the harness corrupts the durable image there (bit
// flips, stuck words, stray writes, block poison — docs/MEDIA_FAULTS.md)
// and verifies the scrubber heals it through both the in-process
// scrub-then-retry path and the image reopen path. -imagedir additionally
// saves each trial's still-corrupt image for offline tooling
// (arthas-inspect scrub) and the CI media job.
//
// -repl switches to the replication sweep (docs/REPLICATION.md): the
// workload runs on a primary streaming its checkpoint log to a standby
// replica, and the harness kills the primary at every durability event
// (torn tails included), cuts the stream mid-record at every shipped
// sequence number, and kills the replica at every applied one — each trial
// must converge back to word-identical primary and replica durable images
// with zero residual lag.
//
// Flags a mode would ignore are rejected (exit 2 with usage) rather than
// silently dropped: -media with -repl, -imagedir without -media, -opt or
// -depth other than 1 with -media or -repl, -torn=false with -media, and any
// sweep flag with -replay.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"arthas/internal/torture"
)

const usageText = `usage: arthas-torture [-seed N] [-points N] [-workers N] [-depth N] [-recover FN] [-probe "fn args"] [-torn=false] [-o report.json] [-opt] file.pml "init_; put 1 2; get 1"
       arthas-torture -media [-imagedir DIR] [-seed N] [-points N] [-workers N] [-recover FN] [-probe "fn args"] [-o report.json] file.pml "script"
       arthas-torture -repl [-seed N] [-points N] [-workers N] [-recover FN] [-probe "fn args"] [-torn=false] [-o report.json] file.pml "script"
       arthas-torture -replay seed.json [-o result.json] file.pml`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs one sweep or replay, writes
// the JSON report to -o or stdout and a summary line to stderr, and returns
// the exit code: 0 clean, 1 on a violation or error, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arthas-torture", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := torture.Config{Shrink: true}
	fs.Int64Var(&cfg.Seed, "seed", 1, "PRNG seed for schedule sampling")
	fs.IntVar(&cfg.Points, "points", 0, "max crash schedules to run (0 = all enumerated points)")
	fs.IntVar(&cfg.Workers, "workers", 1, "parallel trials (report is identical at any value)")
	fs.IntVar(&cfg.Depth, "depth", 1, "crashes per schedule (2 adds crash-during-recovery-rerun schedules)")
	fs.BoolVar(&cfg.Torn, "torn", true, "include torn variants of multi-word durability events")
	fs.StringVar(&cfg.RecoverFn, "recover", "", "recovery function run after each reopen")
	fs.StringVar(&cfg.Probe, "probe", "", "single call checked (and used as the mitigation re-execution script) after recovery")
	replay := fs.String("replay", "", "replay one saved seed JSON instead of sweeping")
	media := fs.Bool("media", false, "sweep media faults instead of crash points")
	replMode := fs.Bool("repl", false, "sweep replication failures (primary crash, stream cut, replica kill) instead of crash points")
	imageDir := fs.String("imagedir", "", "with -media: save each trial's corrupt image here")
	out := fs.String("o", "", "write the JSON report to this file (default stdout)")
	fs.BoolVar(&cfg.Optimize, "opt", false, "run the flush/fence-elimination pass on the program, prove per-crash-point recovery equivalence against the unoptimized build, then sweep the optimized program")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	bad := ""
	fs.Visit(func(f *flag.Flag) {
		if *replay != "" && f.Name != "replay" && f.Name != "o" && bad == "" {
			bad = "-" + f.Name + " does not apply to -replay"
		}
	})
	switch {
	case bad != "":
	case *media && *replMode:
		bad = "-media and -repl are separate sweeps"
	case *imageDir != "" && !*media:
		bad = "-imagedir applies to -media only"
	case (*media || *replMode) && (cfg.Optimize || cfg.Depth != 1):
		bad = "-opt and -depth apply to the crash sweep only"
	case *media && !cfg.Torn:
		bad = "-torn does not apply to -media"
	case *replay != "" && fs.NArg() != 1, *replay == "" && fs.NArg() != 2:
		bad = "wrong number of arguments"
	}
	if bad != "" {
		fmt.Fprintf(stderr, "arthas-torture: %s\n%s\n", bad, usageText)
		return 2
	}
	if *replay != "" {
		return runReplay(fs.Arg(0), *replay, *out, stdout, stderr)
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	cfg.Name, cfg.Source, cfg.Script = fs.Arg(0), string(src), fs.Arg(1)
	var report interface{ JSON() ([]byte, error) }
	var summary string
	violated := 0
	switch {
	case *media:
		rep, err := torture.RunMedia(cfg, *imageDir)
		if err != nil {
			return fail(stderr, err)
		}
		report, violated = rep, rep.Violated
		summary = fmt.Sprintf("media sweep: %d events, %d trials: %d clean, %d healed, %d violated",
			rep.Events, rep.Trials, rep.Clean, rep.Healed, rep.Violated)
	case *replMode:
		rep, err := torture.RunRepl(cfg)
		if err != nil {
			return fail(stderr, err)
		}
		report, violated = rep, rep.Violated
		summary = fmt.Sprintf("repl sweep: %d events, %d records, %d trials: %d clean, %d healed, %d violated",
			rep.Events, rep.Records, rep.Trials, rep.Clean, rep.Healed, rep.Violated)
	default:
		if cfg.Optimize {
			eq, err := torture.RunEquivalence(cfg)
			if err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintf(stderr, "%s: equivalence: %d trials, %d matched, %d skipped, final %v; %s\n",
				cfg.Name, eq.Trials, eq.Matched, eq.Skipped, eq.FinalMatch, eq.OptStats)
			if !eq.OK() {
				report, violated = eq, 1
				summary = "durability equivalence VIOLATED; optimized sweep not run"
				break
			}
		}
		rep, err := torture.Run(cfg)
		if err != nil {
			return fail(stderr, err)
		}
		report, violated = rep, rep.Violated
		summary = fmt.Sprintf("%d events, %d trials: %d clean, %d healed, %d violated",
			rep.Events, rep.Trials, rep.Clean, rep.Healed, rep.Violated)
	}
	js, err := report.JSON()
	if err == nil {
		err = emit(js, *out, stdout)
	}
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stderr, "%s: %s\n", cfg.Name, summary)
	if violated > 0 {
		return 1
	}
	return 0
}

func runReplay(pmlPath, seedPath, out string, stdout, stderr io.Writer) int {
	src, err := os.ReadFile(pmlPath)
	if err != nil {
		return fail(stderr, err)
	}
	data, err := os.ReadFile(seedPath)
	if err != nil {
		return fail(stderr, err)
	}
	var seed torture.Seed
	if err := json.Unmarshal(data, &seed); err != nil {
		return fail(stderr, fmt.Errorf("%s: %w", seedPath, err))
	}
	res, err := torture.Replay(string(src), seed)
	if err != nil {
		return fail(stderr, err)
	}
	js, err := json.MarshalIndent(res, "", "  ")
	if err == nil {
		err = emit(js, out, stdout)
	}
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stderr, "%s: %s\n", seedPath, res.Outcome)
	if res.Outcome == "violated" {
		return 1
	}
	return 0
}

// emit writes the report, newline-terminated, to the file out or to stdout.
func emit(js []byte, out string, stdout io.Writer) error {
	js = append(js, '\n')
	if out == "" {
		_, err := stdout.Write(js)
		return err
	}
	return os.WriteFile(out, js, 0o644)
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	return 1
}
