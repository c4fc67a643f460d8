// Command arthas-react runs one of the twelve evaluated hard-fault cases
// end-to-end: deploy the target system, run the workload, trigger the bug,
// confirm it recurs across restart, and mitigate it with the chosen
// solution (Arthas, pmCRIU, or ArCkpt).
//
// Usage:
//
//	arthas-react [-solution arthas|pmcriu|arckpt] [-mode purge|rollback]
//	             [-ops N] [-batch N] [-workers N] [-trace FILE] [-metrics]
//	             [-flight N] [-debug ADDR] [-incident FILE] f1..f12
//
// -workers N runs up to N of the Arthas reversion trials at a time, each on
// a copy-on-write fork of the pool and checkpoint log
// (docs/PARALLEL_MITIGATION.md); the mitigation outcome is identical at any
// N.
//
// -trace FILE writes the full pipeline telemetry (run/detect/plan/revert/
// re-execute spans plus per-layer metrics) as JSONL; -metrics prints a
// summary to stderr. -flight N keeps a ring of the last N events and
// -debug ADDR serves pprof, /metrics, /flight, /healthz over HTTP while
// the case runs. -incident FILE attaches the provenance index and writes
// the end-to-end `arthas-incident/v1` report after mitigation; the report
// is deterministic across -workers settings. See docs/OBSERVABILITY.md.
//
// Example:
//
//	arthas-react -solution arthas f6
package main

import (
	"flag"
	"fmt"
	"os"

	"arthas/internal/faults"
	"arthas/internal/obs"
	"arthas/internal/reactor"
)

func main() {
	solution := flag.String("solution", "arthas", "mitigation solution: arthas, pmcriu, arckpt")
	mode := flag.String("mode", "purge", "arthas reversion mode: purge or rollback")
	ops := flag.Int("ops", 0, "workload operations (0 = case default)")
	batch := flag.Int("batch", 1, "sequence numbers reverted per re-execution")
	workers := flag.Int("workers", 1, "reversion trials run at a time, each on its own fork")
	traceFile := flag.String("trace", "", "write telemetry (spans + metrics) as JSONL to this file")
	metrics := flag.Bool("metrics", false, "print a telemetry summary to stderr on exit")
	flight := flag.Int("flight", obs.DefaultFlightEvents, "flight-recorder ring size in events (0 disables)")
	debugAddr := flag.String("debug", "", "serve pprof, /metrics, /flight, /healthz on this address (e.g. localhost:6060)")
	incidentFile := flag.String("incident", "", "write the arthas-incident/v1 report to this file (arthas solution only; attaches the provenance index)")
	optimize := flag.Bool("opt", false, "run the flush/fence-elimination pass on the system before deployment (all solutions honor it; docs/OPTIMIZER.md)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: arthas-react [-solution S] [-mode M] [-ops N] f1..f12")
		os.Exit(2)
	}
	b, err := faults.ByID(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("case %s: %s — %s (%s)\n", b.ID, b.System, b.Fault, b.Consequence)

	cfg := faults.RunConfig{WorkloadOps: *ops, Optimize: *optimize}
	cfg.Reactor = reactor.DefaultConfig()
	cfg.Reactor.Batch = *batch
	cfg.Reactor.Workers = *workers
	if *mode == "rollback" {
		cfg.Reactor.Mode = reactor.ModeRollback
	}
	if *incidentFile != "" {
		if *solution != "arthas" {
			fmt.Fprintln(os.Stderr, "-incident requires -solution arthas")
			os.Exit(2)
		}
		cfg.Provenance = true
	}
	var rec *obs.Recorder
	var fl *obs.Flight
	if *flight > 0 {
		fl = obs.NewFlight(*flight)
	}
	if *traceFile != "" || *metrics || *debugAddr != "" {
		rec = obs.NewRecorder()
	}
	// The fault runners own their instances internally, so the flight
	// recorder rides along as a second sink on the pipeline's Obs.
	switch {
	case rec != nil && fl != nil:
		cfg.Obs = obs.Multi(rec, fl)
	case rec != nil:
		cfg.Obs = rec
	case fl != nil:
		cfg.Obs = fl
	}
	if *debugAddr != "" {
		srv, addr, derr := obs.ServeDebug(*debugAddr, rec, fl, nil)
		if derr != nil {
			fmt.Fprintln(os.Stderr, derr)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint http://%s\n", addr)
	}

	var out *faults.Outcome
	switch *solution {
	case "arthas":
		out, err = faults.RunArthas(b, cfg)
	case "pmcriu":
		out, err = faults.RunPmCRIU(b, cfg)
	case "arckpt":
		out, err = faults.RunArCkpt(b, cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown solution %q\n", *solution)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if rec != nil {
		if *traceFile != "" {
			f, ferr := os.Create(*traceFile)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, ferr)
				os.Exit(1)
			}
			if werr := rec.WriteJSONL(f); werr != nil {
				fmt.Fprintln(os.Stderr, werr)
				os.Exit(1)
			}
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote trace %s\n", *traceFile)
		}
		if *metrics {
			fmt.Fprint(os.Stderr, rec.Summary())
		}
	}
	if *incidentFile != "" {
		if out.Incident == nil {
			fmt.Fprintln(os.Stderr, "no incident assembled (case never reached mitigation)")
			os.Exit(1)
		}
		if werr := os.WriteFile(*incidentFile, out.Incident.JSON(), 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote incident %s\n", *incidentFile)
	}
	fmt.Printf("hard fault confirmed: %v\n", out.HardFault)
	if out.Recovered {
		fmt.Printf("RECOVERED by %s in %d attempt(s), %v\n", out.Solution, out.Attempts, out.MitigationTime)
	} else {
		fmt.Printf("NOT RECOVERED by %s after %d attempt(s) (timed out: %v)\n", out.Solution, out.Attempts, out.TimedOut)
	}
	if out.Meta.IsLeak {
		fmt.Printf("leaked blocks freed: %d\n", out.Freed)
	} else {
		fmt.Printf("discarded: %d checkpointed updates (%.3f%% of all recorded)\n",
			out.RevertedItems, out.DataLossPct)
	}
	if out.Consistent != nil {
		fmt.Printf("post-recovery consistency: VIOLATED: %v\n", out.Consistent)
	} else if out.Recovered {
		fmt.Println("post-recovery consistency: ok")
	}
	if !out.Recovered {
		os.Exit(1)
	}
}
