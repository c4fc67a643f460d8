// Command arthas-bench regenerates the paper's tables and figures from the
// reproduced systems, faults, and solutions.
//
// Usage:
//
//	arthas-bench [-exp NAME] [-ops N] [-ycsb N] [-inserts N] [-seeds N]
//	             [-workers N] [-clients N] [-json FILE]
//
//	-exp    which view to print (default "all"); a view runs its unit:
//	        table1 fig2 fig3 types table2          (study + dataset)
//	        table3 table4 table5 fig8 fig9 fig11   (recoverability matrix)
//	        fig10 table6                           (batch vs one-by-one)
//	        table7                                 (invariants/checksums)
//	        fig12 table8                           (runtime overhead)
//	        table9                                 (static analysis)
//	        scrub                                  (media checksum/scrub cost)
//	        provenance                             (write-lineage cost + persist amplification)
//	        parallel                               (speculative speedup)
//	        fleet                                  (sharded serving fleet: baseline + mid-run fault)
//	        repl                                   (replicated pools: overhead, lag, failover vs mitigation)
//	        optimize                               (flush/fence elimination: before/after persists)
//	        all                                    (every unit above but fleet, repl and
//	                                                optimize; parallel only with -workers > 1)
//	-json   also write the units that ran as one arthas-bench/v1 JSON
//	        document, one section per unit
//	-workers N runs every mitigation's reversion trials N at a time (the
//	        matrix and batch outcomes are the same at any N); N > 1 also
//	        adds the one-vs-N worker comparison to all
//
// A flag that no selected unit reads (-exp table3 -ycsb 5) exits 2 with
// usage. -exp optimize reads testdata/*.pml: run it from the repo root.
//
// Absolute numbers differ from the paper (the substrate is a simulator on
// logical time); the shapes are what reproduce. See EXPERIMENTS.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"arthas/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, runs the selected units once,
// prints their text and writes -json, and returns the exit code: 0 on
// success, 1 on an error, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("arthas-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg experiments.Config
	exp := fs.String("exp", "all", "view to print; runs its unit (all = the paper's evaluation)")
	fs.IntVar(&cfg.Ops, "ops", 0, "fault-case workload operations; per-client ops for fleet/repl; per-system ops for optimize (0 = defaults)")
	fs.IntVar(&cfg.YCSB, "ycsb", 100_000, "YCSB ops for overhead runs")
	fs.IntVar(&cfg.Inserts, "inserts", 100_000, "insert ops for overhead runs")
	fs.IntVar(&cfg.Seeds, "seeds", 10, "seeds for probabilistic pmCRIU cases")
	jsonOut := fs.String("json", "", "also write the units that ran as one JSON document to this file")
	fs.IntVar(&cfg.Workers, "workers", 1, "reversion trials run at a time; > 1 also adds the one-vs-N worker comparison")
	fs.IntVar(&cfg.Clients, "clients", 0, "closed-loop clients for fleet and repl (0 = defaults)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	reads, err := experiments.Flags(*exp)
	if err != nil {
		fmt.Fprintf(stderr, "arthas-bench: %v\n", err)
		return 2
	}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if f.Name != "exp" && f.Name != "json" && !reads[f.Name] {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		sort.Strings(unread)
		fmt.Fprintf(stderr, "arthas-bench: -exp %s does not read %s\n", *exp, strings.Join(unread, " "))
		fs.Usage()
		return 2
	}

	rep, err := experiments.Run(*exp, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "arthas-bench: %v\n", err)
		return 1
	}
	fmt.Fprint(stdout, rep.Text())
	if *jsonOut == "" {
		return 0
	}
	f, err := os.Create(*jsonOut)
	if err == nil {
		err = rep.Write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "arthas-bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %s\n", *jsonOut)
	return 0
}
