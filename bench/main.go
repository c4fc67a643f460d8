// Command bench is this repository's layered performance benchmark: six
// stationary workloads, the end-to-end metrics a user of the system pays
// for, and a rung-by-rung attribution of every layer under a request. See
// README.md in this directory.
//
// One run of one workload (what BENCHMARK.json's command does):
//
//	bash bench/run.sh --workload put-churn --seed 1 --seconds 10 --trace 0
//
// The whole ledger, and the regression gate between two ledgers:
//
//	bash bench/run.sh -ledger bench/results/NNNN.json -runs 3
//	bash bench/run.sh -compare bench/results/0012.json bench/results/NNNN.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"syscall"
)

type options struct {
	seed     uint64
	seconds  float64
	serveBin string
	outDir   string
	buildS   float64
}

func main() {
	var o options
	workload := flag.String("workload", "", "run one workload and print one JSON result line (driver mode)")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "scales every op count; a phase lasts about this long on the reference box")
	flag.StringVar(&o.serveBin, "serve-bin", os.Getenv("ARTHAS_SERVE_BIN"), "built arthas-serve binary (run.sh builds it)")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for span files")
	flag.Float64Var(&o.buildS, "build-s", 0, "seconds run.sh spent in `go build`, reported as setup.build_s")
	ledger := flag.String("ledger", "", "run every workload -runs times, traced and untraced, and write an arthas-perf/v1 document here")
	runs := flag.Int("runs", 3, "runs per workload in -ledger mode")
	compare := flag.Bool("compare", false, "compare two ledgers: bench -compare A.json B.json")
	flag.Parse()

	// A run that is told to end still stops its server before it goes.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fatal(fmt.Errorf("interrupted"))
	}()

	// More closed-loop clients than cores would measure the scheduler.
	for _, w := range workloads {
		if w.clients > runtime.NumCPU() {
			fatal(fmt.Errorf("workload %s needs %d clients but the box has %d cores", w.name, w.clients, runtime.NumCPU()))
		}
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two ledger files"))
		}
		worse, err := compareLedgers(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
	case *ledger != "":
		if err := writeLedger(*ledger, o, *runs); err != nil {
			fatal(err)
		}
	case *workload != "":
		spec := workloadByName(*workload)
		if spec == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		res, err := runOne(spec, o, *trace == 1)
		if err != nil {
			fatal(err)
		}
		printHuman(os.Stderr, spec.name, res)
		declared := endToEnd
		if *trace == 1 {
			declared = perLayer
		}
		if err := printDriverLine(os.Stdout, res, declared); err != nil {
			fatal(err)
		}
		if !res.correct() {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	stopServers()
	os.Exit(1)
}

// runOne performs one run of one workload, traced or not.
func runOne(spec *workloadSpec, o options, traced bool) (*result, error) {
	if !traced {
		return runWorkload(spec, o.seed, o.seconds, o.serveBin)
	}
	res, err := runTraced(spec, o.seed, o.seconds, o.serveBin, o.outDir)
	if err == nil {
		res.set("setup.build_s", o.buildS)
	}
	return res, err
}

// printHuman lists every metric the run produced, by name with its unit.
func printHuman(w *os.File, workload string, res *result) {
	names := make([]string, 0, len(res.metrics))
	for name := range res.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		line := fmt.Sprintf("%-14s %-32s %14.4f %s", workload, name, res.metrics[name], unitOf(name))
		if n := res.samples[name]; n > 0 {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%-14s attempted %d, failed %d\n", workload, res.attempted, res.failed)
	for _, v := range res.violations {
		fmt.Fprintf(w, "%-14s VIOLATION: %s\n", workload, v)
	}
}

func unitOf(name string) string {
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range set {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}

// printDriverLine prints the one JSON object the driver reads: the declared
// metrics and nothing else.
func printDriverLine(w *os.File, res *result, declared []metricSpec) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, map[string]metric{}}
	for _, m := range declared {
		if !m.driver {
			continue
		}
		v, ok := res.metrics[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s missing or not finite (%v)", m.name, v)
		}
		out.Metrics[m.name] = metric{v, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
