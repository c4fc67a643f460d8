// Command arthas-run deploys a PML program under the full Arthas runtime
// (checkpoint log + address trace) and executes a script of requests,
// reporting traps, checkpoint activity, and pool usage.
//
// Usage:
//
//	arthas-run [-recover FN] [-pool WORDS] [-workers N] [-trace FILE]
//	           [-metrics] [-flight N] [-debug ADDR]
//	           file.pml "call args; call args; ..."
//
// Script statements are semicolon-separated function calls with integer
// arguments, plus the pseudo-ops "restart" (crash + restart) and "stats".
//
// -workers N makes the "mitigate FN ARGS" pseudo-op run up to N candidate
// reversion trials at a time, each on a copy-on-write fork
// (docs/PARALLEL_MITIGATION.md); the outcome is the same at any N.
//
// -trace FILE streams the full telemetry (spans + metrics from every
// runtime layer) as JSONL. The file is opened at startup and spans are
// written the moment they end, so a panic or trap mid-script loses at
// most the spans still open — not the whole trace. -metrics prints a
// human-readable summary to stderr.
//
// -flight N keeps a crash-surviving ring of the last N observability
// events; the tail is saved inside -poolfile images and can be read back
// later with `arthas-inspect flight`. -debug ADDR serves pprof, /metrics,
// /flight, and /healthz over HTTP while the script runs.
// See docs/OBSERVABILITY.md.
//
// Example:
//
//	arthas-run demo.pml "init_; put 1 42; get 1; restart; get 1; stats"
package main

import (
	"flag"
	"fmt"
	"os"

	"arthas"
	"arthas/internal/obs"
)

func main() {
	recoverFn := flag.String("recover", "", "recovery function run on restart")
	pool := flag.Int("pool", 1<<16, "pool size in words")
	workers := flag.Int("workers", 1, "reversion trials the script's mitigate pseudo-op runs at a time")
	poolFile := flag.String("poolfile", "", "image file: reopened if it exists, saved on exit (durable state AND mitigation history persist across invocations)")
	traceFile := flag.String("trace", "", "stream telemetry (spans + metrics) as JSONL to this file")
	metrics := flag.Bool("metrics", false, "print a telemetry summary to stderr on exit")
	flight := flag.Int("flight", obs.DefaultFlightEvents, "flight-recorder ring size in events (0 disables); the tail travels inside -poolfile images")
	debugAddr := flag.String("debug", "", "serve pprof, /metrics, /flight, /healthz on this address (e.g. localhost:6060)")
	optimize := flag.Bool("opt", false, "run the flush/fence-elimination pass before execution (docs/OPTIMIZER.md)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, `usage: arthas-run [-recover FN] [-pool WORDS] [-workers N] [-poolfile F] [-trace F] [-metrics] [-flight N] [-debug ADDR] [-opt] file.pml "init_; put 1 2; get 1"`)
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cfg := arthas.Config{PoolWords: *pool, RecoverFn: *recoverFn, FlightEvents: *flight, Optimize: *optimize}
	cfg.Reactor.Workers = *workers
	var rec *obs.Recorder
	var traceF *os.File
	if *traceFile != "" || *metrics || *debugAddr != "" {
		rec = obs.NewRecorder()
		cfg.Observer = rec
		if *traceFile != "" {
			traceF, err = os.Create(*traceFile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			rec.StreamTo(traceF)
		}
	}

	var inst *arthas.Instance
	if *poolFile != "" {
		if f, ferr := os.Open(*poolFile); ferr == nil {
			inst, err = arthas.OpenImage(flag.Arg(0), string(src), cfg, f)
			f.Close()
			if err == nil {
				fmt.Printf("reopened image %s\n", *poolFile)
			}
		}
	}
	if inst == nil && err == nil {
		inst, err = arthas.New(flag.Arg(0), string(src), cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *debugAddr != "" {
		srv, addr, derr := obs.ServeDebug(*debugAddr, rec, inst.Flight, inst.Health)
		if derr != nil {
			fmt.Fprintln(os.Stderr, derr)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint http://%s\n", addr)
	}

	lines, scriptErr := inst.RunScript(flag.Arg(1))
	for _, line := range lines {
		fmt.Println(line)
	}

	if rec != nil {
		if traceF != nil {
			if werr := rec.CloseStream(); werr != nil {
				fmt.Fprintln(os.Stderr, werr)
				os.Exit(1)
			}
			if cerr := traceF.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, cerr)
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "wrote trace %s\n", *traceFile)
		}
		if *metrics {
			fmt.Fprint(os.Stderr, rec.Summary())
		}
	}

	if *poolFile != "" {
		f, ferr := os.Create(*poolFile)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			os.Exit(1)
		}
		if err := inst.SaveImage(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		f.Close()
		fmt.Printf("saved image %s\n", *poolFile)
	}
	if scriptErr != nil {
		fmt.Fprintln(os.Stderr, scriptErr)
		os.Exit(1)
	}
}
