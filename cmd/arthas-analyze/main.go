// Command arthas-analyze runs the Arthas static analyzer over a PML
// program: it identifies persistent-memory instructions, assigns trace
// GUIDs, builds the Program Dependence Graph, and can compute backward
// slices — the offline half of the paper's Figure 4 workflow.
//
// Usage:
//
//	arthas-analyze [-guids] [-slice GUID] [-builtin NAME] [file.pml]
//
//	-guids        print the <GUID, function, location, instruction> map
//	-slice N      print the backward slice of the PM instruction with GUID N
//	-builtin S    analyze a built-in target system instead of a file
//	              (memcached, redis, pelikan, pmemkv, cceh)
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"arthas/internal/analysis"
	"arthas/internal/ir"
	"arthas/internal/systems"
)

func main() {
	guids := flag.Bool("guids", false, "print the GUID metadata map")
	sliceGUID := flag.Int("slice", 0, "print the backward slice of this GUID's instruction")
	builtin := flag.String("builtin", "", "analyze a built-in system (memcached, redis, pelikan, pmemkv, cceh)")
	flag.Parse()

	name, src, err := loadSource(*builtin, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	mod, err := ir.CompileSource(name, src)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	start := time.Now()
	res := analysis.Analyze(mod)
	stats := res.Stats()
	fmt.Printf("%s: %d functions, %d instructions, %d PM instructions, %d PDG edges\n",
		name, stats.Functions, stats.Instructions, stats.PMInstrs, stats.PDGEdges)
	fmt.Printf("analysis: points-to %v, PDG %v, instrumentation %v (total %v)\n",
		res.PointsToTime.Round(time.Microsecond), res.PDGTime.Round(time.Microsecond),
		res.InstrTime.Round(time.Microsecond), time.Since(start).Round(time.Microsecond))

	if *guids {
		fmt.Print(analysis.FormatGUIDMap(res.GUIDs))
	}
	if *sliceGUID > 0 {
		in := res.InstrByGUID(*sliceGUID)
		if in == nil {
			fmt.Fprintf(os.Stderr, "no instruction with GUID %d\n", *sliceGUID)
			os.Exit(1)
		}
		sl := res.PDG.BackwardSlice(in)
		fmt.Printf("backward slice of GUID %d: %d nodes (%d PM)\n",
			*sliceGUID, len(sl.Nodes), len(sl.PMSlice().Nodes))
		for _, n := range sl.PMSlice().Nodes {
			fmt.Printf("  d=%-3d %s\n", n.Dist, res.PDG.Describe(n.Instr))
		}
	}
}

func loadSource(builtin string, args []string) (string, string, error) {
	if builtin != "" {
		sys, err := systems.ByName(builtin)
		if err != nil {
			return "", "", err
		}
		return sys.Name, sys.Source, nil
	}
	if len(args) != 1 {
		return "", "", fmt.Errorf("usage: arthas-analyze [-guids] [-slice GUID] (-builtin NAME | file.pml)")
	}
	b, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return args[0], string(b), nil
}
