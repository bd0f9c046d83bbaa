// Command reprobench regenerates every table and figure of the paper's
// evaluation section (§5) as text tables.
//
// Usage:
//
//	reprobench                  # run everything
//	reprobench -fig 4           # one figure (4,5,6,7,8,9,10)
//	reprobench -table 3         # Table 3
//	reprobench -fig small       # the §5.1 small-query remark
//	reprobench -fig ablation    # the DESIGN.md ablations
//	reprobench -sf 0.01         # TPC-H scale factor
//	reprobench -slices 60       # stream length for Figures 9/10
//	reprobench -parallelism 4   # parallel pipeline workers during execution
//	reprobench -fig rescache    # semantic result cache, spool/probe vs uncached
//	reprobench -fig drift       # drift adaptation trajectory via the event plane
//	reprobench -fig memory      # memory-bounded execution: unbounded vs budgeted spill
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/tpch"
)

func main() {
	fig := flag.String("fig", "", "figure to run (4,5,6,7,8,9,10,small,ablation,rescache,drift,memory); empty = all")
	table := flag.String("table", "", "table to run (3); empty = all")
	sf := flag.Float64("sf", 0.005, "TPC-H scale factor")
	seed := flag.Uint64("seed", 42, "generator seed")
	slices := flag.Int("slices", 120, "stream slices for Figures 9/10")
	repeats := flag.Int("repeats", 5, "timing repetitions (minimum is reported)")
	parallelism := flag.Int("parallelism", 1,
		"executor pipeline workers wherever plans execute; <= 1 keeps execution serial (the paper's setting)")
	flag.Parse()

	env := bench.NewEnv(tpch.Config{ScaleFactor: *sf, Seed: *seed})
	env.Repeats = *repeats
	env.Parallelism = *parallelism

	all := *fig == "" && *table == ""
	show := func(ts ...*bench.Table) {
		for _, t := range ts {
			fmt.Println(t.String())
		}
	}

	if all || *fig == "4" {
		show(env.Figure4()...)
	}
	if all || *fig == "5" {
		show(env.Figure5()...)
	}
	if all || *fig == "6" {
		show(env.Figure6(10, 0.5)...)
	}
	if all || *fig == "7" {
		show(env.Figure7()...)
	}
	if all || *fig == "8" {
		show(env.Figure8()...)
	}
	if all || *fig == "9" {
		show(env.Figure9(*slices))
	}
	if all || *fig == "10" {
		show(env.Figure10(*slices))
	}
	if all || *table == "3" {
		show(env.Table3())
	}
	if all || *fig == "small" {
		show(env.SmallQueries())
	}
	if all || *fig == "ablation" {
		show(env.AblationSearchOrder(), env.AblationPlanSpace())
	}
	if all || *fig == "rescache" {
		show(env.ResultCache())
	}
	if all || *fig == "drift" {
		show(env.Drift(10))
	}
	if all || *fig == "memory" {
		show(env.MemoryFigure())
	}
	if !all && *fig != "" {
		switch *fig {
		case "4", "5", "6", "7", "8", "9", "10", "small", "ablation", "rescache", "drift", "memory":
		default:
			fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
			os.Exit(2)
		}
	}
}
