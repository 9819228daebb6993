// Command experiments regenerates every table and figure of the paper's
// evaluation (Section 5) on the synthetic benchmark suite; the experiment
// ids follow the index in DESIGN.md and the outputs are recorded in
// EXPERIMENTS.md.
//
// Usage:
//
//	experiments [-table 1|2|pld|period|scale|k|all] [-k 5] [-quick]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"turbosyn/internal/experiments"
)

func main() {
	table := flag.String("table", "all", "comma-separated experiments: 1, 2, pld, period, scale, k, all")
	k := flag.Int("k", 5, "LUT input count (the paper uses 5)")
	quick := flag.Bool("quick", false, "reduced workloads (smoke test)")
	flag.Parse()

	want := map[string]bool{}
	for _, t := range strings.Split(*table, ",") {
		want[strings.TrimSpace(t)] = true
	}
	cfg := experiments.Config{K: *k, Quick: *quick, Out: os.Stdout}
	run := func(name string, fn func(experiments.Config) error) {
		if !want["all"] && !want[name] {
			return
		}
		if err := fn(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: table %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stdout)
	}
	run("1", experiments.Table1)
	run("2", experiments.Table2)
	run("pld", experiments.TablePLD)
	run("period", experiments.TablePeriod)
	run("scale", experiments.TableScale)
	run("k", experiments.TableK)
}
