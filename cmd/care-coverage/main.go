// Command care-coverage runs the §5.2/§5.3 evaluation: SIGSEGV-leading
// fault injections recovered by Safeguard. It prints the Figure 7
// coverage bars and the Figure 9 recovery times at both optimisation
// levels; -model double reproduces Figure 12 and -blas reproduces
// Table 9.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"care/internal/experiments"
	"care/internal/faultinject"
	"care/internal/safeguard"
	"care/internal/workloads"
)

func main() {
	trials := flag.Int("trials", 100, "SIGSEGV trials per workload/opt (paper: 1000-2000)")
	model := flag.String("model", "single", "fault model: single or double")
	workload := flag.String("workload", "all", "workload name or 'all' (evaluated set)")
	seed := flag.Int64("seed", 1, "random seed")
	blasMode := flag.Bool("blas", false, "run the Table 9 BLAS/sblat1 experiment instead")
	eager := flag.Bool("eager", false, "ablation: keep table+library resident (vs lazy load)")
	patchBase := flag.Bool("patch-base", false, "ablation: patch base register instead of index")
	heuristic := flag.Bool("heuristic", false, "ablation: LetGo-style bit-bucket fallback")
	induction := flag.Bool("induction", false, "extension: Figure-11 induction-variable recovery")
	workers := flag.Int("workers", 0, "concurrent injection workers (0 = one per CPU; results are identical for any value)")
	flag.Parse()

	m, err := faultinject.ParseModel(*model)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	e := faultinject.CoverageExperiment{
		Trials: *trials, Model: m, Seed: *seed, Workers: *workers,
		Safeguard: safeguard.Config{Eager: *eager, PatchBase: *patchBase, Heuristic: *heuristic, InductionRecovery: *induction},
	}

	if *blasMode {
		row, err := experiments.BLASStudy(0, e)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(experiments.FormatBLAS(row))
		return
	}
	names := experiments.EvaluatedNames()
	if *workload != "all" {
		if _, err := workloads.Get(*workload); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		names = []string{*workload}
	}
	rows, err := experiments.CoverageStudy(names, workloads.Params{}, e)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatCoverage(rows))
}
