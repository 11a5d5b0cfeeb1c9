// Command care-trace runs the §2 fault-propagation study: injections
// with taint tracking, reporting how far each fault spreads before the
// run ends and how outcomes split by the corrupted unit (the paper's
// ALU-vs-FPU observation).
//
// Usage:
//
//	care-trace [-workload HPCCG] [-n 200] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/shard"
)

func main() {
	workload := flag.String("workload", "HPCCG", "workload name")
	n := flag.Int("n", 200, "injections")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	bin, err := shard.BuildSpec{Workload: *workload}.Build()
	if err != nil {
		log.Fatal(err)
	}
	res, err := (&faultinject.Campaign{
		App: bin, N: *n, Model: faultinject.SingleBit, Seed: *seed,
		TrackPropagation: true,
	}).Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%s: %d injections with propagation tracking\n\n", *workload, *n)
	fmt.Printf("outcomes by corrupted unit (§2.1.2):\n")
	fmt.Printf("%-12s %8s %13s %8s %6s\n", "unit", "Benign", "SoftFailure", "SDC", "Hang")
	for _, k := range []machine.DestKind{machine.DestIntReg, machine.DestFloatReg, machine.DestMemory} {
		o := res.ByDest[k]
		fmt.Printf("%-12s %8d %13d %8d %6d\n", faultinject.DestName(k),
			o[faultinject.Benign], o[faultinject.SoftFailure], o[faultinject.SDC], o[faultinject.Hang])
	}

	// Propagation-extent distribution per outcome.
	byOutcome := map[faultinject.Outcome][]int{}
	for _, inj := range res.Injections {
		byOutcome[inj.Outcome] = append(byOutcome[inj.Outcome], inj.PropagationWrites)
	}
	fmt.Printf("\npropagation extent (tainted writes) by outcome:\n")
	fmt.Printf("%-13s %6s %8s %8s %8s\n", "outcome", "count", "median", "p90", "max")
	for _, oc := range []faultinject.Outcome{faultinject.Benign, faultinject.SoftFailure, faultinject.SDC, faultinject.Hang} {
		xs := byOutcome[oc]
		if len(xs) == 0 {
			continue
		}
		sort.Ints(xs)
		fmt.Printf("%-13s %6d %8d %8d %8d\n", oc, len(xs),
			xs[len(xs)/2], xs[len(xs)*9/10], xs[len(xs)-1])
	}

	// Crash latency vs propagation for soft failures.
	var fastCrash, totalSoft int
	for _, inj := range res.Injections {
		if inj.Outcome != faultinject.SoftFailure {
			continue
		}
		totalSoft++
		if inj.Latency <= 50 {
			fastCrash++
		}
	}
	if totalSoft > 0 {
		fmt.Printf("\nsoft failures manifesting within 50 instructions: %d/%d (%.1f%%)\n",
			fastCrash, totalSoft, 100*float64(fastCrash)/float64(totalSoft))
	}
}
