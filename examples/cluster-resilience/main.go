// cluster-resilience: the paper's §5.4 story end to end. An MPI job runs
// HPCCG across N ranks; a transient fault strikes rank 0 mid-run. With
// CARE the job finishes with a sub-millisecond stall; without CARE the
// job dies and the checkpoint/restart baseline pays seconds of requeue,
// I/O and recomputation.
package main

import (
	"flag"
	"fmt"
	"log"

	"care/internal/cluster"
	"care/internal/core"
	"care/internal/workloads"
)

func main() {
	ranks := flag.Int("ranks", 8, "MPI ranks (512 reproduces the paper's 3072 cores with 6 threads/rank)")
	flag.Parse()

	w, err := workloads.Get("HPCCG")
	if err != nil {
		log.Fatal(err)
	}
	params := workloads.Params{NX: 5, NY: 5, NZ: 4, Steps: 15}
	bin, err := core.Build(w.Module(params), core.BuildOptions{OptLevel: 0, Defenses: []string{"care"}})
	if err != nil {
		log.Fatal(err)
	}
	inj, err := cluster.FindRecoverableInjection(bin, 31, cluster.SearchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	cfg := cluster.Config{Workload: "HPCCG", Ranks: *ranks, ThreadsPerRank: 6, Protected: true}

	base, err := cluster.RunJob(cfg, bin, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault-free job on %d cores: %v virtual time (%d instructions on the slowest rank)\n",
		base.Cores, base.VirtualTime, base.MaxDyn)

	faulty, err := cluster.RunJob(cfg, bin, inj)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job with fault at rank 0 + CARE: %v (stall %v, %d repair(s), survived=%v)\n",
		faulty.VirtualTime, faulty.RecoveryStall, faulty.Recoveries, faulty.Completed)
	delta := float64(faulty.VirtualTime-base.VirtualTime) / float64(base.VirtualTime) * 100
	fmt.Printf("delay vs fault-free: %.3f%%\n\n", delta)

	// The C/R baseline for the same class of fault (GTC-P, as in §5.4).
	gtcp, err := workloads.Get("GTC-P")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("checkpoint/restart baseline (GTC-P, fault at step 66):")
	for _, interval := range []int{20, 50, 75} {
		r, err := cluster.RunCheckpointRestart(gtcp, workloads.Params{Steps: 80, NParticles: 80}, 0, interval, 66)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  checkpoint every %2d steps: recovery %v (requeue %v + read %v + recompute %v), verified=%v\n",
			interval, r.RecoveryTotal, r.Requeue, r.RestartRead, r.Recompute, r.Verified)
	}
}
