// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of CARE's design choices. Each benchmark
// runs a (scaled-down) experiment per iteration and reports the paper's
// headline metric through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation; the cmd/ tools run the same drivers
// at larger sample sizes.
package care

import (
	"testing"

	"care/internal/armor"
	"care/internal/cluster"
	"care/internal/core"
	"care/internal/experiments"
	"care/internal/faultinject"
	"care/internal/machine"
	"care/internal/safeguard"
	"care/internal/shard"
	"care/internal/workloads"
)

const benchSeed = 1234

// BenchmarkTable2OutcomeMix reproduces Table 2 (and 3/4, which share the
// campaign): the outcome mix of single-bit-flip injections.
func BenchmarkTable2OutcomeMix(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OutcomeStudy([]string{"HPCCG"}, 0, workloads.Params{},
			faultinject.Campaign{N: 60, Model: faultinject.SingleBit, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		o := rows[0].Res.Outcomes
		total := float64(o[faultinject.Benign] + o[faultinject.SoftFailure] + o[faultinject.SDC] + o[faultinject.Hang])
		b.ReportMetric(100*float64(o[faultinject.SoftFailure])/total, "softfail-%")
		b.ReportMetric(100*float64(o[faultinject.SDC])/total, "sdc-%")
	}
}

// BenchmarkTable3Symptoms reports the SIGSEGV share of soft failures.
func BenchmarkTable3Symptoms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OutcomeStudy([]string{"miniMD"}, 0, workloads.Params{},
			faultinject.Campaign{N: 60, Model: faultinject.SingleBit, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0].Res
		soft := r.Outcomes[faultinject.SoftFailure]
		if soft > 0 {
			b.ReportMetric(100*float64(r.Symptoms[machine.SigSEGV])/float64(soft), "sigsegv-%")
		}
	}
}

// BenchmarkTable4Latency reports the fraction of soft failures
// manifesting within 50 dynamic instructions.
func BenchmarkTable4Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OutcomeStudy([]string{"GTC-P"}, 0, workloads.Params{},
			faultinject.Campaign{N: 60, Model: faultinject.SingleBit, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		bk := rows[0].Res.LatencyBuckets()
		tot := bk[0] + bk[1] + bk[2] + bk[3]
		if tot > 0 {
			b.ReportMetric(100*float64(bk[0]+bk[1])/float64(tot), "within50-%")
		}
	}
}

// BenchmarkTable5AddressCensus reproduces the census.
func BenchmarkTable5AddressCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.CensusStudy(workloads.Params{})
		var s float64
		for _, r := range rows {
			s += r.PctMulti()
		}
		b.ReportMetric(s/float64(len(rows)), "multiop-%")
	}
}

// BenchmarkTable8ArmorStats measures Armor's compile-time overhead.
func BenchmarkTable8ArmorStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ArmorStudy(0, workloads.Params{}, true)
		if err != nil {
			b.Fatal(err)
		}
		var kernels int
		for _, r := range rows {
			kernels += r.Kernels
		}
		b.ReportMetric(float64(kernels), "kernels")
	}
}

func coverageBench(b *testing.B, name string, opt int, model faultinject.Model, cfg safeguard.Config) *faultinject.CoverageResult {
	b.Helper()
	bin, err := shard.BuildSpec{Workload: name, OptLevel: opt, Defenses: []string{"care"}}.Build()
	if err != nil {
		b.Fatal(err)
	}
	exp := &faultinject.CoverageExperiment{App: bin, Trials: 25, Model: model, Seed: benchSeed, Safeguard: cfg}
	res, err := exp.Run()
	if err != nil && res == nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFigure7Coverage reproduces the coverage bars.
func BenchmarkFigure7Coverage(b *testing.B) {
	for _, name := range experiments.EvaluatedNames() {
		for _, opt := range []int{0, 1} {
			b.Run(name+"/O"+string(rune('0'+opt)), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res := coverageBench(b, name, opt, faultinject.SingleBit, safeguard.Config{})
					b.ReportMetric(100*res.Coverage(), "coverage-%")
				}
			})
		}
	}
}

// BenchmarkFigure9RecoveryTime reports mean recovery time and the
// preparation share (the paper reports >98% preparation).
func BenchmarkFigure9RecoveryTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := coverageBench(b, "HPCCG", 0, faultinject.SingleBit, safeguard.Config{})
		b.ReportMetric(float64(res.MeanRecoveryTime().Nanoseconds()), "ns/recovery")
		b.ReportMetric(100*res.PrepFraction(), "prep-%")
	}
}

// BenchmarkFigure10Parallel reproduces the parallel-job comparison.
func BenchmarkFigure10Parallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.ParallelStudy([]string{"HPCCG"}, cluster.Config{
			Params: workloads.Params{NX: 5, NY: 5, NZ: 4, Steps: 12}, Ranks: 8, ThreadsPerRank: 6, Seed: benchSeed,
		}, cluster.SearchOptions{})
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		delta := 100 * float64(r.Faulty.VirtualTime-r.Base.VirtualTime) / float64(r.Base.VirtualTime)
		b.ReportMetric(delta, "job-delay-%")
	}
}

// BenchmarkCheckpointRestartBaseline reproduces the §5.4 C/R costs.
func BenchmarkCheckpointRestartBaseline(b *testing.B) {
	w, err := workloads.Get("GTC-P")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := cluster.RunCheckpointRestart(w, workloads.Params{Steps: 40, NParticles: 60}, 0, 10, 33)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.RecoveryTotal.Milliseconds()), "cr-recovery-ms")
	}
}

// BenchmarkTable9BLAS reproduces the library experiment.
func BenchmarkTable9BLAS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		row, err := experiments.BLASStudy(0, faultinject.CoverageExperiment{Trials: 25, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*row.Coverage, "coverage-%")
	}
}

// BenchmarkTable10DoubleFlip reproduces the appendix outcome table.
func BenchmarkTable10DoubleFlip(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OutcomeStudy([]string{"CoMD"}, 0, workloads.Params{},
			faultinject.Campaign{N: 60, Model: faultinject.DoubleBit, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		o := rows[0].Res.Outcomes
		total := float64(o[faultinject.Benign] + o[faultinject.SoftFailure] + o[faultinject.SDC] + o[faultinject.Hang])
		b.ReportMetric(100*float64(o[faultinject.SoftFailure])/total, "softfail-%")
	}
}

// BenchmarkTable11DoubleFlipSymptoms reports the double-flip SIGSEGV
// share.
func BenchmarkTable11DoubleFlipSymptoms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.OutcomeStudy([]string{"CoMD"}, 0, workloads.Params{},
			faultinject.Campaign{N: 60, Model: faultinject.DoubleBit, Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0].Res
		if soft := r.Outcomes[faultinject.SoftFailure]; soft > 0 {
			b.ReportMetric(100*float64(r.Symptoms[machine.SigSEGV])/float64(soft), "sigsegv-%")
		}
	}
}

// BenchmarkFigure12DoubleFlipCoverage reproduces the appendix coverage.
func BenchmarkFigure12DoubleFlipCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := coverageBench(b, "HPCCG", 0, faultinject.DoubleBit, safeguard.Config{})
		b.ReportMetric(100*res.Coverage(), "coverage-%")
	}
}

// BenchmarkGoldenRun measures raw golden-run throughput — the paper's
// experiments all sit on top of fault-free replays, so this is the
// constant every campaign's wall-clock divides by. It runs HPCCG (the
// 27-point stencil matrix build plus the CG sparse matrix-vector loop)
// end to end at O0 and O1 on both interpreter tiers: the default fused
// superblock engine and the legacy per-instruction Step loop. The tier
// ratio is the engine's speedup; CI uploads the output as
// BENCH_interp.json.
func BenchmarkGoldenRun(b *testing.B) {
	for _, opt := range []int{0, 1} {
		bin, err := shard.BuildSpec{Workload: "HPCCG", OptLevel: opt}.Build()
		if err != nil {
			b.Fatal(err)
		}
		for _, tier := range machine.Tiers() {
			b.Run("O"+string(rune('0'+opt))+"/"+tier.String(), func(b *testing.B) {
				var dyn uint64
				for i := 0; i < b.N; i++ {
					p, err := core.NewProcess(core.ProcessConfig{App: bin, Tier: tier})
					if err != nil {
						b.Fatal(err)
					}
					if st := p.Run(0); st != machine.StatusExited {
						b.Fatalf("golden run: %v", st)
					}
					dyn += p.CPU.Dyn
				}
				b.ReportMetric(float64(dyn)/b.Elapsed().Seconds()/1e6, "Minstr/s")
			})
		}
	}
}

// BenchmarkSafeguardIdleOverhead is the §5.2 zero-runtime-overhead
// claim: a protected fault-free run vs an unprotected one.
func BenchmarkSafeguardIdleOverhead(b *testing.B) {
	prot, err := shard.BuildSpec{Workload: "HPCCG", Defenses: []string{"care"}}.Build()
	if err != nil {
		b.Fatal(err)
	}
	for _, protected := range []bool{false, true} {
		name := "unprotected"
		if protected {
			name = "protected"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := core.NewProcess(core.ProcessConfig{App: prot, Protected: protected})
				if err != nil {
					b.Fatal(err)
				}
				if st := p.Run(0); st != machine.StatusExited {
					b.Fatalf("run: %v", st)
				}
			}
		})
	}
}

// BenchmarkAblationPatchRule compares the index-register patch rule
// against always patching the base register.
func BenchmarkAblationPatchRule(b *testing.B) {
	for _, base := range []bool{false, true} {
		name := "patch-index"
		if base {
			name = "patch-base"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := coverageBench(b, "GTC-P", 0, faultinject.SingleBit, safeguard.Config{PatchBase: base})
				b.ReportMetric(100*res.Coverage(), "coverage-%")
			}
		})
	}
}

// BenchmarkAblationLiveness disables Armor's Terminal Value liveness
// restriction: kernels get registered whose parameters may be
// unfetchable, shifting failures from out-of-scope to
// param-unavailable and lowering coverage.
func BenchmarkAblationLiveness(b *testing.B) {
	for _, ignore := range []bool{false, true} {
		name := "liveness-on"
		if ignore {
			name = "liveness-off"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := workloads.Get("CoMD")
				if err != nil {
					b.Fatal(err)
				}
				bin, err := core.Build(w.Module(workloads.Params{}),
					core.BuildOptions{OptLevel: 1, Defenses: []string{"care"}, Armor: armor.Options{IgnoreLiveness: ignore}})
				if err != nil {
					b.Fatal(err)
				}
				exp := &faultinject.CoverageExperiment{App: bin, Trials: 25, Seed: benchSeed}
				res, err := exp.Run()
				if err != nil && res == nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*res.Coverage(), "coverage-%")
				b.ReportMetric(float64(res.FailureOutcomes[safeguard.ParamUnavailable]), "param-unavail")
			}
		})
	}
}

// BenchmarkAblationLazyLoad compares lazy (per-fault) loading of the
// recovery table/library against keeping them resident.
func BenchmarkAblationLazyLoad(b *testing.B) {
	for _, eager := range []bool{false, true} {
		name := "lazy"
		if eager {
			name = "eager"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := coverageBench(b, "HPCCG", 0, faultinject.SingleBit, safeguard.Config{Eager: eager})
				b.ReportMetric(float64(res.MeanRecoveryTime().Nanoseconds()), "ns/recovery")
			}
		})
	}
}

// BenchmarkAblationScopeCheck measures what the LetGo-style heuristic
// fallback does to output integrity: survivals rise but SDCs appear —
// the paper's argument for the coverage-scope check.
func BenchmarkAblationScopeCheck(b *testing.B) {
	for _, heuristic := range []bool{false, true} {
		name := "faithful"
		if heuristic {
			name = "heuristic"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := coverageBench(b, "HPCCG", 0, faultinject.SingleBit, safeguard.Config{Heuristic: heuristic})
				b.ReportMetric(float64(res.Recovered), "survived")
				b.ReportMetric(float64(res.Recovered-res.CleanRecovered), "sdc-after-recovery")
			}
		})
	}
}

// BenchmarkExtensionInductionRecovery measures the Figure-11 future-work
// extension implemented in this reproduction: reconstructing corrupted
// induction variables from affine siblings. BLAS's strided level-1
// loops (i, ix, iy advancing in lockstep) are the natural beneficiary.
func BenchmarkExtensionInductionRecovery(b *testing.B) {
	for _, on := range []bool{false, true} {
		name := "paper-baseline"
		if on {
			name = "with-induction-recovery"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				row, err := experiments.BLASStudy(0, faultinject.CoverageExperiment{
					Trials: 30, Seed: benchSeed, Safeguard: safeguard.Config{InductionRecovery: on},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(100*row.Coverage, "coverage-%")
			}
		})
	}
}

// BenchmarkCampaignTraceOff is the overhead guard for the trace spine:
// a fault-injection campaign with tracing disabled must stay within a
// few percent of what it cost before the spine existed (the no-op
// recorder is a nil pointer, so the step path must not allocate — see
// machine.TestStepWithNilTraceDoesNotAllocate). Compare against
// BenchmarkCampaignTraceOn to read off the cost of enabling it.
func BenchmarkCampaignTraceOff(b *testing.B) {
	benchmarkCampaignTrace(b, false)
}

// BenchmarkCampaignTraceOn measures the same campaign with the
// per-trial trace recorders and the deterministic merge enabled.
func BenchmarkCampaignTraceOn(b *testing.B) {
	benchmarkCampaignTrace(b, true)
}

func benchmarkCampaignTrace(b *testing.B, traced bool) {
	w, err := workloads.Get("HPCCG")
	if err != nil {
		b.Fatal(err)
	}
	bin, err := core.Build(w.Module(workloads.Params{}), core.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := (&faultinject.Campaign{
			App: bin, N: 60, Model: faultinject.SingleBit, Seed: benchSeed, Trace: traced,
		}).Run()
		if err != nil {
			b.Fatal(err)
		}
		if traced && res.Trace.Len() == 0 {
			b.Fatal("traced campaign produced no spans")
		}
	}
}
