// blas-recovery: the paper's §5.5 library scenario. libblas (the twelve
// REAL level-1 routines) is built as a CARE-protected shared library,
// the sblat1 driver links against it, and faults injected into *library*
// code are recovered through the library's own recovery table — located
// via the faulting PC's image, the dladdr mechanism of §4.
package main

import (
	"fmt"
	"log"

	"care/internal/blas"
	"care/internal/core"
	"care/internal/faultinject"
)

func main() {
	lib, err := core.BuildLib(blas.Library(), 0, 0, []string{"care"})
	if err != nil {
		log.Fatal(err)
	}
	drv, err := core.Build(blas.Sblat1(5), core.BuildOptions{OptLevel: 0, Defenses: []string{"care"}}, lib)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("libblas: %d routines, %d kernels, table %dB, library image at 0x%x\n",
		len(blas.RoutineNames), lib.DefenseStats["care"].NumKernels, len(lib.RecoveryTable), lib.Prog.CodeBase)
	fmt.Printf("sblat1:  %d kernels, app image at 0x%x\n\n",
		drv.DefenseStats["care"].NumKernels, drv.Prog.CodeBase)

	// Inject only into library code: this is what requires rebuilding
	// the library with CARE (footnote 3 of the paper).
	exp := &faultinject.CoverageExperiment{
		App:          drv,
		TargetImages: []string{"libblas"},
		Trials:       30, Seed: 77,
	}
	res, err := exp.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("faults in libblas code: %d SIGSEGV trials, %.1f%% recovered, mean recovery %v\n",
		res.SigsegvTrials, 100*res.Coverage(), res.MeanRecoveryTime())

	// And the combined driver+library experiment of Table 9.
	both := &faultinject.CoverageExperiment{
		App:          drv,
		TargetImages: []string{"sblat1", "libblas"},
		Trials:       30, Seed: 78,
	}
	bres, err := both.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("faults across both images: %.1f%% recovered (paper reports 83%%)\n", 100*bres.Coverage())
}
