// CLI smoke tests: build the user-facing binaries and run each on a
// tiny workload, asserting the output is non-empty and parseable. These
// catch flag-wiring and output-format regressions that the package
// tests (which call the experiment drivers directly) cannot see.
package care

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"care/internal/experiments"
	"care/internal/trace"
)

// buildCLIs compiles the named commands into a temp dir and returns the
// binary paths keyed by command name.
func buildCLIs(t *testing.T, names ...string) map[string]string {
	t.Helper()
	dir := t.TempDir()
	bins := map[string]string{}
	args := []string{"build", "-o", dir + string(os.PathSeparator)}
	for _, n := range names {
		args = append(args, "./cmd/"+n)
		bin := filepath.Join(dir, n)
		if runtime.GOOS == "windows" {
			bin += ".exe"
		}
		bins[n] = bin
	}
	cmd := exec.Command("go", args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bins
}

// requireUsageError runs a built binary that must refuse its arguments:
// exit status 2, the one-line message msg on stderr, nothing on stdout.
func requireUsageError(t *testing.T, msg, bin string, args ...string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var exit *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("%s %v: %v, want exit status 2", filepath.Base(bin), args, err)
	}
	if stderr.String() != msg+"\n" {
		t.Errorf("stderr %q, want %q", stderr.String(), msg+"\n")
	}
	if stdout.Len() != 0 {
		t.Errorf("stdout %q, want nothing", stdout.String())
	}
}

// runCLI executes a built binary and returns its stdout.
func runCLI(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstderr:\n%s", filepath.Base(bin), args, err, stderr.String())
	}
	return stdout.String()
}

func TestCLISmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bins := buildCLIs(t, "care-inject", "care-coverage", "care-trace", "care-report")
	traceOut := filepath.Join(t.TempDir(), "campaign.jsonl")

	t.Run("care-inject", func(t *testing.T) {
		out := runCLI(t, bins["care-inject"],
			"-workload", "HPCCG", "-n", "5", "-trace-out", traceOut)
		for _, want := range []string{"Table 2-style", "Table 3-style", "Table 4-style", "HPCCG"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in output:\n%s", want, out)
			}
		}
		f, err := os.Open(traceOut)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rec, err := trace.ReadJSONL(f)
		if err != nil {
			t.Fatalf("trace-out is not valid JSONL: %v", err)
		}
		if rec.Len() < 5 {
			t.Errorf("trace has %d spans, want at least one per trial (5)", rec.Len())
		}
		if rec.Counter("campaign.outcome.Benign")+rec.Counter("campaign.outcome.SoftFailure")+
			rec.Counter("campaign.outcome.SDC")+rec.Counter("campaign.outcome.Hang") != 5 {
			t.Errorf("outcome counters do not sum to the trial count: %v", rec.CounterNames())
		}
	})

	t.Run("care-inject-unknown-tier", func(t *testing.T) {
		requireUsageError(t, `machine: unknown interpreter tier "block" (want superblock or step)`,
			bins["care-inject"], "-interp", "block", "-n", "1", "-workload", "HPCCG")
	})

	// Both CLIs parse -model with faultinject.ParseModel, so a typo is
	// refused instead of running the single-bit model.
	t.Run("care-coverage-unknown-model", func(t *testing.T) {
		requireUsageError(t, `faultinject: unknown fault model "triple" (want single or double)`,
			bins["care-coverage"], "-model", "triple", "-trials", "1", "-workload", "HPCCG")
	})

	// A -defense arm runs the manifestation study's campaign: it shards
	// (the BLAS target included) and honours -faults.
	t.Run("care-inject-defense-shards", func(t *testing.T) {
		args := []string{"-defense", "care", "-workload", "BLAS", "-n", "12", "-seed", "11", "-shards"}
		if one, two := runCLI(t, bins["care-inject"], append(args, "1")...), runCLI(t, bins["care-inject"], append(args, "2")...); one != two {
			t.Errorf("-shards 2 printed\n%s\nwant the -shards 1 tables\n%s", two, one)
		}
	})
	t.Run("care-inject-defense-faults", func(t *testing.T) {
		args := []string{"-defense", "care", "-workload", "HPCCG", "-n", "40", "-seed", "11", "-faults"}
		if one, three := runCLI(t, bins["care-inject"], append(args, "1")...), runCLI(t, bins["care-inject"], append(args, "3")...); one == three {
			t.Errorf("-faults 3 printed the -faults 1 tables:\n%s", one)
		}
	})

	// -defense -store seals each target's campaign trace under the key
	// of that target's golden-profile manifest.
	t.Run("care-inject-defense-store", func(t *testing.T) {
		dir := t.TempDir()
		runCLI(t, bins["care-inject"], "-defense", "care", "-n", "4", "-seed", "11", "-store", dir)
		ids := func(sub, ext string) []string {
			names, err := filepath.Glob(filepath.Join(dir, sub, "*"+ext))
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range names {
				names[i] = strings.TrimSuffix(filepath.Base(n), ext)
			}
			return names
		}
		traces, manifests := ids("traces", ".jsonl"), ids("manifests", ".v5")
		if targets := len(experiments.DefenseNames()); len(traces) != targets || !slices.Equal(traces, manifests) {
			t.Errorf("%d targets: trace IDs %v, want the manifest IDs %v", targets, traces, manifests)
		}
	})

	// -domain-rewind hands -store and -progress to its policy study: the
	// first run caches the golden profile, the second loads it, and
	// both report attempt progress on stderr.
	t.Run("care-inject-domain-rewind-store", func(t *testing.T) {
		dir := t.TempDir()
		for _, want := range []string{"store.golden-misses=1", "store.golden-hits=1"} {
			cmd := exec.Command(bins["care-inject"], "-domain-rewind", "-n", "4", "-faults", "2",
				"-workload", "HPCCG", "-seed", "7", "-store", dir, "-progress")
			var stderr strings.Builder
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("care-inject -domain-rewind: %v\nstderr:\n%s", err, stderr.String())
			}
			if !strings.Contains(string(out), "domain-rewind-chain") {
				t.Errorf("missing the policy row in output:\n%s", out)
			}
			for _, w := range []string{want, "progress: ", " trials ("} {
				if !strings.Contains(stderr.String(), w) {
					t.Errorf("missing %q in stderr:\n%s", w, stderr.String())
				}
			}
		}
	})

	// A restoring policy runs every attempt cold, so -warmstart says
	// on stderr that it is off instead of switching silently.
	t.Run("care-inject-domain-rewind-warmstart-off", func(t *testing.T) {
		const line = "coverage.warmstart=off (policy restores checkpoints; attempts start at _start)\n"
		for _, warm := range []bool{true, false} {
			args := []string{"-domain-rewind", "-n", "2", "-faults", "2", "-workload", "HPCCG", "-seed", "7"}
			if warm {
				args = append(args, "-warmstart")
			}
			cmd := exec.Command(bins["care-inject"], args...)
			var stderr strings.Builder
			cmd.Stderr = &stderr
			if _, err := cmd.Output(); err != nil {
				t.Fatalf("care-inject %v: %v\nstderr:\n%s", args, err, stderr.String())
			}
			if got := strings.Contains(stderr.String(), line); got != warm {
				t.Errorf("care-inject %v: warm-start-off line present = %v, want %v; stderr:\n%s", args, got, warm, stderr.String())
			}
		}
	})

	t.Run("care-trace", func(t *testing.T) {
		out := runCLI(t, bins["care-trace"], "-workload", "HPCCG", "-n", "5")
		for _, want := range []string{"outcomes by corrupted unit", "propagation extent"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in output:\n%s", want, out)
			}
		}
	})

	t.Run("care-report", func(t *testing.T) {
		out := runCLI(t, bins["care-report"],
			"-sections", "census,outcomes", "-n", "5", "-workers", "2")
		for _, want := range []string{"# CARE reproduction report", "Table 5-style", "Table 2-style"} {
			if !strings.Contains(out, want) {
				t.Errorf("missing %q in output:\n%s", want, out)
			}
		}
		if strings.Contains(out, "Figure 10") {
			t.Error("-sections did not filter out the parallel study")
		}
	})
}
