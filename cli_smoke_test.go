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
	"strings"
	"testing"

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
	bins := buildCLIs(t, "care-inject", "care-trace", "care-report")
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
		cmd := exec.Command(bins["care-inject"], "-interp", "block", "-n", "1", "-workload", "HPCCG")
		var stdout, stderr strings.Builder
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		var exit *exec.ExitError
		if err := cmd.Run(); !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("unknown tier: %v, want exit status 2", err)
		}
		if want := `machine: unknown interpreter tier "block" (want superblock or step)` + "\n"; stderr.String() != want {
			t.Errorf("stderr %q, want %q", stderr.String(), want)
		}
		if stdout.Len() != 0 {
			t.Errorf("stdout %q, want nothing", stdout.String())
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
