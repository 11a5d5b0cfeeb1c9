package machine

import (
	"slices"
	"testing"
)

// TestParseInterpTier pins the -interp flag spelling: exactly the
// tiers Tiers() lists parse and round-trip through String, and any
// other value fails with an error naming them.
func TestParseInterpTier(t *testing.T) {
	if got, want := Tiers(), []InterpTier{TierSuperblock, TierStep}; !slices.Equal(got, want) {
		t.Fatalf("Tiers() = %v, want %v", got, want)
	}
	for _, tc := range []struct {
		in   string
		want InterpTier
	}{
		{"superblock", TierSuperblock},
		{"step", TierStep},
	} {
		got, err := ParseInterpTier(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseInterpTier(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("%q parses to %v, which prints as %q", tc.in, got, got.String())
		}
	}
	for _, in := range []string{"block", "", "Step"} {
		_, err := ParseInterpTier(in)
		want := `machine: unknown interpreter tier "` + in + `" (want superblock or step)`
		if err == nil || err.Error() != want {
			t.Errorf("ParseInterpTier(%q) error = %v, want %q", in, err, want)
		}
	}
}
