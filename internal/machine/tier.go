package machine

import "fmt"

// InterpTier selects which dispatch loop Run uses when no step hooks are
// installed. The zero value is the superblock engine, so fresh CPUs and
// zero-valued configs get the fast path; both tiers are bit-identical
// in results (the differential suites and the CI smokes enforce it), so
// the knob exists for that check and for timing comparisons.
type InterpTier uint8

const (
	// TierSuperblock (the default) runs the fused engine: fallthrough
	// chains retire under a single budget/Dyn accounting check and
	// branches linked at predecode jump straight to the successor µop.
	TierSuperblock InterpTier = iota
	// TierStep forces the legacy per-instruction Step loop — the
	// reference semantics the superblock engine must reproduce bit for
	// bit.
	TierStep
)

var tierNames = [...]string{"superblock", "step"}

// String renders the tier the way the -interp CLI flags spell it.
func (t InterpTier) String() string {
	if int(t) < len(tierNames) {
		return tierNames[t]
	}
	return fmt.Sprintf("unknown(%d)", uint8(t))
}

// ParseInterpTier parses a -interp flag value.
func ParseInterpTier(s string) (InterpTier, error) {
	for i, n := range tierNames {
		if s == n {
			return InterpTier(i), nil
		}
	}
	return TierSuperblock, fmt.Errorf("machine: unknown interpreter tier %q (want superblock or step)", s)
}

// Tiers lists every interpreter tier, fastest first — the order the
// differential tests sweep.
func Tiers() []InterpTier { return []InterpTier{TierSuperblock, TierStep} }
