package cluster

import (
	"testing"

	"pran/internal/frame"
	"pran/internal/phy"
)

// effectiveIterCap is the iteration budget a level actually imposes (cap 0 =
// the decoder's default).
func effectiveIterCap(l DegradationLevel) int {
	if c := l.IterCap(); c > 0 {
		return c
	}
	return phy.DefaultTurboIterations
}

func TestDegradationLadderStructure(t *testing.T) {
	if DegradeNone != 0 {
		t.Fatal("zero value is not full service")
	}
	for l := DegradeNone; l <= MaxDegradationLevel; l++ {
		if err := l.Validate(); err != nil {
			t.Fatalf("level %d invalid: %v", l, err)
		}
		if l.String() == "" {
			t.Fatalf("level %d unnamed", l)
		}
	}
	if err := (MaxDegradationLevel + 1).Validate(); err == nil {
		t.Fatal("out-of-range level validated")
	}
	if (MaxDegradationLevel + 5).Clamp() != MaxDegradationLevel {
		t.Fatal("clamp broken")
	}
	// Monotone knobs: every rung is at least as aggressive as the last.
	for l := DegradeNone; l < MaxDegradationLevel; l++ {
		if effectiveIterCap(l+1) >= effectiveIterCap(l) {
			t.Fatalf("iter cap not strictly decreasing at level %d", l+1)
		}
		if l.ForcesInt16() && !(l + 1).ForcesInt16() {
			t.Fatalf("int16 forcing regressed at level %d", l+1)
		}
		if l.ShedsHARQ() && !(l + 1).ShedsHARQ() {
			t.Fatalf("HARQ shedding regressed at level %d", l+1)
		}
		if (l + 1).MCSCap() >= l.MCSCap() {
			t.Fatalf("MCS cap not strictly decreasing at level %d", l+1)
		}
	}
	if DegradeNone.IterCap() != 0 || DegradeNone.ForcesInt16() || DegradeNone.ShedsHARQ() || DegradeNone.MCSCap() != phy.MaxMCS {
		t.Fatal("level 0 is not full service")
	}
	if !MaxDegradationLevel.ForcesInt16() || !MaxDegradationLevel.ShedsHARQ() {
		t.Fatal("deepest rung missing knobs")
	}
}

// TestDegradationCostMonotone pins the ladder's pricing contract: raising
// the level never increases the modelled per-TB decode cost, at any MCS/PRB
// corner and at any SNR margin (the iteration cap binds hardest at the cliff
// edge, the kernel swap everywhere).
func TestDegradationCostMonotone(t *testing.T) {
	// Both the scalar model and the vector (AVX2 kernels) model: the int16
	// rung must be a saving on either.
	for _, m := range []CostModel{DefaultCostModel(), DefaultCostModel().WithVector(true)} {
		checkDegradationCostMonotone(t, m)
	}
}

func checkDegradationCostMonotone(t *testing.T, m CostModel) {
	t.Helper()
	for _, mcs := range []phy.MCS{0, 10, 16, 22, 28} {
		for _, prb := range []int{4, 25, 100} {
			for _, margin := range []float64{-2, 0, 3} {
				w := frame.SubframeWork{
					Cell: 1,
					Allocations: []frame.Allocation{{
						RNTI: 1, NumPRB: prb, MCS: mcs,
						SNRdB: mcs.OperatingSNR() + margin,
					}},
				}
				prev := MaxDegradationLevel.Apply(m).SubframeCost(w, phy.BW20MHz, 1)
				for l := MaxDegradationLevel; l > DegradeNone; l-- {
					c := (l - 1).Apply(m).SubframeCost(w, phy.BW20MHz, 1)
					if c < prev {
						t.Fatalf("vector %v mcs %d prb %d margin %+.0f: cost at level %d (%v) below level %d (%v)",
							m.Vector, mcs, prb, margin, l-1, c, l, prev)
					}
					prev = c
				}
				// The deepest rung must be a real cut at provisioning-relevant
				// corners (int16 kernel + tight cap).
				full := DegradeNone.Apply(m).SubframeCost(w, phy.BW20MHz, 1)
				deep := MaxDegradationLevel.Apply(m).SubframeCost(w, phy.BW20MHz, 1)
				if deep >= full {
					t.Fatalf("vector %v mcs %d prb %d margin %+.0f: deepest rung not cheaper (%v vs %v)",
						m.Vector, mcs, prb, margin, deep, full)
				}
			}
		}
	}
}

func TestDegradationApplyMirrorsKnobs(t *testing.T) {
	m := DefaultCostModel()
	for l := DegradeNone; l <= MaxDegradationLevel; l++ {
		got := l.Apply(m)
		if got.IterCap != l.IterCap() {
			t.Fatalf("level %d: model iter cap %d, ladder %d", l, got.IterCap, l.IterCap())
		}
		wantKernel := m.Kernel
		if l.ForcesInt16() {
			wantKernel = phy.KernelInt16
		}
		if got.Kernel != wantKernel {
			t.Fatalf("level %d: model kernel %v, want %v", l, got.Kernel, wantKernel)
		}
	}
}
