package fpexact

import (
	"math"
	"testing"
)

// TestContractsMatchesArithmetic: the probe agrees with what a*b+c
// rounds to here, whichever way the target goes.
func TestContractsMatchesArithmetic(t *testing.T) {
	a := 1 + 0x1p-30
	separate := mulAdd(a, a, -1) == 0x1p-29
	fused := mulAdd(a, a, -1) == math.FMA(a, a, -1)
	if separate == fused {
		t.Fatalf("a*a-1 = %g is neither the separately rounded %g nor the fused %g", mulAdd(a, a, -1), 0x1p-29, math.FMA(a, a, -1))
	}
	if Contracts() != fused {
		t.Fatalf("Contracts() = %v, but a*a-1 fused = %v", Contracts(), fused)
	}
}
