package element

import (
	"fmt"
	"math"
	"math/rand/v2"

	"press/internal/geom"
	"press/internal/rfphys"
)

// PlacementSpec describes how to scatter PRESS elements around a link,
// reproducing the paper's §3.2 methodology: "we place the PRESS antennas
// in eight randomly generated locations in a grid 1–2 meters from both
// the transmitting and receiving antennas".
type PlacementSpec struct {
	// MinDist and MaxDist bound the distance from each grid point to
	// *both* endpoints (metres). The paper uses 1–2 m.
	MinDist, MaxDist float64
	// GridPitch is the spacing of candidate grid points (metres);
	// defaults to 0.25 when zero.
	GridPitch float64
	// Height is the mounting height of the elements; defaults to 1.5 m.
	Height float64
}

// DefaultPlacement is the paper's placement recipe.
var DefaultPlacement = PlacementSpec{MinDist: 1, MaxDist: 2, GridPitch: 0.25, Height: 1.5}

// Candidates enumerates every grid point inside the room satisfying the
// distance constraints to tx and rx.
//
// A grid column or row farther than MaxDist from an endpoint along x or
// y holds no candidate, so its distances are not computed. The bound
// carries a margin far above the rounding of Dist, so a point it skips
// is one the distance test would reject too, and the output is the
// same points in the same order. A NaN or infinite bound skips nothing.
func (s PlacementSpec) Candidates(room geom.Room, tx, rx geom.Vec) []geom.Vec {
	pitch := s.GridPitch
	if pitch <= 0 {
		pitch = 0.25
	}
	h := s.Height
	if h == 0 {
		h = 1.5
	}
	bound := s.MaxDist*(1+1e-9) + 1e-9
	prune := !math.IsNaN(bound) && !math.IsInf(bound, 0)
	far := func(c, a, b float64) bool {
		return prune && (math.Abs(c-a) > bound || math.Abs(c-b) > bound)
	}
	var out []geom.Vec
	for x := pitch; x < room.Size.X; x += pitch {
		if far(x, tx.X, rx.X) {
			continue
		}
		for y := pitch; y < room.Size.Y; y += pitch {
			if far(y, tx.Y, rx.Y) {
				continue
			}
			p := geom.V(x, y, h)
			dt, dr := p.Dist(tx), p.Dist(rx)
			if dt >= s.MinDist && dt <= s.MaxDist && dr >= s.MinDist && dr <= s.MaxDist {
				out = append(out, p)
			}
		}
	}
	return out
}

// Place draws n distinct element positions uniformly from the candidate
// grid using rng. It fails when fewer than n candidates exist — a
// geometry problem the caller should surface, not mask.
func (s PlacementSpec) Place(rng *rand.Rand, room geom.Room, tx, rx geom.Vec, n int) ([]geom.Vec, error) {
	cands := s.Candidates(room, tx, rx)
	if len(cands) < n {
		return nil, fmt.Errorf("element: only %d candidate positions for %d elements (room %v, constraints %g–%g m)",
			len(cands), n, room.Size, s.MinDist, s.MaxDist)
	}
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	return cands[:n], nil
}

// NewParabolicElement builds the paper's prototype element: a 14 dBi,
// 21°-beamwidth grid parabolic (Laird GD24BP) aimed at `aim`, behind the
// SP4T stub bank, with 1 dB of switch insertion loss. Grid parabolics
// have relatively high near-in sidelobes (≈ −13 dB), which matters here:
// a bistatic element illuminates one endpoint through the main lobe and
// the other through a sidelobe.
func NewParabolicElement(pos, aim geom.Vec) *Element {
	return &Element{
		Pos: pos,
		Pattern: rfphys.Parabolic{
			Boresight:    aim.Sub(pos),
			PeakGainDBi:  14,
			BeamwidthDeg: 21,
			SidelobeDB:   -13,
		},
		LossDB: 1,
		States: SP4TStates(),
	}
}

// NewOmniElement builds the omnidirectional element variant the paper
// also experiments with: a 2 dBi omni behind the SP4T bank.
func NewOmniElement(pos geom.Vec) *Element {
	return &Element{
		Pos:     pos,
		Pattern: rfphys.Omni{PeakGainDBi: 2},
		LossDB:  1,
		States:  SP4TStates(),
	}
}

// NewActiveElement builds an active re-radiating element (§2's
// PhyCloak-style design point): an omni with net re-radiation gain, used
// by the passive/active ablation and the line-of-sight experiments where
// passive reflections are too weak.
func NewActiveElement(pos geom.Vec, gainDB float64) *Element {
	return &Element{
		Pos:          pos,
		Pattern:      rfphys.Omni{PeakGainDBi: 2},
		ActiveGainDB: gainDB,
		States:       SP4TStates(),
	}
}
