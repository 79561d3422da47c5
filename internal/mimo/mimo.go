// Package mimo provides the MIMO channel analysis behind the paper's
// §3.2.3 experiment: per-subcarrier channel matrices, condition numbers
// in dB (Figure 8's metric), and Shannon capacities, for channels of any
// dimension (with a fast closed-form path for the paper's 2×2 case).
package mimo

import (
	"fmt"
	"math"

	"press/internal/cmat"
	"press/internal/rfphys"
)

// Channel is a frequency-selective MIMO channel: one complex matrix per
// subcarrier, each NR×NT (receive antennas × transmit antennas).
type Channel struct {
	Matrices []*cmat.Matrix
}

// FromResponses assembles a Channel from per-antenna-pair frequency
// responses: resp[i][j][k] is the response from transmit antenna j to
// receive antenna i on subcarrier k. All pairs must cover the same
// subcarrier count.
func FromResponses(resp [][][]complex128) (*Channel, error) {
	nr := len(resp)
	if nr == 0 || len(resp[0]) == 0 {
		return nil, fmt.Errorf("mimo: empty response set")
	}
	nt := len(resp[0])
	nsc := len(resp[0][0])
	if nsc == 0 {
		return nil, fmt.Errorf("mimo: no subcarriers")
	}
	for i := range resp {
		if len(resp[i]) != nt {
			return nil, fmt.Errorf("mimo: rx antenna %d has %d tx responses, want %d", i, len(resp[i]), nt)
		}
		for j := range resp[i] {
			if len(resp[i][j]) != nsc {
				return nil, fmt.Errorf("mimo: pair (%d,%d) has %d subcarriers, want %d", i, j, len(resp[i][j]), nsc)
			}
		}
	}
	// All matrices share one header array and one data array; entry
	// (i, j) of subcarrier k's matrix is data[k*size+i*nt+j].
	size := nr * nt
	data := make([]complex128, nsc*size)
	for i := range resp {
		for j, r := range resp[i] {
			for k, x := range r {
				data[k*size+i*nt+j] = x
			}
		}
	}
	mats := make([]*cmat.Matrix, nsc)
	backing := make([]cmat.Matrix, nsc)
	for k := range mats {
		backing[k] = cmat.Matrix{Rows: nr, Cols: nt, Data: data[k*size : (k+1)*size : (k+1)*size]}
		mats[k] = &backing[k]
	}
	return &Channel{Matrices: mats}, nil
}

// NumSubcarriers returns the subcarrier count.
func (c *Channel) NumSubcarriers() int { return len(c.Matrices) }

// CondNumberDB returns the 2-norm condition number of one channel matrix
// in dB: 20·log10(σmax/σmin), the quantity on Figure 8's x-axis. A
// perfectly conditioned (orthogonal) channel scores 0 dB; rank-deficient
// channels return +Inf. Like cmat.Cond, it allocates nothing for up to
// 16 antenna pairs of finite responses up to 2^500.
func CondNumberDB(m *cmat.Matrix) float64 {
	return rfphys.AmplitudeToDB(cmat.Cond(m))
}

// CondProfileDB returns the per-subcarrier condition number in dB — the
// sample set one PRESS configuration contributes to Figure 8's CDF.
// out[k] is CondNumberDB(c.Matrices[k]) bit for bit; cmat.Conds takes
// neighbouring subcarriers two at a time.
func (c *Channel) CondProfileDB() []float64 {
	out := make([]float64, len(c.Matrices))
	c.condProfileDB(out)
	return out
}

// condProfileDB writes CondProfileDB into out, of one entry per matrix.
func (c *Channel) condProfileDB(out []float64) {
	cmat.Conds(c.Matrices, out)
	for k, x := range out {
		out[k] = rfphys.AmplitudeToDB(x)
	}
}

// CapacityBpsHz returns the equal-power MIMO Shannon capacity of one
// matrix at total SNR snrLinear (receive SNR if the channel were flat
// unit-gain): log2 det(I + snr/NT · H·H^H) b/s/Hz, computed from singular
// values.
func CapacityBpsHz(m *cmat.Matrix, snrLinear float64) float64 {
	if snrLinear < 0 {
		panic("mimo: negative SNR")
	}
	s := cmat.SingularValues(m)
	var capacity float64
	for _, sv := range s {
		capacity += math.Log2(1 + snrLinear/float64(m.Cols)*sv*sv)
	}
	return capacity
}

// MeanCapacityBpsHz averages CapacityBpsHz across subcarriers — the
// wideband spectral efficiency of the channel.
func (c *Channel) MeanCapacityBpsHz(snrLinear float64) float64 {
	if len(c.Matrices) == 0 {
		return 0
	}
	var sum float64
	for _, m := range c.Matrices {
		sum += CapacityBpsHz(m, snrLinear)
	}
	return sum / float64(len(c.Matrices))
}

// WaterfillingCapacityBpsHz returns the MIMO capacity with optimal power
// allocation across eigenchannels: maximize Σ log2(1 + p_i·σ_i²) subject
// to Σ p_i = snrLinear, solved with the classic water-filling iteration.
// It upper-bounds CapacityBpsHz (equal power) and converges to it at
// high SNR.
func WaterfillingCapacityBpsHz(m *cmat.Matrix, snrLinear float64) float64 {
	if snrLinear < 0 {
		panic("mimo: negative SNR")
	}
	if snrLinear == 0 {
		return 0
	}
	s := cmat.SingularValues(m)
	// Gains g_i = σ_i²; drop zero eigenchannels.
	var gains []float64
	for _, sv := range s {
		if sv > 0 {
			gains = append(gains, sv*sv)
		}
	}
	if len(gains) == 0 {
		return 0
	}
	// Water level: μ = (P + Σ 1/g_i)/k over the active set; channels
	// whose inverse gain exceeds μ get no power and leave the set.
	active := len(gains)
	for active > 0 {
		var invSum float64
		for _, g := range gains[:active] {
			invSum += 1 / g
		}
		mu := (snrLinear + invSum) / float64(active)
		// gains are sorted descending (singular values were), so the
		// weakest active channel is the last.
		if mu-1/gains[active-1] >= 0 {
			var capacity float64
			for _, g := range gains[:active] {
				capacity += math.Log2(mu * g)
			}
			return capacity
		}
		active--
	}
	return 0
}

// ZFSumRateBpsHz returns the zero-forcing sum rate for one matrix: each
// of the NT streams decoded by pseudo-inverse nulling, with the noise
// enhancement a poorly conditioned channel causes. This is the
// "conventional MIMO algorithm" whose degradation under bad conditioning
// the paper cites (§1).
func ZFSumRateBpsHz(m *cmat.Matrix, snrLinear float64) float64 {
	pinv := cmat.PseudoInverse(m, 1e-12)
	var rate float64
	for s := 0; s < m.Cols; s++ {
		// Noise enhancement of stream s: squared norm of row s of H⁺.
		var enh float64
		for j := 0; j < pinv.Cols; j++ {
			v := pinv.At(s, j)
			enh += real(v)*real(v) + imag(v)*imag(v)
		}
		if enh == 0 {
			continue // nulled stream carries nothing
		}
		rate += math.Log2(1 + snrLinear/float64(m.Cols)/enh)
	}
	return rate
}

// Average returns the element-wise mean of several channel snapshots —
// the paper's Figure 8 methodology computes each CDF "from the mean of 50
// successive channel measurements". All snapshots must have identical
// dimensions.
func Average(snapshots []*Channel) (*Channel, error) {
	if len(snapshots) == 0 {
		return nil, fmt.Errorf("mimo: no snapshots to average")
	}
	first := snapshots[0]
	nsc := first.NumSubcarriers()
	out := &Channel{Matrices: make([]*cmat.Matrix, nsc)}
	for k := 0; k < nsc; k++ {
		acc := cmat.New(first.Matrices[k].Rows, first.Matrices[k].Cols)
		for _, snap := range snapshots {
			if snap.NumSubcarriers() != nsc ||
				snap.Matrices[k].Rows != acc.Rows || snap.Matrices[k].Cols != acc.Cols {
				return nil, fmt.Errorf("mimo: snapshot dimensions differ")
			}
			for i := range acc.Data {
				acc.Data[i] += snap.Matrices[k].Data[i]
			}
		}
		inv := complex(1/float64(len(snapshots)), 0)
		for i := range acc.Data {
			acc.Data[i] *= inv
		}
		out.Matrices[k] = acc
	}
	return out, nil
}
