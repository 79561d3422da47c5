package radio

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"press/internal/channel"
	"press/internal/element"
	"press/internal/geom"
	"press/internal/mimo"
	"press/internal/obs"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// MIMOLink is a multi-antenna link: every TX antenna × RX antenna pair is
// traced independently (antennas sit at different positions, so their
// multipath differs — that is what makes the channel matrix non-singular).
// It reproduces §3.2.3's setup: a 2×2 transceiver pair measured across
// all PRESS configurations.
type MIMOLink struct {
	Env    *propagation.Environment
	TXAnts []propagation.Node
	RXAnts []propagation.Node
	// TxPowerDBm and NoiseFigureDB play the same roles as on Link.
	TxPowerDBm    float64
	NoiseFigureDB float64
	Grid          ofdm.Grid
	Array         *element.Array
	// NumTraining is the per-snapshot training length (default 4).
	NumTraining int
	// Obs, when set, receives channel-solve telemetry like Link.Obs.
	Obs *obs.Registry
	// Prof, when set, accounts per-pair tracing and response evaluation
	// like Link.Prof.
	Prof *prof.Collector

	rng    *rand.Rand
	models []*channel.Model // rx-major, built on first evaluation
	resp   [][][]complex128 // [rx][tx] response scratch
}

// AttachScope points the MIMO link's telemetry at a session scope
// (registry and phase accounting; MIMO links have no per-curve CSI
// hook — condition profiles flow through Scope.ObserveCondProfile).
func (m *MIMOLink) AttachScope(sc *scope.Scope) {
	m.Obs = sc.Registry()
	m.Prof = sc.Prof()
}

// NewMIMOLink wires a MIMO link. The environment is traced for every
// antenna pair on first evaluation, not here.
func NewMIMOLink(env *propagation.Environment, txAnts, rxAnts []propagation.Node,
	grid ofdm.Grid, arr *element.Array, seed uint64) (*MIMOLink, error) {

	if len(txAnts) == 0 || len(rxAnts) == 0 {
		return nil, fmt.Errorf("radio: MIMO link needs at least one antenna per side")
	}
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	m := &MIMOLink{
		Env: env, TXAnts: txAnts, RXAnts: rxAnts,
		TxPowerDBm: 15, NoiseFigureDB: 6,
		Grid: grid, Array: arr, NumTraining: 4,
		rng: rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d)),
	}
	return m, nil
}

// TrueChannel returns the noiseless per-subcarrier channel matrices under
// cfg at time t. Each antenna pair is evaluated from its own channel
// model, built on first use and rebuilt when Array is swapped; the
// environment, antennas, grid and elements must not change after the
// first evaluation (build a new link instead).
func (m *MIMOLink) TrueChannel(cfg element.Config, t float64) (*mimo.Channel, error) {
	if err := channel.ValidateSelection(m.Array, cfg, nil, nil, false); err != nil {
		return nil, err
	}
	var start time.Time
	if m.Obs != nil {
		start = time.Now()
		defer func() {
			m.Obs.Histogram("radio_channel_solve_seconds", obs.LatencyBuckets).
				ObserveDuration(time.Since(start))
			m.Obs.Counter("radio_mimo_solves_total").Inc()
		}()
	}
	if err := m.buildModels(); err != nil {
		return nil, err
	}
	csp := m.Prof.Start(prof.PhaseChannelSum)
	var vecs, evals int
	for i, row := range m.resp {
		for j, h := range row {
			vecs += m.models[i*len(row)+j].Sum(h, cfg, nil, t)
			evals += len(h)
		}
	}
	m.Prof.Add(prof.PhaseChannelSum, prof.AuxSubcarrierEvals, int64(evals))
	m.Prof.Add(prof.PhaseChannelSum, prof.AuxPathTerms, int64(vecs*len(m.resp[0][0])))
	csp.End()
	ssp := m.Prof.Start(prof.PhaseSolve)
	ch, err := mimo.FromResponses(m.resp)
	if err == nil {
		m.Prof.Add(prof.PhaseSolve, prof.AuxSolves, int64(len(ch.Matrices)))
	}
	ssp.End()
	return ch, err
}

// buildModels builds every antenna pair's channel model and the response
// scratch unless they are current. The environment is traced once, on
// the first build; an Array swap reuses it. Geometry that is not finite
// is an error, returned before anything is traced.
func (m *MIMOLink) buildModels() error {
	if m.models != nil && m.models[0].Array() == m.Array {
		return nil
	}
	models, err := channel.Build(m.Env, m.TXAnts, m.RXAnts, m.Array, m.Grid, m.Prof, m.models)
	if err != nil {
		return err
	}
	m.models = models
	m.resp = make([][][]complex128, len(m.RXAnts))
	for i := range m.resp {
		m.resp[i] = make([][]complex128, len(m.TXAnts))
		for j := range m.resp[i] {
			m.resp[i][j] = make([]complex128, m.Grid.NumUsed())
		}
	}
	return nil
}

// MeasureChannel returns one noisy channel snapshot under cfg at time t:
// the true matrices perturbed by the channel-estimation error an SDR
// would incur (per-entry complex Gaussian with variance noise/(P·S) for S
// training symbols). A transmit power or noise figure that gives a
// non-finite or non-positive per-subcarrier power is an error and draws
// no noise.
func (m *MIMOLink) MeasureChannel(cfg element.Config, t float64) (*mimo.Channel, error) {
	sigma, err := m.estNoiseSigma()
	if err != nil {
		return nil, err
	}
	ch, err := m.TrueChannel(cfg, t)
	if err != nil {
		return nil, err
	}
	for _, mat := range ch.Matrices {
		for i := range mat.Data {
			mat.Data[i] += complex(m.rng.NormFloat64()*sigma, m.rng.NormFloat64()*sigma)
		}
	}
	return ch, nil
}

// MeasureAveraged measures `snapshots` successive channel snapshots under
// cfg, spaced by the timing model, and returns their element-wise mean —
// Figure 8's "mean of 50 successive channel measurements".
//
// When every endpoint is static the true channel is time-invariant, so
// the truth is traced once and only the noise is redrawn per snapshot —
// a large win for the 64-config × 50-snapshot Figure 8 sweep.
func (m *MIMOLink) MeasureAveraged(cfg element.Config, snapshots int, timing Timing, start time.Duration) (*mimo.Channel, error) {
	if snapshots < 1 {
		return nil, fmt.Errorf("radio: snapshots must be positive")
	}
	if m.static() {
		sigma, err := m.estNoiseSigma()
		if err != nil {
			return nil, err
		}
		truth, err := m.TrueChannel(cfg, start.Seconds())
		if err != nil {
			return nil, err
		}
		// Averaging S i.i.d. noisy snapshots equals truth plus one noise
		// draw at σ/√S.
		sigma /= math.Sqrt(float64(snapshots))
		for _, mat := range truth.Matrices {
			for i := range mat.Data {
				mat.Data[i] += complex(m.rng.NormFloat64()*sigma, m.rng.NormFloat64()*sigma)
			}
		}
		return truth, nil
	}
	snaps := make([]*mimo.Channel, 0, snapshots)
	at := start
	for s := 0; s < snapshots; s++ {
		ch, err := m.MeasureChannel(cfg, at.Seconds())
		if err != nil {
			return nil, err
		}
		snaps = append(snaps, ch)
		at += timing.PerMeasurement
	}
	return mimo.Average(snaps)
}

// static reports whether all endpoints are stationary.
func (m *MIMOLink) static() bool {
	for _, n := range m.TXAnts {
		if n.Velocity != (geom.Vec{}) {
			return false
		}
	}
	for _, n := range m.RXAnts {
		if n.Velocity != (geom.Vec{}) {
			return false
		}
	}
	return true
}

// estNoiseSigma returns the per-entry complex-component standard deviation
// of one snapshot's estimation error. Per-subcarrier transmit and noise
// powers that are not finite and positive are an error.
func (m *MIMOLink) estNoiseSigma() (float64, error) {
	txPw := rfphys.DBmToWatts(m.TxPowerDBm) / float64(m.Grid.NumUsed()) / float64(len(m.TXAnts))
	noise := rfphys.ThermalNoiseWatts(m.Grid.SpacingHz, m.NoiseFigureDB)
	if inf := math.Inf(1); !(0 < txPw && txPw < inf && 0 < noise && noise < inf) {
		return 0, fmt.Errorf("radio: TxPowerDBm %v and NoiseFigureDB %v give per-subcarrier powers %v W and %v W; both must be finite and positive",
			m.TxPowerDBm, m.NoiseFigureDB, txPw, noise)
	}
	nTrain := m.NumTraining
	if nTrain < 1 {
		nTrain = 1
	}
	return math.Sqrt(noise / txPw / float64(nTrain) / 2), nil
}
