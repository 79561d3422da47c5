// Package radio simulates the software-defined-radio measurement pipeline
// of the paper's exploratory study (§3.1–3.2): WARP/USRP-like endpoints
// transmit OFDM sounding frames through the multipath channel, the
// receiver estimates CSI from the training sequence, and a sweep engine
// steps the PRESS array through its configurations — including the
// testbed's measurement latency, which is what makes the coherence-time
// challenge of §2 concrete.
package radio

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"press/internal/channel"
	"press/internal/element"
	"press/internal/obs"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// Radio is one simulated SDR endpoint.
type Radio struct {
	Node propagation.Node
	// TxPowerDBm is the total transmit power, split evenly across used
	// subcarriers. WARP boards run around 10–18 dBm.
	TxPowerDBm float64
	// NoiseFigureDB is the receive noise figure; SDR front ends sit
	// around 5–8 dB.
	NoiseFigureDB float64
}

// Timing models the testbed's measurement latency. The paper reports that
// sweeping all 64 configurations takes about 5 seconds — ~78 ms per
// configuration — far beyond the channel coherence time, which is why
// they iterate the sweep 10 times and use statistics instead (§3.2).
type Timing struct {
	// PerMeasurement is the wall-clock cost of one configuration
	// measurement (frame exchange + host processing).
	PerMeasurement time.Duration
	// SwitchLatency is the extra cost of actuating the array between
	// configurations (control-plane plus RF-switch settling).
	SwitchLatency time.Duration
}

// PrototypeTiming reproduces the paper's ~5 s / 64 configs testbed.
var PrototypeTiming = Timing{PerMeasurement: 70 * time.Millisecond, SwitchLatency: 8 * time.Millisecond}

// SweepDuration returns how long measuring n configurations takes.
func (t Timing) SweepDuration(n int) time.Duration {
	return time.Duration(n) * (t.PerMeasurement + t.SwitchLatency)
}

// Link is a measurable TX→RX link through an environment, optionally
// modulated by a PRESS array.
type Link struct {
	Env  *propagation.Environment
	TX   *Radio
	RX   *Radio
	Grid ofdm.Grid
	// Array is the PRESS array between the endpoints; nil means a bare
	// link (the no-PRESS baseline).
	Array *element.Array
	// Faults injects element failures (§2 maintenance): commands to
	// faulty elements are overridden physically, invisible to the
	// controller except through the measured channel.
	Faults element.Faults
	// NumTraining is the training symbols per sounding frame (default 4).
	NumTraining int
	// Obs, when set, receives the measurement pipeline's telemetry:
	// CSI-measurement counters, channel-solve latency histograms, and
	// sweep spans. The nil default adds one pointer check per measurement.
	Obs *obs.Registry
	// Prof, when set, accounts the measurement pipeline's work to phases
	// (channel-model build → path_trace, per-sounding channel sum →
	// channel_sum, sounding-frame synthesis → frame_synth, estimation →
	// estimate, sweeps → sweep). Nil costs one pointer check per phase.
	Prof *prof.Collector
	// OnCSI, when set, receives each successful channel estimate's
	// per-subcarrier SNR curve — the hook internal/obs/health uses to
	// watch live channel state without radio depending on it. The slice
	// is the estimate's own; observers must copy, not retain.
	OnCSI func(snrDB []float64)

	rng   *rand.Rand
	model *channel.Model // built on first measurement
	// Measurement scratch: the channel vector, the training sequence, the
	// noiseless received term √P·h·x per subcarrier and the received
	// frame.
	h, train, clean []complex128
	rx              [][]complex128
	pow             powerCache // see powers
}

// powerKey holds every input of a link's per-subcarrier powers.
type powerKey struct {
	txPowerDBm, noiseFigureDB, spacingHz float64
	numUsed                              int
}

// powerCache holds the per-subcarrier powers computed for key.
type powerCache struct {
	key        powerKey
	set        bool
	txW, noise float64
}

// AttachScope points the link's telemetry at a session scope: registry,
// phase accounting, and the CSI hook feeding the scope's health monitor
// and flight log. A nil scope detaches (all sinks nil).
func (l *Link) AttachScope(sc *scope.Scope) {
	l.Obs = sc.Registry()
	l.Prof = sc.Prof()
	l.OnCSI = sc.CSIHook()
}

// NewLink wires up a link. The seed makes every measurement sequence
// reproducible. It returns an error for an invalid grid or environment.
// The environment is traced on first use, not here.
func NewLink(env *propagation.Environment, tx, rx *Radio, grid ofdm.Grid, arr *element.Array, seed uint64) (*Link, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if err := env.Validate(); err != nil {
		return nil, err
	}
	l := &Link{
		Env: env, TX: tx, RX: rx, Grid: grid, Array: arr,
		NumTraining: 4,
		rng:         rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
	}
	return l, nil
}

// Wavelength returns the carrier wavelength of the link's grid.
func (l *Link) Wavelength() float64 { return rfphys.Wavelength(l.Grid.CenterHz) }

// InvalidateEnvironment drops the link's channel model, which the next
// measurement re-traces and rebuilds. Call it after mutating Env (moving
// a blocker, adding scatterers), the TX or RX node (position, velocity,
// pattern), Grid, or any field of an array element.
// Swapping Array for another array is detected on its own, and Faults
// may change between calls freely: both are applied per measurement.
func (l *Link) InvalidateEnvironment() {
	l.model = nil
}

// TrueResponse returns the noiseless channel response under cfg at time t
// — ground truth for tests and for quantifying estimator error. It panics
// on an invalid cfg or fault plan, and on geometry that is not finite.
func (l *Link) TrueResponse(cfg element.Config, t float64) []complex128 {
	h, err := l.response(cfg, nil, false, t)
	if err != nil {
		panic(err)
	}
	return append([]complex128(nil), h...)
}

// channelModel returns the link's channel model, building it on first
// use and again after InvalidateEnvironment or an Array swap (which
// reuses the traced environment). Geometry that is not finite is an
// error, returned before anything is traced.
func (l *Link) channelModel() (*channel.Model, error) {
	if l.model != nil && l.model.Array() == l.Array {
		return l.model, nil
	}
	var prev []*channel.Model
	if l.model != nil {
		prev = []*channel.Model{l.model}
	}
	ms, err := channel.Build(l.Env, []propagation.Node{l.TX.Node}, []propagation.Node{l.RX.Node},
		l.Array, l.Grid, l.Prof, prev)
	if err != nil {
		return nil, err
	}
	l.model = ms[0]
	l.h = make([]complex128, l.Grid.NumUsed())
	return l.model, nil
}

// response evaluates the noiseless channel at time t into the link's
// scratch vector: under the discrete cfg with Faults applied or, when
// continuous is set, under the continuous phases. Discrete, faulted and
// continuous evaluation all run through here. Invalid input, including
// geometry that is not finite, is an error, returned before anything is
// evaluated.
func (l *Link) response(cfg element.Config, phases element.ContinuousConfig, continuous bool, t float64) ([]complex128, error) {
	if err := channel.ValidateSelection(l.Array, cfg, l.Faults, phases, continuous); err != nil {
		return nil, err
	}
	m, err := l.channelModel()
	if err != nil {
		return nil, err
	}
	sp := l.Prof.Start(prof.PhaseChannelSum)
	var vecs int
	if continuous {
		vecs = m.SumContinuous(l.h, phases, t)
	} else {
		vecs = m.Sum(l.h, cfg, l.Faults, t)
	}
	l.Prof.Add(prof.PhaseChannelSum, prof.AuxSubcarrierEvals, int64(len(l.h)))
	l.Prof.Add(prof.PhaseChannelSum, prof.AuxPathTerms, int64(vecs*len(l.h)))
	sp.End()
	return l.h, nil
}

// powers returns the transmit power allocated to each used subcarrier
// and the receiver noise power per subcarrier. They are cached on the
// link and recomputed whenever one of their inputs has changed since the
// last call (a NaN input never matches, so it is recomputed every time).
func (l *Link) powers() (txW, noiseW float64) {
	key := powerKey{l.TX.TxPowerDBm, l.RX.NoiseFigureDB, l.Grid.SpacingHz, l.Grid.NumUsed()}
	if !l.pow.set || l.pow.key != key {
		l.pow = powerCache{
			key: key, set: true,
			txW:   rfphys.DBmToWatts(key.txPowerDBm) / float64(key.numUsed),
			noise: rfphys.ThermalNoiseWatts(key.spacingHz, key.noiseFigureDB),
		}
	}
	return l.pow.txW, l.pow.noise
}

// MeasureCSI transmits one sounding frame under cfg at time t and returns
// the receiver's channel estimate: the simulated equivalent of the
// paper's "the receiver estimates the channel state information from the
// training sequences in the frame". An invalid cfg or fault plan, and a
// transmit power or noise figure that gives a non-finite or non-positive
// per-subcarrier power, is an error and draws no noise.
func (l *Link) MeasureCSI(cfg element.Config, t float64) (*ofdm.CSI, error) {
	return l.measure(cfg, nil, false, t)
}

// MeasureCSIContinuous is MeasureCSI for continuously-variable phase
// hardware (§4.1): the array contributes paths at arbitrary reflection
// phases instead of discrete stub states. Faults do not apply.
func (l *Link) MeasureCSIContinuous(phases element.ContinuousConfig, t float64) (*ofdm.CSI, error) {
	return l.measure(nil, phases, true, t)
}

// measure is the shared body of MeasureCSI and MeasureCSIContinuous.
func (l *Link) measure(cfg element.Config, phases element.ContinuousConfig, continuous bool, t float64) (*ofdm.CSI, error) {
	start := time.Time{}
	if l.Obs != nil {
		start = time.Now()
	}
	h, err := l.response(cfg, phases, continuous, t)
	if err != nil {
		return nil, err
	}
	if l.Obs != nil {
		l.Obs.Histogram("radio_channel_solve_seconds", obs.LatencyBuckets).
			ObserveDuration(time.Since(start))
		l.Obs.Counter("radio_csi_measurements_total").Inc()
	}
	return l.measureResponse(h)
}

// measureResponse simulates the sounding frame over a known true channel
// response and runs the receiver's estimator; the returned CSI is fresh.
func (l *Link) measureResponse(h []complex128) (*ofdm.CSI, error) {
	rx, txPw, noise, err := l.synthesize(h)
	if err != nil {
		return nil, err
	}
	csi, err := ofdm.EstimateProf(l.Prof, l.Grid, rx, l.train, txPw, noise)
	if err == nil && l.OnCSI != nil {
		l.OnCSI(csi.SNRdB)
	}
	return csi, err
}

// synthesize builds the received sounding frame over the true channel h
// and returns it with the per-subcarrier transmit and noise powers. The
// training sequence (l.train), the noiseless term and the frame are link
// scratch; the estimator keeps none of them. A power that is not finite
// and positive is an error, returned before any noise is drawn.
func (l *Link) synthesize(h []complex128) (rx [][]complex128, txPw, noise float64, err error) {
	txPw, noise = l.powers()
	if inf := math.Inf(1); !(0 < txPw && txPw < inf && 0 < noise && noise < inf) {
		return nil, 0, 0, fmt.Errorf("radio: TxPowerDBm %v and NoiseFigureDB %v give per-subcarrier powers %v W and %v W; both must be finite and positive",
			l.TX.TxPowerDBm, l.RX.NoiseFigureDB, txPw, noise)
	}
	if len(l.train) != len(h) { // the sequence depends only on the subcarrier count
		l.train = ofdm.TrainingSequence(l.Grid)
		l.clean = make([]complex128, len(h))
	}
	tx, clean := l.train[:len(h)], l.clean[:len(h)]

	amp := complex(math.Sqrt(txPw), 0)
	sigma := math.Sqrt(noise / 2)
	nSym := l.NumTraining
	if nSym < 1 {
		nSym = 1
	}
	sp := l.Prof.Start(prof.PhaseFrameSynth)
	// Every symbol repeats the training, so the noiseless term depends
	// only on the subcarrier; the noise is drawn symbol by symbol.
	for k, hk := range h {
		clean[k] = amp * hk * tx[k]
	}
	rx = l.frames(nSym, len(h))
	for _, row := range rx {
		row = row[:len(clean)]
		for k, c := range clean {
			n := complex(l.rng.NormFloat64()*sigma, l.rng.NormFloat64()*sigma)
			row[k] = c + n
		}
	}
	l.Prof.Add(prof.PhaseFrameSynth, prof.AuxSymbols, int64(nSym))
	sp.End()
	return rx, txPw, noise, nil
}

// frames returns the link's nSym × k received-frame scratch buffer.
func (l *Link) frames(nSym, k int) [][]complex128 {
	if len(l.rx) != nSym || len(l.rx[0]) != k {
		l.rx = make([][]complex128, nSym)
		for s := range l.rx {
			l.rx[s] = make([]complex128, k)
		}
	}
	return l.rx
}

// Measurement is one configuration's measured CSI within a sweep.
type Measurement struct {
	ConfigIdx int
	Config    element.Config
	CSI       *ofdm.CSI
	// At is the simulation time of the measurement; under Doppler the
	// channel decorrelates across a slow sweep, exactly the §2 problem.
	At time.Duration
	// TraceID correlates the measurement with its "radio"-track span in
	// the Chrome trace export; zero when the link's registry carries no
	// TraceLog (the default — IDs are process-unique, so assigning them
	// unconditionally would break bit-identical replays).
	TraceID uint64
}

// SNRCurves flattens measurements into per-config SNR vectors, the shape
// the statistics in internal/stats consume.
func SNRCurves(ms []Measurement) [][]float64 {
	out := make([][]float64, len(ms))
	for i, m := range ms {
		out[i] = m.CSI.SNRdB
	}
	return out
}

// Sweep measures every configuration of the link's array once, in
// mixed-radix order, advancing simulated time by the timing model between
// measurements. It errors on links without an array.
func (l *Link) Sweep(timing Timing, start time.Duration) ([]Measurement, error) {
	if l.Array == nil {
		return nil, fmt.Errorf("radio: Sweep needs a PRESS array on the link")
	}
	sp := obs.StartSpan(l.Obs, "radio/sweep")
	psp := l.Prof.Start(prof.PhaseSweep)
	wall := time.Time{}
	if l.Obs != nil {
		wall = time.Now()
	}
	n := l.Array.NumConfigs()
	out := make([]Measurement, 0, n)
	at := start
	tl := l.Obs.TraceLog()
	var sweepErr error
	l.Array.EachConfig(func(idx int, c element.Config) bool {
		var traceID uint64
		wallStart := time.Time{}
		if tl != nil {
			traceID = obs.NewTraceID()
			wallStart = time.Now()
		}
		csi, err := l.MeasureCSI(c, at.Seconds())
		if err != nil {
			sweepErr = fmt.Errorf("radio: config %d: %w", idx, err)
			return false
		}
		if tl != nil {
			tl.Record("radio", "radio/measure", traceID, wallStart, time.Since(wallStart),
				map[string]any{"config": idx, "at_s": at.Seconds()})
		}
		out = append(out, Measurement{ConfigIdx: idx, Config: c.Clone(), CSI: csi, At: at, TraceID: traceID})
		at += timing.PerMeasurement + timing.SwitchLatency
		return true
	})
	l.Prof.Add(prof.PhaseSweep, prof.AuxConfigs, int64(len(out)))
	psp.End()
	sp.End()
	if sweepErr != nil {
		return nil, sweepErr
	}
	if l.Obs != nil {
		l.Obs.Counter("radio_sweeps_total").Inc()
		l.Obs.Histogram("radio_sweep_seconds", obs.LatencyBuckets).
			ObserveDuration(time.Since(wall))
	}
	return out, nil
}

// SweepTrials repeats Sweep `trials` times back-to-back — the paper's
// "we iterate through the 64 combinations 10 times and calculate
// statistics" — returning one measurement slice per trial.
func (l *Link) SweepTrials(timing Timing, trials int) ([][]Measurement, error) {
	if trials < 1 {
		return nil, fmt.Errorf("radio: trials must be positive")
	}
	out := make([][]Measurement, trials)
	var at time.Duration
	for tr := 0; tr < trials; tr++ {
		ms, err := l.Sweep(timing, at)
		if err != nil {
			return nil, err
		}
		out[tr] = ms
		at = ms[len(ms)-1].At + timing.PerMeasurement + timing.SwitchLatency
	}
	return out, nil
}
