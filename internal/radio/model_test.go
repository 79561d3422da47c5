package radio

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"
	"time"

	"press/internal/element"
	"press/internal/fpexact"
	"press/internal/geom"
	"press/internal/obs"
	"press/internal/obs/prof"
	"press/internal/ofdm"
	"press/internal/propagation"
	"press/internal/rfphys"
)

// The link's channel model is checked against the per-path reference,
// propagation.Response over Link.paths: bit for bit on static links, to
// dopplerTol relative (max error over max |H|) when a path moves.
const dopplerTol = 1e-12

// paths returns the per-path reference's path set under cfg: the traced
// environment paths plus the array's switched paths, with Faults applied.
// A nil array yields the bare environment. It panics on an invalid cfg.
func (l *Link) paths(cfg element.Config) []propagation.Path {
	out := propagation.TracePaths(l.Env, l.TX.Node, l.RX.Node, l.Wavelength())
	if l.Array == nil {
		return out
	}
	if len(l.Faults) > 0 {
		return append(out, l.Array.PathsWithFaults(l.Env, l.TX.Node, l.RX.Node, cfg, l.Faults, l.Wavelength())...)
	}
	return append(out, l.Array.Paths(l.Env, l.TX.Node, l.RX.Node, cfg, l.Wavelength())...)
}

// motion selects what moves on a random link.
type motion int

const (
	still motion = iota
	movingTX
	movingRX
	movingScatterer
)

func (m motion) String() string {
	return [...]string{"static", "moving-tx", "moving-rx", "moving-scatterer"}[m]
}

func randIn(rng *rand.Rand, lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }

func randPos(rng *rand.Rand, room geom.Room) geom.Vec {
	return geom.V(randIn(rng, 0.3, room.Size.X-0.3), randIn(rng, 0.3, room.Size.Y-0.3), randIn(rng, 0.3, room.Size.Z-0.3))
}

func randVelocity(rng *rand.Rand) geom.Vec {
	return geom.V(randIn(rng, -2, 2), randIn(rng, -2, 2), randIn(rng, -0.5, 0.5))
}

// randomLink builds a link in a random room: random size, reflection
// order, scatterers and blocker, endpoint and element placement, element
// kinds and switch banks.
func randomLink(t *testing.T, rng *rand.Rand, m motion) *Link {
	t.Helper()
	env := propagation.NewEnvironment(randIn(rng, 4, 12), randIn(rng, 4, 10), randIn(rng, 2.5, 4))
	env.MaxOrder = rng.IntN(3)
	env.AddScatterers(rng, rng.IntN(8), randIn(rng, 10, 40))
	if rng.IntN(2) == 0 {
		lo := randPos(rng, env.Room)
		env.Blockers = append(env.Blockers, geom.NewBlocker(lo, lo.Add(geom.V(0.3, 0.6, 1.5)), randIn(rng, 5, 35)))
	}
	omni := rfphys.Omni{PeakGainDBi: 2}
	tx := &Radio{Node: propagation.Node{Pos: randPos(rng, env.Room), Pattern: omni}, TxPowerDBm: 15, NoiseFigureDB: 6}
	rx := &Radio{Node: propagation.Node{Pos: randPos(rng, env.Room), Pattern: omni}, NoiseFigureDB: 6}
	switch m {
	case movingTX:
		tx.Node.Velocity = randVelocity(rng)
	case movingRX:
		rx.Node.Velocity = randVelocity(rng)
	case movingScatterer:
		if len(env.Scatterers) == 0 {
			env.AddScatterers(rng, 1, 30)
		}
		env.Scatterers[rng.IntN(len(env.Scatterers))].Velocity = randVelocity(rng)
	}
	elems := make([]*element.Element, 1+rng.IntN(6))
	for i := range elems {
		pos := randPos(rng, env.Room)
		switch rng.IntN(3) {
		case 0:
			elems[i] = element.NewParabolicElement(pos, rx.Node.Pos)
		case 1:
			elems[i] = element.NewOmniElement(pos)
		default:
			elems[i] = element.NewActiveElement(pos, randIn(rng, 3, 20))
		}
		if rng.IntN(3) == 0 {
			elems[i].States = element.FourPhaseStates()
		}
	}
	grid := ofdm.WiFi20()
	if rng.IntN(2) == 0 {
		grid = ofdm.USRP102()
	}
	l, err := NewLink(env, tx, rx, grid, element.NewArray(elems...), rng.Uint64())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func randConfig(rng *rand.Rand, arr *element.Array) element.Config {
	c := make(element.Config, arr.N())
	for i, e := range arr.Elements {
		c[i] = rng.IntN(e.NumStates())
	}
	return c
}

func randFaults(rng *rand.Rand, arr *element.Array) element.Faults {
	if rng.IntN(2) == 0 {
		return nil
	}
	f := element.Faults{}
	for i, e := range arr.Elements {
		switch rng.IntN(4) {
		case 0:
			f[i] = element.Fault{Kind: element.StuckAt, State: rng.IntN(e.NumStates())}
		case 1:
			f[i] = element.Fault{Kind: element.Dead}
		}
	}
	return f
}

func randPhases(rng *rand.Rand, n int) element.ContinuousConfig {
	c := make(element.ContinuousConfig, n)
	for i := range c {
		if rng.IntN(4) == 0 {
			c[i] = element.Off
		} else {
			c[i] = randIn(rng, -2*math.Pi, 4*math.Pi)
		}
	}
	return c
}

// checkResponse compares got with want: exactly when exact is set,
// otherwise to dopplerTol relative.
func checkResponse(t *testing.T, what string, got, want []complex128, exact bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d subcarriers, want %d", what, len(got), len(want))
	}
	var maxErr, scale float64
	for k := range want {
		if exact && got[k] != want[k] {
			t.Fatalf("%s: subcarrier %d = %v, reference %v", what, k, got[k], want[k])
		}
		maxErr = math.Max(maxErr, cmplx.Abs(got[k]-want[k]))
		scale = math.Max(scale, cmplx.Abs(want[k]))
	}
	if maxErr > dopplerTol*scale {
		t.Fatalf("%s: max error %.3g, %.3g of max |H|", what, maxErr, maxErr/scale)
	}
}

func TestBasisMatchesReference(t *testing.T) {
	exact := !fpexact.Contracts()
	rng := rand.New(rand.NewPCG(2017, 1))
	for trial := 0; trial < 40; trial++ {
		m := motion(trial % 4)
		l := randomLink(t, rng, m)
		freqs := l.Grid.Frequencies()
		envPaths := propagation.TracePaths(l.Env, l.TX.Node, l.RX.Node, l.Wavelength())
		for c := 0; c < 8; c++ {
			tt := 0.0
			if c > 0 {
				tt = randIn(rng, 0, 5)
			}
			cfg := randConfig(rng, l.Array)
			l.Faults = randFaults(rng, l.Array)
			want := propagation.Response(l.paths(cfg), freqs, tt)
			checkResponse(t, m.String()+" discrete", l.TrueResponse(cfg, tt), want, exact && m == still)

			l.Faults = nil
			phases := randPhases(rng, l.Array.N())
			paths := append(append([]propagation.Path(nil), envPaths...),
				l.Array.ContinuousPaths(l.Env, l.TX.Node, l.RX.Node, phases, l.Wavelength())...)
			got, err := l.response(nil, phases, true, tt)
			if err != nil {
				t.Fatal(err)
			}
			checkResponse(t, m.String()+" continuous", got, propagation.Response(paths, freqs, tt), exact && m == still)
		}
	}
}

func TestBasisMIMOMatchesReference(t *testing.T) {
	exact := !fpexact.Contracts()
	rng := rand.New(rand.NewPCG(2017, 2))
	for trial := 0; trial < 6; trial++ {
		moving := trial%2 == 1
		ml := mimoTestbed(t, uint64(trial))
		if moving {
			ml.RXAnts[0].Velocity = randVelocity(rng)
			ml.TXAnts[1].Velocity = randVelocity(rng)
			ml = rebuildMIMO(t, ml)
		}
		lambda := rfphys.Wavelength(ml.Grid.CenterHz)
		freqs := ml.Grid.Frequencies()
		for c := 0; c < 4; c++ {
			cfg := randConfig(rng, ml.Array)
			tt := randIn(rng, 0, 5)
			ch, err := ml.TrueChannel(cfg, tt)
			if err != nil {
				t.Fatal(err)
			}
			for i, rx := range ml.RXAnts {
				for j, tx := range ml.TXAnts {
					paths := append(propagation.TracePaths(ml.Env, tx, rx, lambda),
						ml.Array.Paths(ml.Env, tx, rx, cfg, lambda)...)
					got := make([]complex128, len(freqs))
					for k := range got {
						got[k] = ch.Matrices[k].At(i, j)
					}
					checkResponse(t, "mimo pair", got, propagation.Response(paths, freqs, tt), exact && !moving)
				}
			}
		}
		if _, err := ml.TrueChannel(element.Config{0, 9, 0}, 0); err == nil {
			t.Fatal("MIMO link accepted an out-of-range state")
		}
	}
}

// rebuildMIMO re-creates a MIMO link after its antennas were edited, so
// the cached environment paths see the new nodes.
func rebuildMIMO(t *testing.T, ml *MIMOLink) *MIMOLink {
	t.Helper()
	out, err := NewMIMOLink(ml.Env, ml.TXAnts, ml.RXAnts, ml.Grid, ml.Array, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestBasisAllTerminatedIsEnvironment(t *testing.T) {
	rng := rand.New(rand.NewPCG(2017, 3))
	for trial := 0; trial < 8; trial++ {
		l := randomLink(t, rng, motion(trial%4))
		for _, e := range l.Array.Elements {
			e.States = element.SP4TStates() // every element needs a Terminate state
		}
		l.InvalidateEnvironment()
		term, ok := l.Array.AllTerminated()
		if !ok {
			t.Fatal("SP4T array has no all-terminated configuration")
		}
		tt := randIn(rng, 0, 5)
		got := l.TrueResponse(term, tt)
		bare := *l
		bare.Array = nil
		// The same table evaluation with no elements: equal bit for bit.
		checkResponse(t, "all-terminated vs bare", got, bare.TrueResponse(nil, tt), true)
		env := propagation.TracePaths(l.Env, l.TX.Node, l.RX.Node, l.Wavelength())
		checkResponse(t, "all-terminated vs reference", got,
			propagation.Response(env, l.Grid.Frequencies(), tt), !fpexact.Contracts() && trial%4 == 0)
	}
}

// TestEnvironmentTracedOnce checks the environment trace's cache
// lifecycle: NewLink does not trace, an invalidation before the first
// measurement costs no trace, the first model build traces once, an Array
// swap reuses the trace, each build makes one geometric path per element,
// and the trace's path_trace span does not nest inside the build's when
// Env and the link share one collector.
func TestEnvironmentTracedOnce(t *testing.T) {
	l := testbed(t, 43)
	if l.model != nil {
		t.Fatal("NewLink built the channel model")
	}
	reg, pc := obs.NewRegistry(), prof.NewCollector()
	l.Env.Obs, l.Env.Prof, l.Prof = reg, pc, pc
	traces := reg.Counter("propagation_traces_total")
	l.RX.Node.Velocity = geom.V(1.2, 0, 0)
	l.InvalidateEnvironment()

	start := time.Now()
	if _, err := l.channelModel(); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	if n := traces.Value(); n != 1 {
		t.Fatalf("first build traced %d times, want 1", n)
	}
	// One element geometry per element, shared by its four states.
	elems := reg.Counter("propagation_element_paths_total")
	if n := elems.Value(); n != int64(l.Array.N()) {
		t.Errorf("first build built %d element paths for %d elements", n, l.Array.N())
	}
	for _, c := range pc.Snapshot() {
		if c.Phase != prof.PhaseTrace.Name() {
			continue
		}
		if c.Calls != 2 {
			t.Errorf("path_trace closed %d spans, want 2 (trace, build)", c.Calls)
		}
		// Disjoint spans inside the timed call sum to at most its wall
		// time; a nested trace span would be counted twice.
		if time.Duration(c.Ns) > wall {
			t.Errorf("path_trace accounted %v during a %v build", time.Duration(c.Ns), wall)
		}
	}

	l.Array = element.NewArray(element.NewOmniElement(geom.V(2, 1, 1.4)))
	if _, err := l.MeasureCSI(element.Config{0}, 0); err != nil {
		t.Fatal(err)
	}
	if n := traces.Value(); n != 1 {
		t.Errorf("Array swap re-traced the environment (%d traces)", n)
	}
	if n := elems.Value(); n != 4 {
		t.Errorf("%d element paths after swapping in a 1-element array, want 3+1", n)
	}
}

// TestMIMOEnvironmentTracedOnce is TestEnvironmentTracedOnce's count
// check for a MIMO link: one trace per antenna pair, on first use only.
func TestMIMOEnvironmentTracedOnce(t *testing.T) {
	ml := mimoTestbed(t, 44)
	reg := obs.NewRegistry()
	ml.Env.Obs = reg
	traces := reg.Counter("propagation_traces_total")
	pairs := int64(len(ml.RXAnts) * len(ml.TXAnts))
	if _, err := ml.TrueChannel(element.Config{0, 1, 2}, 0); err != nil {
		t.Fatal(err)
	}
	if n := traces.Value(); n != pairs {
		t.Fatalf("first evaluation traced %d times, want %d", n, pairs)
	}
	if n, want := reg.Counter("propagation_element_paths_total").Value(), pairs*int64(ml.Array.N()); n != want {
		t.Errorf("first evaluation built %d element paths, want %d (one per element and pair)", n, want)
	}
	ml.Array = element.NewArray(element.NewOmniElement(geom.V(5.5, 6, 1.5)))
	if _, err := ml.TrueChannel(element.Config{1}, 0); err != nil {
		t.Fatal(err)
	}
	if n := traces.Value(); n != pairs {
		t.Errorf("Array swap re-traced the environment (%d traces)", n)
	}
}

func TestBasisRebuilds(t *testing.T) {
	l := testbed(t, 41)
	cfg := element.Config{0, 1, 2}
	static := l.TrueResponse(cfg, 1)
	built := l.model

	// A velocity change needs InvalidateEnvironment; afterwards the model
	// is rebuilt and follows the moving receiver.
	l.RX.Node.Velocity = geom.V(1.2, 0, 0)
	l.InvalidateEnvironment()
	moving := l.TrueResponse(cfg, 1)
	if l.model == built {
		t.Fatal("InvalidateEnvironment kept the old model")
	}
	checkResponse(t, "after velocity change", moving,
		propagation.Response(l.paths(cfg), l.Grid.Frequencies(), 1), false)
	same := true
	for k := range static {
		same = same && static[k] == moving[k]
	}
	if same {
		t.Fatal("moving receiver left the channel unchanged at t=1")
	}

	// Swapping the array is detected without a call.
	built = l.model
	l.Array = element.NewArray(
		element.NewOmniElement(geom.V(2, 1, 1.4)),
		element.NewOmniElement(geom.V(3, 4, 1.4)),
		element.NewOmniElement(geom.V(5, 2, 2)),
	)
	got := l.TrueResponse(cfg, 0.5)
	if l.model == built {
		t.Fatal("array swap kept the old model")
	}
	checkResponse(t, "after array swap", got,
		propagation.Response(l.paths(cfg), l.Grid.Frequencies(), 0.5), false)
}

// TestMeasureDegenerateInputs: invalid input is an error, never a panic,
// and draws no noise — the next valid sounding matches a fresh link's
// first. Rows with phases measure continuously.
func TestMeasureDegenerateInputs(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name   string
		cfg    element.Config
		faults element.Faults
		phases element.ContinuousConfig
	}{
		{name: "config too short", cfg: element.Config{0, 0}},
		{name: "state out of range", cfg: element.Config{0, 9, 0}},
		{name: "negative state", cfg: element.Config{-1, 0, 0}},
		{name: "fault on missing element", cfg: element.Config{0, 0, 0}, faults: element.Faults{7: {Kind: element.Dead}}},
		{name: "stuck at invalid state", cfg: element.Config{0, 0, 0}, faults: element.Faults{0: {Kind: element.StuckAt, State: 9}}},
		{name: "+Inf phase", phases: element.ContinuousConfig{inf, 0, 0}},
		{name: "-Inf phase", phases: element.ContinuousConfig{0, -inf, 0}},
		{name: "continuous too long", phases: element.ContinuousConfig{0, 0, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := testbed(t, 42)
			l.Faults = tc.faults
			var err error
			if tc.phases != nil {
				_, err = l.MeasureCSIContinuous(tc.phases, 0)
			} else {
				_, err = l.MeasureCSI(tc.cfg, 0)
			}
			if err == nil {
				t.Fatal("accepted")
			}
			l.Faults = nil
			got, err := l.MeasureCSI(element.Config{0, 1, 2}, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := testbed(t, 42).MeasureCSI(element.Config{0, 1, 2}, 0)
			if err != nil {
				t.Fatal(err)
			}
			for k := range want.SNRdB {
				if got.SNRdB[k] != want.SNRdB[k] {
					t.Fatalf("rejected input consumed noise: subcarrier %d %v vs %v", k, got.SNRdB[k], want.SNRdB[k])
				}
			}
		})
	}
}

// TestElementOnEndpoint: an element sitting exactly on the TX or RX
// contributes no path, and the link still measures a finite channel.
func TestElementOnEndpoint(t *testing.T) {
	l := testbed(t, 43)
	l.Array = element.NewArray(
		element.NewOmniElement(l.TX.Node.Pos),
		element.NewOmniElement(l.RX.Node.Pos),
		element.NewOmniElement(geom.V(3, 1, 1.4)),
	)
	check := func(what string, csi *ofdm.CSI, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if s := csi.MinSNRdB(); math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("%s: min SNR %v", what, s)
		}
	}
	l.Array.EachConfig(func(_ int, c element.Config) bool {
		csi, err := l.MeasureCSI(c, 0)
		check("discrete", csi, err)
		return true
	})
	csi, err := l.MeasureCSIContinuous(element.ContinuousConfig{0.3, 1.1, element.Off}, 0)
	check("continuous", csi, err)
	// Switching an endpoint element between a reflective state and
	// terminate leaves the channel unchanged, bit for bit.
	term, _ := l.Array.AllTerminated()
	off := l.TrueResponse(term, 0)
	for i := 0; i < 2; i++ {
		if l.model.Unit(i) != nil {
			t.Errorf("element %d on an endpoint has a unit-reflection path", i)
		}
		on := term.Clone()
		on[i] = 0
		for k, h := range l.TrueResponse(on, 0) {
			if h != off[k] {
				t.Fatalf("element %d on an endpoint has a path: subcarrier %d %v, terminated %v", i, k, h, off[k])
			}
		}
	}
}

// TestDegenerateGeometryRejected: a room size, an endpoint position or
// velocity, an element position, or a scatterer velocity or gain that is
// not finite, an endpoint not strictly inside the room, or an element
// outside it is an error on SISO and MIMO links alike, never CSI with a
// nil error. The check
// runs when the model is built, before any trace or noise draw: once the
// geometry is restored, the link measures what a fresh link of the same
// seed measures. A SISO link is edited after its first sounding (and
// invalidated), a MIMO link before its first, as each documents.
func TestDegenerateGeometryRejected(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// geometry points at what a case edits: the environment, one TX and
	// one RX node, and the array.
	type geometry struct {
		env    *propagation.Environment
		tx, rx *propagation.Node
		arr    *element.Array
	}
	cases := []struct {
		name string
		edit func(g geometry)
	}{
		{"NaN TX position", func(g geometry) { g.tx.Pos.X = nan }},
		{"+Inf RX position", func(g geometry) { g.rx.Pos.Z = inf }},
		{"NaN TX velocity", func(g geometry) { g.tx.Velocity.Y = nan }},
		{"-Inf RX velocity", func(g geometry) { g.rx.Velocity.X = -inf }},
		{"NaN element position", func(g geometry) { g.arr.Elements[1].Pos.Y = nan }},
		{"+Inf element position", func(g geometry) { g.arr.Elements[2].Pos.X = inf }},
		{"NaN room height", func(g geometry) { g.env.Room.Size.Z = nan }},
		{"+Inf room length", func(g geometry) { g.env.Room.Size.X = inf }},
		{"zero room", func(g geometry) { g.env.Room = geom.Room{} }},
		{"NaN scatterer velocity", func(g geometry) { g.env.Scatterers[0].Velocity.X = nan }},
		{"+Inf scatterer velocity", func(g geometry) { g.env.Scatterers[1].Velocity.Z = inf }},
		{"NaN scatterer gain", func(g geometry) { g.env.Scatterers[2].Gain = complex(nan, 0) }},
		{"-Inf scatterer gain", func(g geometry) { g.env.Scatterers[0].Gain = complex(1, -inf) }},
		{"TX behind a wall", func(g geometry) { g.tx.Pos.X = -3 }},
		{"TX 100 m outside", func(g geometry) { g.tx.Pos = geom.V(106, 105, 1.5) }},
		{"TX on the wall", func(g geometry) { g.tx.Pos.X = 0 }},
		{"element outside", func(g geometry) { g.arr.Elements[0].Pos.Z = -0.5 }},
	}
	// snapshot returns a function that restores everything a case edits.
	snapshot := func(g geometry) func() {
		room, tx, rx := g.env.Room, *g.tx, *g.rx
		scat := append([]propagation.Scatterer(nil), g.env.Scatterers...)
		pos := make([]geom.Vec, g.arr.N())
		for i, e := range g.arr.Elements {
			pos[i] = e.Pos
		}
		return func() {
			g.env.Room, *g.tx, *g.rx = room, tx, rx
			copy(g.env.Scatterers, scat)
			for i, e := range g.arr.Elements {
				e.Pos = pos[i]
			}
		}
	}
	cfg := element.Config{0, 1, 2}
	for _, tc := range cases {
		t.Run("siso/"+tc.name, func(t *testing.T) {
			l, fresh := testbed(t, 42), testbed(t, 42)
			g := geometry{l.Env, &l.TX.Node, &l.RX.Node, l.Array}
			for _, x := range []*Link{l, fresh} {
				if _, err := x.MeasureCSI(cfg, 0); err != nil {
					t.Fatal(err)
				}
			}
			restore := snapshot(g)
			tc.edit(g)
			l.InvalidateEnvironment()
			if csi, err := l.MeasureCSI(cfg, 0.1); err == nil {
				t.Fatalf("MeasureCSI accepted: min SNR %v dB", csi.MinSNRdB())
			}
			if csi, err := l.MeasureCSIContinuous(element.ContinuousConfig{0.3, 1.2, element.Off}, 0.1); err == nil {
				t.Fatalf("MeasureCSIContinuous accepted: min SNR %v dB", csi.MinSNRdB())
			}
			restore()
			l.InvalidateEnvironment()
			got, err := l.MeasureCSI(cfg, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.MeasureCSI(cfg, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			if !sameCSI(got, want) {
				t.Fatal("the rejected measurement consumed noise or left state behind")
			}
		})
		t.Run("mimo/"+tc.name, func(t *testing.T) {
			ml, fresh := mimoTestbed(t, 42), mimoTestbed(t, 42)
			g := geometry{ml.Env, &ml.TXAnts[0], &ml.RXAnts[1], ml.Array}
			restore := snapshot(g)
			tc.edit(g)
			if _, err := ml.MeasureChannel(cfg, 0); err == nil {
				t.Fatal("MeasureChannel accepted")
			}
			if _, err := ml.MeasureAveraged(cfg, 5, PrototypeTiming, 0); err == nil {
				t.Fatal("MeasureAveraged accepted")
			}
			restore()
			got, err := ml.MeasureChannel(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.MeasureChannel(cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			for k, m := range want.Matrices {
				if d := got.Matrices[k].MaxAbsDiff(m); d != 0 {
					t.Fatalf("subcarrier %d differs by %g: the rejected measurement consumed noise", k, d)
				}
			}
		})
	}
	// A room that is not finite and positive is rejected when the link is
	// made, as well: Validate is the one room check, whether the room
	// came from NewEnvironment or is a literal geom.Room{}.
	rooms := map[string]*propagation.Environment{
		"NaN height":  propagation.NewEnvironment(14, 10, nan),
		"+Inf length": propagation.NewEnvironment(inf, 10, 3),
		"zero room":   {MaxOrder: 2},
	}
	for name, env := range rooms {
		if err := env.Validate(); err == nil {
			t.Errorf("%s: Validate accepted room %v", name, env.Room.Size)
		}
		node := []propagation.Node{{Pos: geom.V(1, 1, 1)}}
		if _, err := NewLink(env, &Radio{Node: node[0]}, &Radio{Node: node[0]}, ofdm.WiFi20(), nil, 1); err == nil {
			t.Errorf("%s: NewLink accepted", name)
		}
		if _, err := NewMIMOLink(env, node, node, ofdm.WiFi20(), nil, 1); err == nil {
			t.Errorf("%s: NewMIMOLink accepted", name)
		}
	}
	// Elements are wall-mounted: one on the boundary is inside the room.
	l, ml := testbed(t, 42), mimoTestbed(t, 42)
	l.Array.Elements[0].Pos.X = 0
	ml.Array.Elements[0].Pos.Z = ml.Env.Room.Size.Z
	if _, err := l.MeasureCSI(cfg, 0); err != nil {
		t.Errorf("element on a wall: %v", err)
	}
	if _, err := ml.MeasureChannel(cfg, 0); err != nil {
		t.Errorf("element on the ceiling: %v", err)
	}
}
