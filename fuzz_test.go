package press_test

import (
	"math"
	"testing"
	"time"

	"press"
)

// TestNewSpaceRejectsBadRoom: a room that is not finite and positive
// comes back from NewSpace as an error — zero and negative sizes take
// the same path as NaN and infinite ones.
func TestNewSpaceRejectsBadRoom(t *testing.T) {
	arr := press.NewArray(press.NewOmniElement(press.V(1, 1, 1)))
	for name, size := range map[string][3]float64{
		"0x0x0":    {0, 0, 0},
		"negative": {-6, 5, 3},
		"NaN":      {6, math.NaN(), 3},
		"+Inf":     {math.Inf(1), 5, 3},
	} {
		env := press.NewEnvironment(size[0], size[1], size[2])
		if _, err := press.NewSpace(env, arr, 1); err == nil {
			t.Errorf("%s room: NewSpace accepted it", name)
		}
	}
}

// fuzzDeadline bounds one input: two elements of at most four phase
// states plus termination, over at most eight subcarriers, search in
// milliseconds.
const fuzzDeadline = 10 * time.Second

// FuzzPublicAPI drives the public constructors end to end —
// NewEnvironment, NewSpace, AddLink, Optimize with MaxMinSNR — over room
// sizes, node and element positions, element states, grid parameters
// and transmit power, NaN and ±Inf included. The contract: an error,
// or a finite score, within fuzzDeadline; never a panic.
func FuzzPublicAPI(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	type seed struct {
		rx, ry, rz, tx, ty, tz, cx, cy, cz, ex, ey, ez, phase, centerHz, spacingHz, txDBm float64
		states, used                                                                      uint8
		off                                                                               bool
	}
	for _, s := range []seed{
		{12, 9, 3, 4.75, 4.5, 1.5, 7.25, 4.7, 1.3, 6, 3.2, 1.5, 0.5, 2.462e9, 312.5e3, 15, 4, 8, true},
		{0, 0, 0, 1, 1, 1, 2, 2, 2, 1, 2, 1, 0, 2.462e9, 312.5e3, 15, 4, 8, true},
		{-6, 5, 3, 1, 1, 1, 2, 2, 2, 1, 2, 1, 0, 2.462e9, 312.5e3, 15, 4, 8, false},
		{nan, 9, 3, 1, 1, 1, 2, 2, 2, 1, 2, 1, 0, 2.462e9, 312.5e3, 15, 1, 1, false},
		{12, 9, 3, 4, 4, 1, 4, 4, 1, 4, 4, 1, 0, 2.462e9, 312.5e3, 15, 2, 4, true},
		{12, 9, 3, 4, 4, 1, 7, 4, 1, nan, 3, 1, nan, 2.462e9, 312.5e3, 15, 4, 8, true},
		{12, 9, 3, 4, 4, 1, inf, 4, 1, 6, 3, 1, 0, 2.462e9, 312.5e3, 15, 3, 2, false},
		{12, 9, 3, 4, 4, 1, 7, 4, 1, 6, 3, 1, 0, -1, 0, nan, 4, 0, true},
		{12, 9, 3, 4, 4, 1, 7, 4, 1, 6, 3, 1, 0, inf, 312.5e3, -inf, 4, 8, true},
	} {
		f.Add(s.rx, s.ry, s.rz, s.tx, s.ty, s.tz, s.cx, s.cy, s.cz, s.ex, s.ey, s.ez,
			s.phase, s.centerHz, s.spacingHz, s.txDBm, s.states, s.used, s.off)
	}
	f.Fuzz(func(t *testing.T, rx, ry, rz, tx, ty, tz, cx, cy, cz, ex, ey, ez,
		phase, centerHz, spacingHz, txDBm float64, states, used uint8, off bool) {
		client := press.V(cx, cy, cz)
		bank := append(press.NPhaseStates(1+int(states%4), off), press.State{PhaseRad: phase})
		e1 := press.NewParabolicElement(press.V(ex, ey, ez), client)
		e1.States = bank
		e2 := press.NewOmniElement(press.V(ex+0.5, ey, ez))
		e2.States = bank[:len(bank)-1]
		grid := press.Grid{CenterHz: centerHz, SpacingHz: spacingHz}
		for k := 1; k <= int(used%9); k++ {
			grid.Used = append(grid.Used, k)
		}

		type result struct {
			score float64
			err   error
		}
		done := make(chan result, 1)
		go func() {
			score, err := optimizeOnce(press.NewEnvironment(rx, ry, rz), press.NewArray(e1, e2),
				&press.Radio{Node: press.Node{Pos: press.V(tx, ty, tz)}, TxPowerDBm: txDBm, NoiseFigureDB: 6},
				&press.Radio{Node: press.Node{Pos: client}, NoiseFigureDB: 6}, grid)
			done <- result{score, err}
		}()
		select {
		case r := <-done:
			if r.err == nil && (math.IsNaN(r.score) || math.IsInf(r.score, 0)) {
				t.Fatalf("Optimize returned a non-finite score %v and no error", r.score)
			}
		case <-time.After(fuzzDeadline):
			t.Fatalf("no result within %v", fuzzDeadline)
		}
	})
}

// optimizeOnce builds a space with one link and optimizes it for the
// worst subcarrier's SNR, returning the best score.
func optimizeOnce(env *press.Environment, arr *press.Array, tx, rx *press.Radio, grid press.Grid) (float64, error) {
	space, err := press.NewSpace(env, arr, 1)
	if err != nil {
		return 0, err
	}
	if _, err := space.AddLink("link", tx, rx, grid); err != nil {
		return 0, err
	}
	out, err := space.Optimize(
		[]press.Goal{{Link: "link", Objective: press.MaxMinSNR{}}},
		press.OptimizeOptions{Budget: 32},
	)
	if err != nil {
		return 0, err
	}
	return out.BestScore, nil
}
