package experiments

import (
	"path/filepath"
	"testing"

	"press/internal/element"
	"press/internal/obs/flight"
	"press/internal/obs/prof"
	"press/internal/obs/scope"
)

// TestSearchRunsCoverage records closed-loop experiments under a
// flight-recording scope with phase accounting and checks the hotspot
// report `pressctl hotspots` would print: every sounding, the PRESS-off
// baseline's included, is scored under the search_eval root, so the
// leaf phases never outrun the root wall clock (coverage ≤ 100 %) and
// the root wall clock is not empty.
func TestSearchRunsCoverage(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"controlplane", func() error { _, err := RunControlPlaneComparison(0); return err }},
		{"faults", func() error {
			_, _, err := faultGains(0, element.Faults{0: {Kind: element.StuckAt, State: 2}, 1: {Kind: element.Dead}})
			return err
		}},
		{"arrayscale", func() error { _, err := RunArrayScaling(0, []int{4, 8}, 60); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "run")
			rec, err := flight.Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			pc := prof.NewCollector()
			SetScope(scope.Adopt("", nil, nil, nil, rec, pc))
			defer SetScope(nil)
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
			for _, c := range pc.Snapshot() {
				rec.RecordPhaseCost(c)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			run, err := flight.ReadRun(dir)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := prof.BuildReport(run)
			if err != nil {
				t.Fatal(err)
			}
			if rep.WallNs <= 0 || rep.Coverage > 1 {
				t.Errorf("hotspot coverage %.1f%%: %.3f ms of leaf time under %.3f ms of root wall clock",
					100*rep.Coverage, float64(rep.AttributedNs)/1e6, float64(rep.WallNs)/1e6)
			}
			// Coverage depends on timings; the count it rests on does not.
			var scored, soundings int64
			for _, p := range rep.Phases {
				switch p.Phase {
				case prof.PhaseSearch.Name():
					scored = p.Aux["configs_scored"]
				case prof.PhaseChannelSum.Name():
					soundings = p.Calls
				}
			}
			if scored != soundings || soundings != int64(len(run.CSI)) {
				t.Errorf("%d configurations scored under search_eval, %d channel sums, %d CSI records; want all equal",
					scored, soundings, len(run.CSI))
			}
		})
	}
}
