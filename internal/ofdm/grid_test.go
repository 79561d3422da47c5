package ofdm

import (
	"math"
	"testing"
)

func TestWiFi20Grid(t *testing.T) {
	g := WiFi20()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumUsed() != 52 {
		t.Errorf("used subcarriers = %d, want 52", g.NumUsed())
	}
	if g.CenterHz != 2.462e9 {
		t.Errorf("center = %v, want channel 11 (2.462 GHz)", g.CenterHz)
	}
	if g.SpacingHz != 312.5e3 {
		t.Errorf("spacing = %v, want 312.5 kHz", g.SpacingHz)
	}
	// DC is unused.
	for _, k := range g.Used {
		if k == 0 {
			t.Error("DC subcarrier should be unused")
		}
	}
	// Occupied band ≈ 16.5 MHz inside the 20 MHz channel.
	if bw := g.BandwidthHz(); bw < 16e6 || bw > 17e6 {
		t.Errorf("bandwidth = %v", bw)
	}
}

func TestUSRP102Grid(t *testing.T) {
	g := USRP102()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumUsed() != 102 {
		t.Errorf("used subcarriers = %d, want 102 (Figure 7's x-axis)", g.NumUsed())
	}
}

func TestFrequenciesAscending(t *testing.T) {
	g := WiFi20()
	fs := g.Frequencies()
	if len(fs) != 52 {
		t.Fatalf("len = %d", len(fs))
	}
	for i := 1; i < len(fs); i++ {
		if fs[i] <= fs[i-1] {
			t.Fatalf("frequencies not ascending at %d", i)
		}
	}
	// First used subcarrier: center - 26·spacing.
	want := 2.462e9 - 26*312.5e3
	if math.Abs(fs[0]-want) > 1 {
		t.Errorf("first frequency = %v, want %v", fs[0], want)
	}
	// The DC gap: offsets -1 and +1 are 2 spacings apart.
	mid := len(fs) / 2
	if gap := fs[mid] - fs[mid-1]; math.Abs(gap-2*312.5e3) > 1 {
		t.Errorf("DC gap = %v, want %v", gap, 2*312.5e3)
	}
}

func TestGridValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		g    Grid
	}{
		{"descending Used", Grid{CenterHz: 2.4e9, SpacingHz: 312.5e3, Used: []int{3, 2}}},
		{"zero spacing", Grid{CenterHz: 2.4e9, SpacingHz: 0, Used: []int{1}}},
		{"empty grid", Grid{CenterHz: 2.4e9, SpacingHz: 1, Used: nil}},
		{"NaN center", Grid{CenterHz: nan, SpacingHz: 312.5e3, Used: []int{1}}},
		{"+Inf center", Grid{CenterHz: inf, SpacingHz: 312.5e3, Used: []int{1}}},
		{"NaN spacing", Grid{CenterHz: 2.4e9, SpacingHz: nan, Used: []int{1}}},
		{"+Inf spacing", Grid{CenterHz: 2.4e9, SpacingHz: inf, Used: []int{1}}},
		{"-Inf center", Grid{CenterHz: -inf, SpacingHz: 312.5e3, Used: []int{1}}},
	} {
		if tc.g.Validate() == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	if err := WiFi20().Validate(); err != nil {
		t.Errorf("WiFi20 rejected: %v", err)
	}
}

func TestSubcarrierIndex(t *testing.T) {
	g := WiFi20()
	if off, err := g.SubcarrierIndex(0); err != nil || off != -26 {
		t.Errorf("position 0 → offset %d, err %v", off, err)
	}
	if off, err := g.SubcarrierIndex(51); err != nil || off != 26 {
		t.Errorf("position 51 → offset %d, err %v", off, err)
	}
	if _, err := g.SubcarrierIndex(52); err == nil {
		t.Error("out-of-range position accepted")
	}
}

func TestTrainingSequence(t *testing.T) {
	g := WiFi20()
	seq := TrainingSequence(g)
	if len(seq) != 52 {
		t.Fatalf("len = %d", len(seq))
	}
	var plus, minus int
	for _, s := range seq {
		switch s {
		case 1:
			plus++
		case -1:
			minus++
		default:
			t.Fatalf("non-BPSK training symbol %v", s)
		}
	}
	// Roughly balanced (LFSR output).
	if plus < 15 || minus < 15 {
		t.Errorf("unbalanced training: %d plus, %d minus", plus, minus)
	}
	// Deterministic.
	seq2 := TrainingSequence(g)
	for i := range seq {
		if seq[i] != seq2[i] {
			t.Fatal("training sequence not deterministic")
		}
	}
}

func TestNewFrame(t *testing.T) {
	g := WiFi20()
	f := NewFrame(g, 4, nil)
	if len(f.Training) != 4 || f.NumSymbols() != 4 {
		t.Errorf("frame has %d training symbols", len(f.Training))
	}
	// nTraining < 1 clamps to 1.
	if got := NewFrame(g, 0, nil); len(got.Training) != 1 {
		t.Errorf("clamped frame has %d training symbols", len(got.Training))
	}
	// Training symbols are copies, not aliases.
	f.Training[0][0] = 42
	if f.Training[1][0] == 42 {
		t.Error("training symbols alias each other")
	}
}
