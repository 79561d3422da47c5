package radio

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"press/internal/fpexact"
	"press/internal/geom"
	"press/internal/rfphys"
)

var update = flag.Bool("update", false, "rewrite testdata/moving_channel.sha256 from the current code")

// movingTimes are the sounding times TestMovingChannelBits pins, from
// t = 0 (every Doppler phasor is 1) to about 20 minutes of walking.
var movingTimes = []float64{0, 0.078, 3.75, 97.3, 1234.5}

// TestMovingChannelBits pins the time-varying channel sum bit for bit:
// the SHA-256 of the Float64bits of TrueResponse on BenchmarkMeasureCSI's
// doppler testbed (a receiver walking at 3 mph), for all 64
// configurations at each of movingTimes. The Doppler path is otherwise
// only checked to within dopplerTol of the per-path reference, so any
// change to its rounding shows up here. Rerun with -update only when the
// change is intended, and say why in the commit.
func TestMovingChannelBits(t *testing.T) {
	if fpexact.Contracts() {
		t.Skip("this target fuses multiply-adds; testdata/moving_channel.sha256 holds only where they round separately")
	}
	l := testbed(t, 1)
	l.RX.Node.Velocity = geom.V(rfphys.MphToMps(3), 0, 0)
	l.InvalidateEnvironment()
	hash := sha256.New()
	var buf [16]byte
	for _, at := range movingTimes {
		for i := 0; i < l.Array.NumConfigs(); i++ {
			for _, v := range l.TrueResponse(l.Array.ConfigAt(i), at) {
				binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(real(v)))
				binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(imag(v)))
				hash.Write(buf[:])
			}
		}
	}
	got := hex.EncodeToString(hash.Sum(nil))
	path := filepath.Join("testdata", "moving_channel.sha256")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Fatalf("moving channel hash %s, want %s", got, w)
	}
}
