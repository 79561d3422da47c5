package seglog

import (
	"bytes"
	"fmt"
)

// CheckTruncations checks the crash-recovery contract on a clean log
// (one that decodes with no corruption, resync or torn tail) by cutting
// it at every byte offset. Each cut must still yield every complete
// frame, byte for byte, and no other. A cut at a frame boundary must
// decode cleanly, with no resync; a cut one byte into a frame leaves a
// stray byte, skipped; a cut two or more bytes in must be flagged as a
// torn tail and count no corrupt frame, even where the kept part of the
// frame holds the magic. It returns the first violation. Tests of each log run it over
// segments their writer produced.
func (f Format) CheckTruncations(data []byte) error {
	type frame struct {
		kind    byte
		payload []byte
		end     int
	}
	var frames []frame
	end := 0
	stats, _ := f.Decode(data, func(kind byte, payload []byte) error {
		end += overhead + len(payload)
		frames = append(frames, frame{kind, payload, end})
		return nil
	})
	if stats.Corrupt != 0 || stats.Resyncs != 0 || stats.TornTail || end != len(data) {
		return fmt.Errorf("seglog: not a clean log: %+v", stats)
	}
	complete, start := 0, 0 // frames wholly before the cut; where the next begins
	for cut := 0; cut <= len(data); cut++ {
		if complete < len(frames) && frames[complete].end == cut {
			start = cut
			complete++
		}
		var got []frame
		stats, _ := f.Decode(data[:cut], func(kind byte, payload []byte) error {
			got = append(got, frame{kind: kind, payload: payload})
			return nil
		})
		if len(got) != complete {
			return fmt.Errorf("seglog: cut at %d: %d frames decoded, want %d", cut, len(got), complete)
		}
		for i, g := range got {
			if g.kind != frames[i].kind || !bytes.Equal(g.payload, frames[i].payload) {
				return fmt.Errorf("seglog: cut at %d: frame %d decoded differently", cut, i)
			}
		}
		if into := cut - start; stats.Corrupt != 0 || stats.TornTail != (into >= 2) || (into == 0 && stats.Resyncs != 0) {
			return fmt.Errorf("seglog: cut at %d, %d bytes into frame %d: %+v", cut, into, complete, stats)
		}
	}
	return nil
}
