// Package seglog is the one on-disk framing behind PRESS's durable
// logs: the flight recorder (internal/obs/flight) and the time-series
// store (internal/obs/tsdb). It owns the frame layout, the
// corruption-tolerant decoder, and the naming, creation and listing of
// segment files. What goes inside a frame, and when a writer rotates to
// a new segment, stay with each log.
//
// Frame layout (little-endian):
//
//	offset size
//	0      2    magic (one per log, Format.Magic)
//	2      1    frame kind
//	3      4    payload length
//	7      n    payload
//	7+n    4    CRC32C (Castagnoli) over kind+length+payload
//
// The magic prefix exists so the decoder can resynchronize after a
// corrupt frame by scanning forward; the CRC is what validates a frame.
// Each log has its own magic so a segment misfiled into the other log's
// directory reads as zero frames, not garbage records.
package seglog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

const (
	headerLen  = 7  // magic + kind + length
	overhead   = 11 // header + trailing CRC
	maxPayload = 1 << 24
)

// castagnoli is the CRC32C table (the same polynomial iSCSI and modern
// storage formats use; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Format is one log's identity on disk: the magic every frame starts
// with and the suffix of its segment files. Each log declares its
// Format once, as a package constant.
type Format struct {
	Magic  [2]byte
	Suffix string
}

// Append appends one framed record to dst and returns the extended
// slice. It allocates only when dst must grow.
func (f Format) Append(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, f.Magic[0], f.Magic[1], kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.Update(0, castagnoli, dst[len(dst)-len(payload)-5:])
	return binary.LittleEndian.AppendUint32(dst, crc)
}

// Stats reports what a decode pass encountered. Corruption is counted,
// never fatal: a log is most valuable exactly when the process that
// wrote it died badly.
type Stats struct {
	// Frames is the number of valid frames decoded (including unknown
	// kinds, which are skipped but counted).
	Frames int `json:"frames"`
	// Unknown counts valid frames whose kind the log's payload decoder
	// does not know (written by a newer format revision).
	Unknown int `json:"unknown,omitempty"`
	// Corrupt counts frames abandoned on a CRC mismatch or an insane
	// length field, plus valid frames whose payload failed to decode.
	Corrupt int `json:"corrupt,omitempty"`
	// Resyncs counts forward scans for the next frame magic after a
	// corrupt frame or stray bytes.
	Resyncs int `json:"resyncs,omitempty"`
	// BytesSkipped totals the bytes discarded while resynchronizing.
	BytesSkipped int64 `json:"bytes_skipped,omitempty"`
	// TornTail records that the data ended mid-frame — the expected
	// signature of a crash between group commits.
	TornTail bool `json:"torn_tail,omitempty"`
}

// Add folds o into s.
func (s *Stats) Add(o Stats) {
	s.Frames += o.Frames
	s.Unknown += o.Unknown
	s.Corrupt += o.Corrupt
	s.Resyncs += o.Resyncs
	s.BytesSkipped += o.BytesSkipped
	s.TornTail = s.TornTail || o.TornTail
}

// Decode walks data emitting every valid frame's kind and payload; the
// payload aliases data. It never fails on corruption: CRC mismatches
// and garbage bytes are skipped with a resync scan for the next magic,
// and a truncated final frame is reported as a torn tail. emit
// returning an error aborts the walk (that error is the caller's, not
// the data's).
func (f Format) Decode(data []byte, emit func(kind byte, payload []byte) error) (Stats, error) {
	m0, m1 := f.Magic[0], f.Magic[1]
	var stats Stats
	pos := 0
	resync := func(from int) int {
		stats.Resyncs++
		for i := from; i+1 < len(data); i++ {
			if data[i] == m0 && data[i+1] == m1 {
				stats.BytesSkipped += int64(i - pos)
				return i
			}
		}
		stats.BytesSkipped += int64(len(data) - pos)
		return len(data)
	}
	for pos < len(data) {
		if data[pos] != m0 || pos+1 >= len(data) || data[pos+1] != m1 {
			pos = resync(pos + 1)
			continue
		}
		if pos+headerLen > len(data) {
			// A magic with no room even for a header at the very end of
			// the data: a torn header.
			stats.TornTail = true
			stats.BytesSkipped += int64(len(data) - pos)
			return stats, nil
		}
		kind := data[pos+2]
		n := int(binary.LittleEndian.Uint32(data[pos+3 : pos+7]))
		if n > maxPayload {
			stats.Corrupt++
			pos = resync(pos + 2)
			continue
		}
		end := pos + overhead + n
		if end > len(data) {
			// Plausible header but the payload runs past the end: either
			// the torn tail of a crashed writer or a corrupted length
			// field. Only a CRC-valid frame further on proves the length
			// corrupt: a bare magic may sit in the torn frame's own
			// cut-off bytes (its CRC alone holds one in about 3 frames in
			// 65,536).
			next := f.nextFrame(data, pos+2)
			stats.Resyncs++
			stats.BytesSkipped += int64(next - pos)
			if next >= len(data) {
				stats.TornTail = true
				return stats, nil
			}
			stats.Corrupt++
			pos = next
			continue
		}
		if !crcOK(data[pos:end]) {
			stats.Corrupt++
			pos = resync(pos + 2)
			continue
		}
		stats.Frames++
		if err := emit(kind, data[pos+headerLen:end-4]); err != nil {
			return stats, err
		}
		pos = end
	}
	return stats, nil
}

// crcOK reports whether frame, one whole frame from its magic through
// its CRC, carries a matching CRC.
func crcOK(frame []byte) bool {
	n := len(frame)
	return crc32.Checksum(frame[2:n-4], castagnoli) == binary.LittleEndian.Uint32(frame[n-4:])
}

// nextFrame returns the offset of the first CRC-valid frame that starts
// at or after from, or len(data) when none does.
func (f Format) nextFrame(data []byte, from int) int {
	for i := from; i+headerLen <= len(data); i++ {
		if data[i] != f.Magic[0] || data[i+1] != f.Magic[1] {
			continue
		}
		n := int(binary.LittleEndian.Uint32(data[i+3 : i+7]))
		if end := i + overhead + n; n <= maxPayload && end <= len(data) && crcOK(data[i:end]) {
			return i
		}
	}
	return len(data)
}

// Name is the file name of segment seq ("seg-00000" plus the suffix).
func (f Format) Name(seq int) string { return fmt.Sprintf("seg-%05d%s", seq, f.Suffix) }

// Create creates segment seq in dir for writing. It fails, naming the
// file, when that segment already exists: a segment is written by one
// writer, once, and never truncated.
func (f Format) Create(dir string, seq int) (*os.File, error) {
	return os.OpenFile(filepath.Join(dir, f.Name(seq)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
}

// Segment is one segment file found by List.
type Segment struct {
	Path string
	Seq  int
	Size int64
}

// List returns dir's segments in sequence order. Only files named as
// Name names them count; a missing directory holds none.
func (f Format) List(dir string) ([]Segment, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var segs []Segment
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		seq, ok := f.parseSeq(ent.Name())
		if !ok {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue
		}
		segs = append(segs, Segment{Path: filepath.Join(dir, ent.Name()), Seq: seq, Size: info.Size()})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Seq < segs[j].Seq })
	return segs, nil
}

// parseSeq is the inverse of Name: it accepts exactly the names Name
// produces, so "seg-1", "seg-+0001" and "seg-old" are not segments.
func (f Format) parseSeq(name string) (int, bool) {
	digits, ok := strings.CutPrefix(name, "seg-")
	if !ok {
		return 0, false
	}
	if digits, ok = strings.CutSuffix(digits, f.Suffix); !ok {
		return 0, false
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 0 || f.Name(n) != name {
		return 0, false
	}
	return n, true
}
