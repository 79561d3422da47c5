package flight

import (
	"os"
	"path/filepath"
	"testing"
)

// benchRecorder opens a recorder whose segment writes land in
// /dev/null, so the benchmark measures the producer path plus flush
// cost without filling the disk.
func benchRecorder(b *testing.B) *Recorder {
	b.Helper()
	rec, err := open(filepath.Join(b.TempDir(), "bench"), 1<<62)
	if err != nil {
		b.Fatal(err)
	}
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		b.Fatal(err)
	}
	rec.mu.Lock()
	rec.f.Close()
	rec.f = null
	rec.mu.Unlock()
	b.Cleanup(func() { rec.Close() })
	return rec
}

func benchCurve() []float64 {
	curve := make([]float64, 64)
	for i := range curve {
		curve[i] = 20 + float64(i%7)
	}
	return curve
}

// BenchmarkRecordCSI is the measurement hot path: encoding one
// 64-subcarrier curve into the group-commit buffer under the lock.
func BenchmarkRecordCSI(b *testing.B) {
	curve := benchCurve()
	b.Run("enabled", func(b *testing.B) {
		rec := benchRecorder(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.RecordCSI(curve)
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var rec *Recorder
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.RecordCSI(curve)
		}
	})
}

// BenchmarkRecordDecision is the search hot path: one decision record
// per evaluation.
func BenchmarkRecordDecision(b *testing.B) {
	cfg := []int{1, 2, 3, 0, 1, 2, 3, 0}
	b.Run("enabled", func(b *testing.B) {
		rec := benchRecorder(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.RecordDecision(uint64(i), 42.5, false, cfg)
		}
	})
	b.Run("disabled", func(b *testing.B) {
		var rec *Recorder
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rec.RecordDecision(uint64(i), 42.5, false, cfg)
		}
	})
}

// BenchmarkDecodeFrames measures consumer-side throughput over a
// segment of 64-subcarrier CSI frames.
func BenchmarkDecodeFrames(b *testing.B) {
	curve := benchCurve()
	e := &enc{}
	var data []byte
	for i := 0; i < 1000; i++ {
		e.b = e.b[:0]
		e.i64(int64(i))
		e.u64(uint64(i))
		e.f64s(curve)
		data = flightLog.Append(data, byte(KindCSI), e.b)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := flightLog.Decode(data, func(byte, []byte) error { return nil })
		if err != nil || stats.Frames != 1000 {
			b.Fatalf("stats %+v err %v", stats, err)
		}
	}
}
