package tsdb

import (
	"time"
)

// compactLocked folds completed windows of staged points into the
// coarser tiers: raw → 10s, then 10s → 1m. Counters downsample to the
// window's last cumulative value (rate() over the coarse tier stays
// exact); gauges downsample to the window mean. Progress is persisted
// as watermark frames in the target tier, so a restart neither
// re-compacts nor skips windows. Caller holds mu.
func (s *Store) compactLocked(now time.Time) {
	start := time.Now()
	worked := false
	for _, target := range []int{tier10s, tier1m} {
		if s.compactTierLocked(now, target) {
			worked = true
		}
	}
	if worked {
		s.mCompact.Inc()
		s.hCompact.Observe(time.Since(start).Seconds())
	}
}

func (s *Store) compactTierLocked(now time.Time, target int) bool {
	src := target - 1
	step := tierStep[target]
	// Only windows that ended at least a grace period ago are folded,
	// so queued-but-unapplied samples still reach their window.
	limit := (now.UnixMilli() - compactGraceMs) / step * step
	if limit <= s.wm[target] {
		return false
	}
	ts := s.tiers[target]
	if ts.f == nil {
		return false
	}
	// windowEnd → samples, so each window becomes one block frame.
	type agg struct {
		sr    *series
		key   seriesKey
		last  point
		sum   float64
		count int
	}
	windows := map[int64][]agg{}
	for key, sr := range s.series {
		pts := sr.pend[src]
		if len(pts) == 0 {
			continue
		}
		keep := pts[:0]
		var cur *agg
		var curEnd int64
		flush := func() {
			if cur == nil {
				return
			}
			windows[curEnd] = append(windows[curEnd], *cur)
			cur = nil
		}
		for _, p := range pts {
			if p.t > limit {
				keep = append(keep, p)
				continue
			}
			wEnd := (p.t-1)/step*step + step // window (wEnd-step, wEnd]
			if cur == nil || wEnd != curEnd {
				flush()
				cur = &agg{sr: sr, key: key}
				curEnd = wEnd
			}
			if cur.last.t <= p.t {
				cur.last = p
			}
			cur.sum += p.v
			cur.count++
		}
		flush()
		sr.pend[src] = keep
	}
	ends := make([]int64, 0, len(windows))
	for wEnd := range windows {
		ends = append(ends, wEnd)
	}
	sortInt64(ends)
	for _, wEnd := range ends {
		var block []blockSample
		for _, a := range windows[wEnd] {
			v := a.last.v
			if a.sr.kind == seriesGauge && a.count > 0 {
				v = a.sum / float64(a.count)
			}
			if !ts.declared[a.sr.id] {
				ts.declared[a.sr.id] = true
				ts.buf = tsdbLog.Append(ts.buf, kindSeries,
					encodeSeriesDecl(nil, a.sr.id, a.sr.kind, a.key))
			}
			block = append(block, blockSample{a.sr.id, v})
			// 10s output is 1m input.
			if target == tier10s && len(a.sr.pend[tier10s]) < maxPendingPoints {
				a.sr.pend[tier10s] = append(a.sr.pend[tier10s], point{wEnd, v})
			}
		}
		if len(block) > 0 {
			ts.buf = tsdbLog.Append(ts.buf, kindBlock, encodeBlock(nil, wEnd, block))
			ts.note(wEnd)
		}
	}
	s.wm[target] = limit
	ts.buf = tsdbLog.Append(ts.buf, kindWatermark, encodeWatermark(nil, limit))
	ts.flush()
	ts.rotateIfNeeded(now, s.opt.SegmentBytes, s.segMaxAge(target))
	return true
}

// retainLocked deletes sealed segments older than each tier's
// retention window. Caller holds mu.
func (s *Store) retainLocked(now time.Time) {
	ret := s.opt.retention()
	for i := 0; i < numTiers; i++ {
		cutoff := now.Add(-ret[i]).UnixMilli()
		s.tiers[i].enforceRetention(cutoff)
	}
}

func sortInt64(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
