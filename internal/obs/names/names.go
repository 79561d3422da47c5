// Package names is the single spelling authority for the telemetry
// stack's self-metric names. The scope directory and the tsdb store
// both observe themselves through the registry they serve, and the
// health rules and tests match those series by name — four call sites
// per string is exactly how spellings drift. This is a
// leaf package (no imports) so every layer of the obs tree can depend
// on it without cycles; the packages that own each metric re-export
// these as their own constants, so existing callers keep compiling.
package names

// Scope directory metrics (internal/obs/scope).
const (
	SessionsOpened  = "obs_sessions_opened_total"
	SessionsEvicted = "obs_sessions_evicted_total"
	SessionsActive  = "obs_sessions_active"
)

// Time-series store self-telemetry (internal/obs/tsdb).
const (
	TSDBBatches          = "obs_tsdb_batches_total"
	TSDBSamples          = "obs_tsdb_samples_total"
	TSDBDropped          = "obs_tsdb_dropped_total"
	TSDBSeries           = "obs_tsdb_series"
	TSDBSeriesRejected   = "obs_tsdb_series_rejected_total"
	TSDBDiskBytes        = "obs_tsdb_disk_bytes"
	TSDBSegments         = "obs_tsdb_segments"
	TSDBCompactions      = "obs_tsdb_compactions_total"
	TSDBCompactionSecs   = "obs_tsdb_compaction_seconds"
	TSDBSessionsReleased = "obs_tsdb_sessions_released_total"
	TSDBCorruptFrames    = "obs_tsdb_corrupt_frames_total"
)
