package eval

import (
	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
)

// MetricsReport assembles the -metrics-json observability report for one
// run: the collector's per-round phase timings (empty but schema-complete
// when c is nil or the algorithm is uninstrumented) completed with the
// run's build and I/O summaries. The per-round scan totals come from the
// collector's storage-completed passes, so they sum to res.IOStats.Scans
// exactly.
func MetricsReport(c *obs.Collector, res *RunResult) *obs.Report {
	ExportCacheCounters(c.Registry(), res.IOStats)
	rep := c.Snapshot()
	rep.Build = obs.BuildSummary{
		Algorithm:       res.Algorithm,
		Records:         res.N,
		Workers:         c.Workers(),
		TreeNodes:       res.TreeNodes,
		TreeLeaves:      res.TreeLeaves,
		TreeDepth:       res.TreeDepth,
		WallNs:          res.WallTime.Nanoseconds(),
		ObliqueSplits:   res.Oblique,
		SkippedRecords:  res.Skipped,
		PeakMemoryBytes: res.PeakMemBytes,
	}
	if st := res.CoreStats; st != nil {
		st.FillSummary(&rep.Build)
		st.FillQuant(&rep.Quant)
	}
	rep.IO = IOSummary(res.IOStats)
	return rep
}

// IOSummary mirrors a storage.Stats into the report's I/O section.
func IOSummary(s storage.Stats) obs.IOSummary {
	return obs.IOSummary{
		Scans:           s.Scans,
		RecordsRead:     s.RecordsRead,
		BytesRead:       s.BytesRead,
		PagesRead:       s.PagesRead,
		BytesWritten:    s.BytesWritten,
		PagesWritten:    s.PagesWritten,
		Retries:         s.Retries,
		CorruptPages:    s.CorruptPages,
		CacheHits:       s.CacheHits,
		CacheMisses:     s.CacheMisses,
		CacheEvictions:  s.Evictions,
		PrefetchedPages: s.PrefetchedPages,
	}
}

// ExportCacheCounters publishes the run's page-cache counters into a metrics
// registry (always, even when zero, so the -metrics-json key set is stable
// whatever the cache configuration). reg may be nil.
func ExportCacheCounters(reg *obs.Registry, s storage.Stats) {
	reg.Counter("storage_cache_hits").Add(s.CacheHits)
	reg.Counter("storage_cache_misses").Add(s.CacheMisses)
	reg.Counter("storage_cache_evictions").Add(s.Evictions)
	reg.Counter("storage_prefetched_pages").Add(s.PrefetchedPages)
}
