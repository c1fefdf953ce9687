package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"cmpdt/internal/core"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// CacheRow is one cold/warm page-cache measurement: a full CMP-B build over
// the file-backed store under one cache state.
type CacheRow struct {
	// Phase is "uncached" (no cache attached), "cold" (cache attached
	// empty) or "warm" (same cache, immediately rebuilt).
	Phase string `json:"phase"`
	// WallSeconds is the build's wall time.
	WallSeconds float64 `json:"wall_seconds"`
	// Scans is the number of logical sequential passes (identical across
	// phases — caching never changes the paper's scan count).
	Scans int64 `json:"scans"`
	// LogicalPages is the logical page accounting (records x record size),
	// also identical across phases.
	LogicalPages int64 `json:"logical_pages_read"`
	// PhysicalPages is the metered physical page traffic, cache misses plus
	// prefetches. Zero for the uncached phase, whose physical reads (one
	// full file pass per scan) are not metered.
	PhysicalPages   int64 `json:"physical_pages_read"`
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	PrefetchedPages int64 `json:"prefetched_pages"`
	Evictions       int64 `json:"cache_evictions"`
}

// CacheResult is the cold-vs-warm page-cache baseline BENCH_cache.json
// records.
type CacheResult struct {
	Workload   string `json:"workload"`
	Records    int    `json:"records"`
	CacheBytes int64  `json:"cache_bytes"`
	Workers    int    `json:"workers"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// TreesIdentical records the differential check: the three builds must
	// serialize to byte-identical trees.
	TreesIdentical bool       `json:"trees_identical"`
	Rows           []CacheRow `json:"rows"`
}

// defaultCacheBytes comfortably holds every experiment dataset, so the warm
// phase measures a fully resident working set.
const defaultCacheBytes = 256 << 20

// CacheBench measures what the page cache buys a disk-resident build: a
// CMP-B tree over a file-backed Function-2 store is built uncached, then
// cold (cache attached, empty), then warm (same cache, still resident from
// the cold build). The cold build already collapses the per-round re-reads
// to one physical pass; the warm rebuild reads almost nothing from disk.
func (o Opts) CacheBench() (*CacheResult, error) {
	disk := o
	disk.UseDisk = true
	src, cleanup, err := disk.source(synth.F2, o.N, o.Seed)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	f, ok := src.(*storage.File)
	if !ok {
		return nil, fmt.Errorf("experiments: cache bench needs a file source, got %T", src)
	}

	cacheBytes := o.Eval.Tree.CacheBytes
	if cacheBytes <= 0 {
		cacheBytes = defaultCacheBytes
	}
	cfg := core.Default(core.CMPB)
	cfg.Intervals = o.Intervals
	cfg.Seed = o.Seed
	if o.Eval.Tree.Workers != 0 {
		cfg.Workers = o.Eval.Tree.Workers
	}

	out := &CacheResult{
		Workload:   synth.F2.String(),
		Records:    f.NumRecords(),
		CacheBytes: cacheBytes,
		Workers:    cfg.Workers,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	var trees [][]byte
	build := func(phase string) error {
		f.ResetStats()
		start := time.Now()
		res, err := core.Build(f, cfg)
		if err != nil {
			return fmt.Errorf("experiments: cache bench %s build: %w", phase, err)
		}
		wall := time.Since(start)
		var buf bytes.Buffer
		if err := res.Tree.WriteJSON(&buf); err != nil {
			return err
		}
		trees = append(trees, buf.Bytes())
		io := res.IO
		out.Rows = append(out.Rows, CacheRow{
			Phase:           phase,
			WallSeconds:     wall.Seconds(),
			Scans:           io.Scans,
			LogicalPages:    io.PagesRead,
			PhysicalPages:   io.CacheMisses + io.PrefetchedPages,
			CacheHits:       io.CacheHits,
			CacheMisses:     io.CacheMisses,
			PrefetchedPages: io.PrefetchedPages,
			Evictions:       io.Evictions,
		})
		return nil
	}

	f.SetCacheBytes(0)
	if err := build("uncached"); err != nil {
		return nil, err
	}
	f.SetCacheBytes(cacheBytes)
	if err := build("cold"); err != nil {
		return nil, err
	}
	if err := build("warm"); err != nil {
		return nil, err
	}

	out.TreesIdentical = bytes.Equal(trees[0], trees[1]) && bytes.Equal(trees[1], trees[2])
	return out, nil
}

// PrintCacheBench renders the result as an aligned table.
func PrintCacheBench(w io.Writer, r *CacheResult) {
	fmt.Fprintf(w, "workload %s, %d records, cache %d MiB, workers %d, trees identical: %v\n",
		r.Workload, r.Records, r.CacheBytes>>20, r.Workers, r.TreesIdentical)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\twall s\tscans\tlogical pages\tphysical pages\thits\tmisses\tprefetched\tevictions")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			row.Phase, row.WallSeconds, row.Scans, row.LogicalPages, row.PhysicalPages,
			row.CacheHits, row.CacheMisses, row.PrefetchedPages, row.Evictions)
	}
	tw.Flush()
}

// WriteCacheJSON writes the machine-readable cold/warm baseline consumed by
// make bench-cache (BENCH_cache.json).
func WriteCacheJSON(w io.Writer, r *CacheResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
