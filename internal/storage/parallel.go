package storage

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// RangeSource is a Source whose records can also be read by disjoint rid
// ranges, enabling partitioned concurrent scans. Mem, File and Masked
// implement it; every raw CMP build round scans through it.
type RangeSource interface {
	Source
	// ScanRange calls fn for every record with lo <= rid < hi, in rid
	// order. I/O is accounted into stats when non-nil; when stats is nil
	// the source's own counters are used, which is NOT safe under
	// concurrent ScanRange calls — concurrent scanners must meter into
	// private Stats and merge them once, as ParallelScan does. Scans is
	// never incremented: a range is a partial pass.
	ScanRange(lo, hi int, stats *Stats, fn func(rid int, vals []float64, label int) error) error
	// AddStats merges externally accumulated counters into the source's
	// totals. Call it from a single goroutine, once per completed parallel
	// pass.
	AddStats(s Stats)
}

// cancelCheckEvery is how many records a scan worker processes between
// context checks; small enough that cancellation lands well within one
// scan round, large enough to stay invisible in the scan hot loop. It must
// be a power of two: the check is a bitmask.
const cancelCheckEvery = 1024

// ParallelScan partitions [0, NumRecords()) into at most workers contiguous
// ranges and scans them concurrently, one goroutine per range. fn receives
// the worker index (0 <= worker < workers) alongside each record; records
// within one worker's range arrive in rid order, and each worker reuses its
// own vals slice. fn must be safe for concurrent invocation across distinct
// worker indices.
//
// Cancelling ctx aborts the pass: every worker checks the context every
// cancelCheckEvery records and stops with ctx.Err(), so ParallelScan
// returns (with all goroutines joined — none leak) within a bounded slice
// of one scan. A nil ctx is treated as context.Background().
//
// A panic in fn or in the source is recovered and returned as that worker's
// error instead of crashing the process; the other workers complete their
// ranges normally.
//
// Accounting is race-free by construction: every worker meters into a
// private Stats, and the totals are merged into the source exactly once,
// from the caller's goroutine. On success the merged entry is
// indistinguishable from one serial Scan — one full scan, with the page
// count computed over the whole byte volume rather than summed per range —
// so serial and parallel passes report bit-identical Stats. On error the
// partial per-worker totals are still merged (without counting a completed
// scan) and the error of the lowest-indexed failing worker is returned.
func ParallelScan(ctx context.Context, src RangeSource, workers int, fn func(worker, rid int, vals []float64, label int) error) error {
	return ParallelScanObserved(ctx, src, workers, nil, fn)
}

// WorkerScan reports one worker's completed share of a parallel pass: how
// many records its range held and how long the range scan took. Record
// counts are deterministic (ranges are a pure function of NumRecords and
// workers); Ns is wall time and is not.
type WorkerScan struct {
	Worker  int
	Records int64
	Ns      int64
}

// ParallelScanObserved is ParallelScan with per-worker instrumentation:
// observe, when non-nil, is called once per worker as that worker's range
// completes (successfully or not). It runs on the worker's goroutine, so
// it must be safe for concurrent invocation.
func ParallelScanObserved(ctx context.Context, src RangeSource, workers int, observe func(WorkerScan), fn func(worker, rid int, vals []float64, label int) error) error {
	return scanRanges(ctx, src.NumRecords(), workers, observe, src.ScanRange, src.AddStats, fn)
}

// scanRanges is the range driver behind ParallelScanObserved and
// ParallelScanCodesObserved, generic over the record type T: it splits
// [0, n) into at most workers contiguous ranges, scans each through
// scanRange on its own goroutine into a private Stats, and merges the
// totals once through addStats. One worker is the one-range case of the
// same pass. An empty source still makes (and counts) one pass, as a
// serial Scan does.
func scanRanges[T any](ctx context.Context, n, workers int, observe func(WorkerScan),
	scanRange func(lo, hi int, stats *Stats, fn func(rid int, rec T, label int) error) error,
	addStats func(Stats), fn func(worker, rid int, rec T, label int) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	stats := make([]Stats, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			start := time.Now()
			if observe != nil {
				defer func() {
					observe(WorkerScan{
						Worker:  w,
						Records: stats[w].RecordsRead,
						Ns:      time.Since(start).Nanoseconds(),
					})
				}()
			}
			defer func() {
				if r := recover(); r != nil {
					errs[w] = fmt.Errorf("storage: scan worker %d panicked: %v", w, r)
				}
			}()
			if err := ctx.Err(); err != nil {
				errs[w] = err
				return
			}
			count := 0
			errs[w] = scanRange(lo, hi, &stats[w], func(rid int, rec T, label int) error {
				count++
				if count&(cancelCheckEvery-1) == 0 {
					if err := ctx.Err(); err != nil {
						return err
					}
				}
				return fn(w, rid, rec, label)
			})
		}(w, lo, hi)
	}
	wg.Wait()

	var merged Stats
	for _, s := range stats {
		merged.Add(s)
	}
	// Whole-pass page accounting: summing per-range page counts would round
	// up once per worker and diverge from a serial scan.
	merged.PagesRead = pagesFor(merged.BytesRead)
	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr == nil {
		merged.Scans++
	}
	addStats(merged)
	return firstErr
}
