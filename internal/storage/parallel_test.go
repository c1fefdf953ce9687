package storage

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cmpdt/internal/dataset"
)

// rangeTable builds a small numeric table whose records are identifiable by
// rid: vals[0] == rid, label == rid % classes.
func rangeTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Numeric},
			{Name: "b", Kind: dataset.Numeric},
		},
		Classes: []string{"c0", "c1", "c2"},
	}
	tbl, err := dataset.New(schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tbl.Append([]float64{float64(i), float64(2 * i)}, i%3); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// rangeSources yields the two RangeSource implementations over the same
// records.
func rangeSources(t *testing.T, n int) map[string]RangeSource {
	t.Helper()
	tbl := rangeTable(t, n)
	f, err := WriteTable(filepath.Join(t.TempDir(), "range.rec"), tbl)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]RangeSource{"mem": NewMem(tbl), "file": f}
}

func TestScanRange(t *testing.T) {
	const n = 137
	for name, src := range rangeSources(t, n) {
		t.Run(name, func(t *testing.T) {
			for _, r := range [][2]int{{0, n}, {0, 1}, {n - 1, n}, {40, 97}, {n, n}, {-5, n + 5}} {
				lo, hi := r[0], r[1]
				var st Stats
				var got []int
				err := src.ScanRange(lo, hi, &st, func(rid int, vals []float64, label int) error {
					if vals[0] != float64(rid) || vals[1] != float64(2*rid) || label != rid%3 {
						t.Fatalf("rid %d: got vals=%v label=%d", rid, vals, label)
					}
					got = append(got, rid)
					return nil
				})
				if err != nil {
					t.Fatalf("ScanRange(%d,%d): %v", lo, hi, err)
				}
				cLo, cHi := lo, hi
				if cLo < 0 {
					cLo = 0
				}
				if cHi > n {
					cHi = n
				}
				want := cHi - cLo
				if want < 0 {
					want = 0
				}
				if len(got) != want {
					t.Fatalf("ScanRange(%d,%d): %d records, want %d", lo, hi, len(got), want)
				}
				for i, rid := range got {
					if rid != cLo+i {
						t.Fatalf("ScanRange(%d,%d): out of order at %d: %d", lo, hi, i, rid)
					}
				}
				if st.RecordsRead != int64(want) {
					t.Fatalf("ScanRange(%d,%d): stats.RecordsRead=%d, want %d", lo, hi, st.RecordsRead, want)
				}
				if st.Scans != 0 {
					t.Fatalf("ScanRange must not count a full scan, got %d", st.Scans)
				}
			}
			if got := src.Stats(); got != (Stats{}) {
				t.Fatalf("private-stats ScanRange mutated source counters: %+v", got)
			}
		})
	}
}

func TestScanRangeError(t *testing.T) {
	boom := errors.New("boom")
	for name, src := range rangeSources(t, 50) {
		t.Run(name, func(t *testing.T) {
			var st Stats
			err := src.ScanRange(10, 40, &st, func(rid int, vals []float64, label int) error {
				if rid == 20 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			if st.RecordsRead != 11 {
				t.Fatalf("partial RecordsRead = %d, want 11", st.RecordsRead)
			}
		})
	}
}

// TestParallelScanMatchesSerial pins the merge-once contract: any worker
// count visits every record exactly once and leaves counters
// indistinguishable from one serial Scan, an empty source included.
func TestParallelScanMatchesSerial(t *testing.T) {
	for _, name := range []string{"mem", "file"} {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1000} {
				src := rangeSources(t, n)[name]
				// Reference: one serial scan on a fresh twin source.
				twin := rangeSources(t, n)[name]
				if err := twin.Scan(func(rid int, vals []float64, label int) error { return nil }); err != nil {
					t.Fatal(err)
				}
				serialStats := twin.Stats()

				for _, workers := range []int{1, 2, 3, 8, 2000} {
					src.ResetStats()
					seen := make([]int32, n)
					var mu sync.Mutex
					perWorker := map[int]int{}
					err := ParallelScan(context.Background(), src, workers, func(w, rid int, vals []float64, label int) error {
						if vals[0] != float64(rid) || label != rid%3 {
							return fmt.Errorf("rid %d: bad record %v/%d", rid, vals, label)
						}
						seen[rid]++
						mu.Lock()
						perWorker[w]++
						mu.Unlock()
						return nil
					})
					if err != nil {
						t.Fatalf("n=%d workers=%d: %v", n, workers, err)
					}
					for rid, c := range seen {
						if c != 1 {
							t.Fatalf("n=%d workers=%d: rid %d visited %d times", n, workers, rid, c)
						}
					}
					if got := src.Stats(); got != serialStats {
						t.Fatalf("n=%d workers=%d: stats %+v, want serial-identical %+v", n, workers, got, serialStats)
					}
					wantW := workers
					if wantW > n {
						wantW = n
					}
					if len(perWorker) != wantW {
						t.Fatalf("n=%d workers=%d: %d distinct worker indices, want %d", n, workers, len(perWorker), wantW)
					}
				}
			}
		})
	}
}

// TestParallelScanCancel pins cancellation at the scan layer: a cancelled
// context stops the pass with ctx.Err(), whether cancelled before the scan
// starts or from inside a callback, and no full scan is counted.
func TestParallelScanCancel(t *testing.T) {
	for name, src := range rangeSources(t, 5000) {
		t.Run(name+"/pre-cancelled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			called := false
			err := ParallelScan(ctx, src, 4, func(w, rid int, vals []float64, label int) error {
				called = true
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if called {
				t.Error("callback ran under a pre-cancelled context")
			}
		})
	}
	for name, src := range rangeSources(t, 5000) {
		t.Run(name+"/mid-scan", func(t *testing.T) {
			src.ResetStats()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var seen atomic.Int64
			err := ParallelScan(ctx, src, 4, func(w, rid int, vals []float64, label int) error {
				if seen.Add(1) == 100 {
					cancel()
				}
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if got := src.Stats(); got.Scans != 0 {
				t.Fatalf("cancelled pass counted as a full scan: %+v", got)
			}
		})
	}
}

// TestParallelScanPanicRecovered pins that a panicking callback surfaces as
// an error on the caller's goroutine instead of crashing the process.
func TestParallelScanPanicRecovered(t *testing.T) {
	for name, src := range rangeSources(t, 500) {
		t.Run(name, func(t *testing.T) {
			err := ParallelScan(context.Background(), src, 4, func(w, rid int, vals []float64, label int) error {
				if rid == 250 {
					panic("kaboom")
				}
				return nil
			})
			if err == nil || !strings.Contains(err.Error(), "panicked") {
				t.Fatalf("err = %v, want a recovered-panic error", err)
			}
		})
	}
}

func TestParallelScanError(t *testing.T) {
	boom := errors.New("boom")
	for name, src := range rangeSources(t, 200) {
		t.Run(name, func(t *testing.T) {
			err := ParallelScan(context.Background(), src, 4, func(w, rid int, vals []float64, label int) error {
				if rid >= 150 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			if got := src.Stats(); got.Scans != 0 {
				t.Fatalf("failed parallel pass must not count a scan: %+v", got)
			}
		})
	}
}
