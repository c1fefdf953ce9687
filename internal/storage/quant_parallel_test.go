package storage

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// codeSources yields the two CodeSource implementations over the same
// quantized records (rangeTable, 16 bins per numeric attribute). The
// quantizer is fitted on at least one record, so n may be 0.
func codeSources(t *testing.T, n int) map[string]CodeSource {
	t.Helper()
	tbl := rangeTable(t, n)
	fit := rangeTable(t, max(n, 1))
	qz, err := NewQuantizer(tbl.Schema(), []QuantAttr{
		quantAttrFromColumn(t, fit, 0, 16),
		quantAttrFromColumn(t, fit, 1, 16),
	})
	if err != nil {
		t.Fatal(err)
	}
	qm := NewQuantMem(qz)
	w, err := CreateQuantFile(filepath.Join(t.TempDir(), "range.rec"), qz)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := qm.Append(tbl.Row(i), tbl.Label(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(tbl.Row(i), tbl.Label(i)); err != nil {
			t.Fatal(err)
		}
	}
	qf, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return map[string]CodeSource{"mem": qm, "file": qf}
}

// TestParallelScanCodesMatchesSerial pins the merge-once contract: any
// worker count visits every record exactly once and leaves counters
// indistinguishable from one serial ScanCodes, an empty source included.
func TestParallelScanCodesMatchesSerial(t *testing.T) {
	for _, name := range []string{"mem", "file"} {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{0, 1000} {
				src := codeSources(t, n)[name]
				// Reference: one serial scan on a fresh twin source.
				twin := codeSources(t, n)[name]
				if err := twin.ScanCodes(func(int, []uint16, int) error { return nil }); err != nil {
					t.Fatal(err)
				}
				serialStats := twin.Stats()

				for _, workers := range []int{1, 2, 3, 8, 2000} {
					src.ResetStats()
					seen := make([]int32, n)
					var mu sync.Mutex
					perWorker := map[int]int{}
					err := ParallelScanCodes(context.Background(), src, workers, func(w, rid int, codes []uint16, label int) error {
						if label != rid%3 {
							return fmt.Errorf("rid %d: bad label %d", rid, label)
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

// TestParallelScanCodesFailureModes pins cancellation, panic recovery, and
// error propagation — no failed pass may count as a full scan.
func TestParallelScanCodesFailureModes(t *testing.T) {
	boom := errors.New("boom")
	for name, src := range codeSources(t, 500) {
		t.Run(name+"/pre-cancelled", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			called := false
			err := ParallelScanCodes(ctx, src, 4, func(int, int, []uint16, int) error {
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
		t.Run(name+"/error", func(t *testing.T) {
			src.ResetStats()
			err := ParallelScanCodes(context.Background(), src, 4, func(w, rid int, codes []uint16, label int) error {
				if rid >= 400 {
					return boom
				}
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("err = %v, want %v", err, boom)
			}
			if got := src.Stats(); got.Scans != 0 {
				t.Fatalf("failed parallel pass counted a scan: %+v", got)
			}
		})
		t.Run(name+"/panic", func(t *testing.T) {
			err := ParallelScanCodes(context.Background(), src, 4, func(w, rid int, codes []uint16, label int) error {
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
