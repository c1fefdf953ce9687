package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// corruptSource wraps a Mem source and damages the records listed in bad
// before they reach the builder, exercising the validation paths. The damage
// is a pure function of the record id, so every scan delivers the same
// defects — the property ValidateSkip's determinism rests on. It can also
// fire a callback after a fixed number of records, for cancelling a build
// from inside a scan.
type corruptSource struct {
	*storage.Mem
	bad map[int]func(vals []float64, label int) ([]float64, int)

	after int64 // fire the trip after this many delivered records (0: never)
	trip  func()
	seen  atomic.Int64
	fired atomic.Bool
}

func (c *corruptSource) deliver(rid int, vals []float64, label int, fn func(int, []float64, int) error) error {
	if c.after > 0 && c.seen.Add(1) == c.after && c.fired.CompareAndSwap(false, true) {
		c.trip()
	}
	if f, ok := c.bad[rid]; ok {
		v, l := f(append([]float64(nil), vals...), label)
		return fn(rid, v, l)
	}
	return fn(rid, vals, label)
}

func (c *corruptSource) Scan(fn func(rid int, vals []float64, label int) error) error {
	return c.Mem.Scan(func(rid int, vals []float64, label int) error {
		return c.deliver(rid, vals, label, fn)
	})
}

func (c *corruptSource) ScanRange(lo, hi int, stats *storage.Stats, fn func(rid int, vals []float64, label int) error) error {
	return c.Mem.ScanRange(lo, hi, stats, func(rid int, vals []float64, label int) error {
		return c.deliver(rid, vals, label, fn)
	})
}

// waitGoroutines polls until the goroutine count returns to at most base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("goroutines did not return to baseline: %d > %d", runtime.NumGoroutine(), base)
}

// TestCancelBuildPreCancelled pins the fast path: a build started with an
// already-cancelled context returns context.Canceled without doing a full
// round, serial and parallel alike, leaking no goroutines.
func TestCancelBuildPreCancelled(t *testing.T) {
	tbl := synth.Generate(synth.F2, 20_000, 7)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			src := storage.NewMem(tbl)
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			cfg := Default(CMPS)
			cfg.Workers = workers
			base := runtime.NumGoroutine()
			_, err := BuildContext(ctx, src, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestCancelBuildMidScan cancels from inside a scan callback: the build must
// stop within that round, return context.Canceled, and join every worker.
func TestCancelBuildMidScan(t *testing.T) {
	tbl := synth.Generate(synth.F2, 20_000, 7)
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := &corruptSource{Mem: storage.NewMem(tbl), after: 5_000, trip: cancel}
			cfg := Default(CMPS)
			cfg.Workers = workers
			base := runtime.NumGoroutine()
			_, err := BuildContext(ctx, src, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			waitGoroutines(t, base)
		})
	}
}

// trippingCodes is a pre-quantized source that fires trip once its scans
// have delivered after records. It has no encode pass, so every record it
// delivers belongs to a construction round.
type trippingCodes struct {
	*storage.QuantMem
	after int64
	trip  func()
	seen  atomic.Int64
}

func (c *trippingCodes) ScanCodesRange(lo, hi int, stats *storage.Stats, fn func(rid int, codes []uint16, label int) error) error {
	return c.QuantMem.ScanCodesRange(lo, hi, stats, func(rid int, codes []uint16, label int) error {
		if c.seen.Add(1) == c.after {
			c.trip()
		}
		return fn(rid, codes, label)
	})
}

// TestCancelQuantizedBuildMidRound cancels a quantized build halfway
// through its second construction round: the build must return
// context.Canceled, every scan worker must stop within one context-check
// interval (1024 records) of the cancel, and none may leak.
func TestCancelQuantizedBuildMidRound(t *testing.T) {
	const n = 20_000
	tbl := synth.Generate(synth.F2, n, 7)
	_, qm, _ := quantizeTable(t, tbl, 100, filepath.Join(t.TempDir(), "cancel.rec"))
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			src := &trippingCodes{QuantMem: qm, after: n + n/2, trip: cancel}
			cfg := Default(CMPB)
			cfg.Workers = workers
			base := runtime.NumGoroutine()
			_, err := BuildContext(ctx, src, cfg)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if extra := src.seen.Load() - src.after; extra > int64(workers)*1024 {
				t.Errorf("%d records delivered after the cancel, want at most %d", extra, workers*1024)
			}
			waitGoroutines(t, base)
		})
	}
}

// scanOnly hides every method of its source but Source's: a training set
// that can only be read whole.
type scanOnly struct{ storage.Source }

// TestBuildNeedsRangeSource pins that a raw build over a source that cannot
// range-scan fails with ErrNoRangeScan instead of panicking, while a
// quantized build, which reads the raw source only whole, still succeeds.
func TestBuildNeedsRangeSource(t *testing.T) {
	src := scanOnly{storage.NewMem(synth.Generate(synth.F2, 2_000, 7))}
	for _, algo := range []Algorithm{CMPS, CMPB, CMPFull} {
		for _, workers := range []int{1, 4} {
			cfg := Default(algo)
			cfg.Workers = workers
			if _, err := BuildContext(context.Background(), src, cfg); !errors.Is(err, ErrNoRangeScan) {
				t.Errorf("%v workers=%d: err = %v, want ErrNoRangeScan", algo, workers, err)
			}
		}
	}
	if _, err := AnalyzeAttribute(src, Default(CMPS), "salary"); !errors.Is(err, ErrNoRangeScan) {
		t.Errorf("AnalyzeAttribute: err = %v, want ErrNoRangeScan", err)
	}
	cfg := Default(CMPB)
	cfg.Quantize = true
	if _, err := BuildContext(context.Background(), src, cfg); err != nil {
		t.Errorf("quantized build over a scan-only source: %v", err)
	}
}

// TestCancelBuildDeadline covers the timeout flavor of cancellation.
func TestCancelBuildDeadline(t *testing.T) {
	tbl := synth.Generate(synth.F2, 20_000, 7)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	_, err := BuildContext(ctx, storage.NewMem(tbl), Default(CMPS))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelNilContext pins that a nil context behaves as Background.
func TestCancelNilContext(t *testing.T) {
	tbl := synth.Generate(synth.F1, 1_000, 3)
	//lint:ignore SA1012 the nil-tolerance contract is exactly what is tested
	res, err := BuildContext(nil, storage.NewMem(tbl), Default(CMPS))
	if err != nil || res == nil {
		t.Fatalf("nil ctx build: res=%v err=%v", res, err)
	}
}

// badRecords returns a defect set: NaN features, infinite features, and
// out-of-range labels scattered over the record space.
func badRecords(nc int) map[int]func([]float64, int) ([]float64, int) {
	nan := func(v []float64, l int) ([]float64, int) { v[0] = math.NaN(); return v, l }
	inf := func(v []float64, l int) ([]float64, int) { v[1] = math.Inf(1); return v, l }
	lbl := func(v []float64, l int) ([]float64, int) { return v, nc + 3 }
	return map[int]func([]float64, int) ([]float64, int){
		7: nan, 911: inf, 1500: lbl, 4242: nan, 9001: lbl, 11_111: inf,
	}
}

// TestValidationStrict pins the default policy: the first invalid record
// aborts the build with an error naming it.
func TestValidationStrict(t *testing.T) {
	tbl := synth.Generate(synth.F2, 12_000, 7)
	src := &corruptSource{Mem: storage.NewMem(tbl), bad: badRecords(tbl.Schema().NumClasses())}
	_, err := Build(src, Default(CMPS))
	if err == nil {
		t.Fatal("build trained on invalid records under ValidateStrict")
	}
	if !strings.Contains(err.Error(), "record 7") {
		t.Errorf("error does not name the offending record: %v", err)
	}
	if !strings.Contains(err.Error(), "ValidateSkip") {
		t.Errorf("error does not point at the skip remedy: %v", err)
	}
}

// TestValidationSkipDeterminism is ValidateSkip's contract: the same records
// are dropped on every scan, the drop count is reported, and the resulting
// tree is bit-identical for every worker count.
func TestValidationSkipDeterminism(t *testing.T) {
	tbl := synth.Generate(synth.F2, 12_000, 7)
	bad := badRecords(tbl.Schema().NumClasses())

	build := func(workers int) ([]byte, Stats) {
		src := &corruptSource{Mem: storage.NewMem(tbl), bad: bad}
		cfg := Default(CMPS)
		cfg.Validation = ValidateSkip
		cfg.Workers = workers
		res, err := Build(src, cfg)
		if err != nil {
			t.Fatalf("Workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := res.Tree.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), res.Stats
	}

	wantTree, wantStats := build(1)
	if wantStats.SkippedRecords != int64(len(bad)) {
		t.Errorf("SkippedRecords = %d, want %d", wantStats.SkippedRecords, len(bad))
	}
	for _, w := range []int{2, 8} {
		gotTree, gotStats := build(w)
		if !bytes.Equal(gotTree, wantTree) {
			t.Errorf("Workers=%d skip-mode tree differs from serial build", w)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Errorf("Workers=%d stats differ:\n got  %+v\n want %+v", w, gotStats, wantStats)
		}
	}
}

// TestFaultInjectedBuildDeterminism is the tentpole guarantee: a build that
// succeeds under injected transient faults produces a bit-identical tree to
// a fault-free build, at every worker count, because every retried read
// re-delivers exactly the bytes a healthy read would have.
func TestFaultInjectedBuildDeterminism(t *testing.T) {
	tbl := synth.Generate(synth.F2, 12_000, 7)
	path := filepath.Join(t.TempDir(), "fault.rec")
	if _, err := storage.WriteTable(path, tbl); err != nil {
		t.Fatal(err)
	}

	build := func(workers int, fi *storage.FaultInjector) []byte {
		f, err := storage.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f.SetFaultInjector(fi)
		cfg := Default(CMPS)
		cfg.Workers = workers
		res, err := Build(f, cfg)
		if err != nil {
			t.Fatalf("Workers=%d under faults: %v", workers, err)
		}
		if fi != nil {
			if fi.Injected() == 0 {
				t.Errorf("Workers=%d: no faults injected; nothing exercised", workers)
			}
			if f.Stats().Retries == 0 {
				t.Errorf("Workers=%d: Retries = 0 after %d injected faults", workers, fi.Injected())
			}
		}
		var buf bytes.Buffer
		if err := res.Tree.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	want := build(1, nil) // fault-free baseline
	for _, w := range []int{1, 2, 8} {
		got := build(w, storage.NewFaultInjector(1, 7))
		if !bytes.Equal(got, want) {
			t.Errorf("Workers=%d: tree under injected faults differs from fault-free build", w)
		}
	}
}
