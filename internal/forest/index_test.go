package forest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cmpdt/internal/core"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// damagedSource wraps a store and damages the listed records on every scan:
// records a tree may or may not draw, depending on its bootstrap mask.
type damagedSource struct {
	storage.RangeSource
	bad map[int]bool
}

func (d *damagedSource) ScanRange(lo, hi int, stats *storage.Stats, fn func(rid int, vals []float64, label int) error) error {
	return d.RangeSource.ScanRange(lo, hi, stats, func(rid int, vals []float64, label int) error {
		if d.bad[rid] {
			v := append([]float64(nil), vals...)
			v[rid%3] = math.NaN()
			return fn(rid, v, label)
		}
		return fn(rid, vals, label)
	})
}

// TestForestIndexMatchesMaskedBuilds: every tree of a quantized bootstrap
// forest is the tree core.BuildContext grows over that tree's masked view,
// invalid records included. Under ValidateSkip the trees are byte-identical,
// and each tree's index build reports the masked build's Stats in every
// field but Scans (the masked build also scans to discretize and encode)
// and the wall-clock QuantizeNs; under ValidateStrict the forest fails with
// the first failing tree's masked-build error, wrapped as "forest: tree i:
// ...".
func TestForestIndexMatchesMaskedBuilds(t *testing.T) {
	tbl := synth.Generate(synth.F2, 3000, 4)
	src := &damagedSource{RangeSource: storage.NewMem(tbl), bad: map[int]bool{}}
	for _, rid := range []int{17, 901, 902, 2999} {
		src.bad[rid] = true
	}
	idx, err := core.NewIndex(context.Background(), src, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []core.ValidationPolicy{core.ValidateSkip, core.ValidateStrict} {
		cfg := smallConfig(6)
		cfg.FeatureFrac = 0.7
		cfg.Tree.Quantize = true
		cfg.Tree.Workers = 2
		cfg.Tree.Validation = v
		cfg.Parallel = 3
		res, err := Train(src, cfg)

		var wantErr error
		for i := 0; i < cfg.Trees && wantErr == nil; i++ {
			mask := storage.BootstrapMask(tbl.NumRecords(), treeSeed(cfg.Seed, 2*int64(i)))
			view, err := storage.NewMasked(src, mask)
			if err != nil {
				t.Fatal(err)
			}
			tcfg := cfg.Tree
			tcfg.Seed += int64(i)
			tcfg.SplitAttrs = featureSubset(src.Schema(), cfg, -1, i)
			plain, err := core.Build(view, tcfg)
			if err != nil {
				wantErr = fmt.Errorf("forest: tree %d: %w", i, err)
				break
			}
			if res == nil {
				continue
			}
			var got, want bytes.Buffer
			if err := res.Forest.Trees[i].WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if err := plain.Tree.WriteJSON(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Errorf("validation=%d tree %d differs from the masked-view build", v, i)
			}
			indexed, err := core.BuildIndexed(context.Background(), idx, mask, tcfg)
			if err != nil {
				t.Fatal(err)
			}
			gs, ws := indexed.Stats, plain.Stats
			gs.Scans, ws.Scans = 0, 0
			gs.QuantizeNs, ws.QuantizeNs = 0, 0
			if !reflect.DeepEqual(gs, ws) {
				t.Errorf("validation=%d tree %d: index build Stats\n%+v\nmasked-view build Stats\n%+v", v, i, gs, ws)
			}
		}
		switch {
		case wantErr == nil && err != nil:
			t.Fatalf("validation=%d: forest failed with %v, every masked build succeeded", v, err)
		case wantErr != nil && (err == nil || err.Error() != wantErr.Error()):
			t.Fatalf("validation=%d: forest error %v, want %v", v, err, wantErr)
		}
		if (v == core.ValidateStrict) != (wantErr != nil) {
			t.Fatalf("validation=%d: masked builds failed with %v; the damaged records should fail only strict builds", v, wantErr)
		}
	}
}

// TestForestOOBSkipsInvalidRecords: the out-of-bag estimate of a
// classification forest trained under ValidateSkip scores only the records
// training could use. Over F2 with every 10th of 3,000 records damaged, the
// count and error equal a plain vote over the valid records left out of at
// least one tree's bootstrap, raw and quantized.
func TestForestOOBSkipsInvalidRecords(t *testing.T) {
	tbl := synth.Generate(synth.F2, 3000, 6)
	src := &damagedSource{RangeSource: storage.NewMem(tbl), bad: map[int]bool{}}
	for rid := 0; rid < tbl.NumRecords(); rid += 10 {
		src.bad[rid] = true
	}
	for _, quantize := range []bool{false, true} {
		cfg := smallConfig(4)
		cfg.Tree.Quantize = quantize
		cfg.Tree.Validation = core.ValidateSkip
		res, err := Train(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		f := res.Forest
		masks := make([]*storage.Mask, cfg.Trees)
		for i := range masks {
			masks[i] = storage.BootstrapMask(tbl.NumRecords(), treeSeed(cfg.Seed, 2*int64(i)))
		}
		count, wrong, damagedOOB := 0, 0, 0
		for rid := 0; rid < tbl.NumRecords(); rid++ {
			votes := make([]int, tbl.Schema().NumClasses())
			oob := 0
			for i, tr := range f.Trees {
				if masks[i].Count(rid) == 0 {
					votes[tr.Predict(tbl.Row(rid))]++
					oob++
				}
			}
			switch {
			case oob == 0:
			case src.bad[rid]:
				damagedOOB++
			default:
				count++
				best := 0
				for c := range votes {
					if votes[c] > votes[best] {
						best = c
					}
				}
				if best != tbl.Label(rid) {
					wrong++
				}
			}
		}
		if damagedOOB == 0 {
			t.Fatalf("quantize=%v: no damaged record is out of bag; the test proves nothing", quantize)
		}
		if f.OOBCount != count || f.OOBError != float64(wrong)/float64(count) {
			t.Errorf("quantize=%v: OOB count %d error %v, want %d and %v over the valid records (%d damaged ones are out of bag too)",
				quantize, f.OOBCount, f.OOBError, count, float64(wrong)/float64(count), damagedOOB)
		}
	}
}

// TestForestIndexIO: a quantized forest reads its store once, for the
// index (one scan): its trees vote out of bag from the index, so no
// out-of-bag pass reads the store. Its merged report carries the index
// build as one scan and in the init and quantize times.
func TestForestIndexIO(t *testing.T) {
	tbl := synth.Generate(synth.F2, 3000, 2)
	cfg := smallConfig(4)
	cfg.Tree.Quantize = true
	cfg.CollectObs = true
	res, err := Train(storage.NewMem(tbl), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Forest.OOBCount == 0 {
		t.Fatal("no out-of-bag record; the test proves nothing")
	}
	if res.IO.Scans != 1 || res.IO.RecordsRead != int64(tbl.NumRecords()) {
		t.Errorf("forest I/O %+v, want one scan of %d records", res.IO, tbl.NumRecords())
	}
	rep := res.Report
	if rep.IO.Scans != res.IO.Scans {
		t.Errorf("report IO scans %d != result %d", rep.IO.Scans, res.IO.Scans)
	}
	if rep.Quant.QuantizeNs <= 0 || rep.PhaseTotals["init"].Ns < rep.Quant.QuantizeNs {
		t.Errorf("quantize %d ns, init %d ns: the init phase must hold every quantize walk and the index build",
			rep.Quant.QuantizeNs, rep.PhaseTotals["init"].Ns)
	}
	if rep.Rounds[0].Scans != 1 {
		t.Errorf("round 0 counts %d scans, want the index's one", rep.Rounds[0].Scans)
	}
}

// tripSource cancels a context once its first scan has delivered after
// records, and notes when that first scan (the forest's index build) has
// run to completion.
type tripSource struct {
	storage.RangeSource
	after   int64
	cancel  func()
	seen    atomic.Int64
	scanned atomic.Bool
}

func (s *tripSource) ScanRange(lo, hi int, stats *storage.Stats, fn func(rid int, vals []float64, label int) error) error {
	err := s.RangeSource.ScanRange(lo, hi, stats, func(rid int, vals []float64, label int) error {
		if s.seen.Add(1) == s.after {
			s.cancel()
		}
		return fn(rid, vals, label)
	})
	if err == nil {
		s.scanned.Store(true)
	}
	return err
}

// tripCtx cancels itself on the trip-th Err call made after armed reports
// true: a cancellation landing at a deterministic point of the work that
// follows.
type tripCtx struct {
	context.Context
	cancel func()
	armed  func() bool
	calls  atomic.Int64
	trip   int64
}

func (c *tripCtx) Err() error {
	if c.armed() && c.calls.Add(1) == c.trip {
		c.cancel()
	}
	return c.Context.Err()
}

// TestForestCancel cancels a quantized forest over a disk-resident store
// twice: during the index build's scan, and after it, inside the tree
// builds. Both return context.Canceled, leak no goroutines and leave no
// temporary file behind.
func TestForestCancel(t *testing.T) {
	tbl := synth.Generate(synth.F2, 20_000, 8)
	path := filepath.Join(t.TempDir(), "f2.rec")
	if _, err := storage.WriteTable(path, tbl); err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	cfg := smallConfig(6)
	cfg.Tree.Quantize = true
	cfg.Tree.Workers = 2
	cfg.Parallel = 2
	cfg.Tree.CacheBytes = 8 << 20

	check := func(name string, err error, base int) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v, want context.Canceled", name, err)
		}
		waitGoroutines(t, base)
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Errorf("%s: %d temporary files left behind", name, len(left))
		}
	}

	t.Run("index", func(t *testing.T) {
		base := runtime.NumGoroutine()
		f, err := storage.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &tripSource{RangeSource: f, after: 5000, cancel: cancel}
		_, err = TrainContext(ctx, src, cfg)
		check("index", err, base)
		if src.scanned.Load() {
			t.Error("the index scan completed; the cancellation should have stopped it")
		}
	})

	t.Run("trees", func(t *testing.T) {
		base := runtime.NumGoroutine()
		f, err := storage.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		parent, cancel := context.WithCancel(context.Background())
		defer cancel()
		src := &tripSource{RangeSource: f}
		ctx := &tripCtx{Context: parent, cancel: cancel, armed: src.scanned.Load, trip: 30}
		_, err = TrainContext(ctx, src, cfg)
		check("trees", err, base)
		if !src.scanned.Load() {
			t.Error("the index scan did not complete; the cancellation should land in the tree builds")
		}
		if !strings.HasPrefix(err.Error(), "forest: tree ") {
			t.Errorf("error %q did not come from a tree build", err)
		}
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
