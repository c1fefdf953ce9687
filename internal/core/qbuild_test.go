package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/quantile"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

// treeAccuracy scores a tree against the raw table it was trained on.
func treeAccuracy(tr *tree.Tree, tbl *dataset.Table) float64 {
	correct := 0
	for i := 0; i < tbl.NumRecords(); i++ {
		if tr.Predict(tbl.Row(i)) == tbl.Label(i) {
			correct++
		}
	}
	return float64(correct) / float64(tbl.NumRecords())
}

// clearWallClock zeroes the one non-deterministic build statistic so stats
// can be compared across runs.
func clearWallClock(s Stats) Stats {
	s.QuantizeNs = 0
	return s
}

// TestQuantizedBuildDeterminism is the quantized half of the determinism
// contract: a bin-coded build yields the byte-identical tree and identical
// build statistics at every worker count, cache setting, and source kind
// (the in-memory encode target and the temporary CMPDQ1 file behave the
// same, because the quantization tables come from the same record prefix).
func TestQuantizedBuildDeterminism(t *testing.T) {
	tbl := synth.Generate(synth.F2, 20_000, 7)
	mem := storage.NewMem(tbl)

	path := filepath.Join(t.TempDir(), "qdet.rec")
	if _, err := storage.WriteTable(path, tbl); err != nil {
		t.Fatal(err)
	}
	file, err := storage.OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Default(CMPB)
	cfg.Quantize = true
	cfg.Workers = 1
	wantTree, wantStats, _ := buildOnce(t, mem, cfg)
	wantStats = clearWallClock(wantStats)
	if !wantStats.Quantized {
		t.Fatal("Stats.Quantized unset on a quantized build")
	}
	if wantStats.DenseScanRounds != wantStats.Rounds || wantStats.IntervalScanRounds != 0 {
		t.Fatalf("round kinds: dense=%d interval=%d rounds=%d",
			wantStats.DenseScanRounds, wantStats.IntervalScanRounds, wantStats.Rounds)
	}
	if wantStats.QuantizeNs != 0 {
		t.Fatal("clearWallClock failed") // defensive: the comparison below relies on it
	}
	if len(wantStats.QuantBinsPerAttr) != tbl.Schema().NumAttrs() {
		t.Fatalf("QuantBinsPerAttr has %d entries, want %d",
			len(wantStats.QuantBinsPerAttr), tbl.Schema().NumAttrs())
	}

	sources := []struct {
		name string
		src  storage.Source
	}{{"mem", mem}, {"file", file}}
	for _, sc := range sources {
		for _, w := range []int{1, 2, 8} {
			for _, cache := range []int64{0, 2 * storage.PageSize, 64 << 20} {
				name := fmt.Sprintf("%s/workers=%d/cache=%d", sc.name, w, cache)
				t.Run(name, func(t *testing.T) {
					cfg := Default(CMPB)
					cfg.Quantize = true
					cfg.Workers = w
					cfg.CacheBytes = cache
					gotTree, gotStats, _ := buildOnce(t, sc.src, cfg)
					if !bytes.Equal(gotTree, wantTree) {
						t.Error("tree differs from the serial in-memory quantized build")
					}
					if got := clearWallClock(gotStats); !reflect.DeepEqual(got, wantStats) {
						t.Errorf("stats differ:\n got  %+v\n want %+v", got, wantStats)
					}
				})
			}
		}
	}
}

// TestQuantizedAccuracyAgrawal is the differential suite: on every Agrawal
// function the quantized build's training accuracy stays within epsilon of
// the raw build's. Bin coding moves split thresholds onto the equal-depth
// percentile grid, so small differences are expected; large ones would mean
// the dense scan miscounts.
func TestQuantizedAccuracyAgrawal(t *testing.T) {
	const n = 20_000
	const eps = 0.025
	for fn := synth.F1; fn <= synth.F10; fn++ {
		t.Run(fn.String(), func(t *testing.T) {
			tbl := synth.Generate(fn, n, 7)
			src := storage.NewMem(tbl)

			raw, err := Build(src, Default(CMPB))
			if err != nil {
				t.Fatal(err)
			}
			cfg := Default(CMPB)
			cfg.Quantize = true
			quant, err := Build(src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rawAcc := treeAccuracy(raw.Tree, tbl)
			quantAcc := treeAccuracy(quant.Tree, tbl)
			if diff := math.Abs(rawAcc - quantAcc); diff > eps {
				t.Errorf("accuracy gap %.4f exceeds %.3f (raw %.4f, quantized %.4f)",
					diff, eps, rawAcc, quantAcc)
			}
			if raw.Stats.Quantized || raw.Stats.IntervalScanRounds != raw.Stats.Rounds {
				t.Errorf("raw build misreports scan kind: %+v", raw.Stats)
			}
		})
	}
}

// TestQuantizedCMPFullRejected pins the documented restriction: linear
// splits are not searched in code space, so every quantized build of full
// CMP — Quantize, a pre-quantized source, BuildIndexed — fails with an
// error naming Quantize and pointing to CMP-B, instead of building CMP-B
// under CMP's name.
func TestQuantizedCMPFullRejected(t *testing.T) {
	tbl := synth.Generate(synth.F2, 2_000, 7)
	cfg := Default(CMPFull)
	_, qm, _ := quantizeTable(t, tbl, 32, t.TempDir()+"/f2.qrec")
	ix, err := NewIndex(context.Background(), storage.NewMem(tbl), 1)
	if err != nil {
		t.Fatal(err)
	}
	quantized := cfg
	quantized.Quantize = true
	for name, build := range map[string]func() (*Result, error){
		"Quantize":             func() (*Result, error) { return Build(storage.NewMem(tbl), quantized) },
		"pre-quantized source": func() (*Result, error) { return Build(qm, cfg) },
		"BuildIndexed": func() (*Result, error) {
			return BuildIndexed(context.Background(), ix, storage.FullMask(tbl.NumRecords()), cfg)
		},
	} {
		if _, err := build(); err == nil || !strings.Contains(err.Error(), "Quantize") || !strings.Contains(err.Error(), "cmp-b") {
			t.Errorf("%s: err %v, want the Quantize error naming cmp-b", name, err)
		}
	}
}

// quantizeTable builds explicit code tables over a raw table (see
// tableQuantizer) and encodes it into both CodeSource implementations.
func quantizeTable(t *testing.T, tbl *dataset.Table, bins int, path string) (*storage.Quantizer, *storage.QuantMem, *storage.QuantFile) {
	t.Helper()
	qz := tableQuantizer(t, tbl, bins)
	qm := storage.NewQuantMem(qz)
	w, err := storage.CreateQuantFile(path, qz)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tbl.NumRecords(); i++ {
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
	return qz, qm, qf
}

// tableQuantizer builds explicit code tables over a raw table: equal-depth
// cuts at the given resolution, observed maxima as top-bin representatives.
func tableQuantizer(t *testing.T, tbl *dataset.Table, bins int) *storage.Quantizer {
	t.Helper()
	schema := tbl.Schema()
	attrs := make([]storage.QuantAttr, schema.NumAttrs())
	for a := 0; a < schema.NumAttrs(); a++ {
		if schema.Attrs[a].Kind != dataset.Numeric {
			continue
		}
		col := tbl.Column(a)
		d, err := quantile.EqualDepth(col, bins)
		if err != nil {
			t.Fatal(err)
		}
		max := math.Inf(-1)
		for _, v := range col {
			if v > max {
				max = v
			}
		}
		cuts := d.Cuts()
		if len(cuts) > 0 && max <= cuts[len(cuts)-1] {
			max = math.Nextafter(cuts[len(cuts)-1], math.Inf(1))
		}
		attrs[a] = storage.QuantAttr{Cuts: cuts, Max: max}
	}
	qz, err := storage.NewQuantizer(schema, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return qz
}

// TestQuantizedPreQuantizedSource pins the pass-through path: a CMPDQ1 store
// (or its in-memory twin) feeds the dense builder directly — no quantization
// pass, scans equal rounds exactly — and every emitted numeric threshold is
// one of the store's own breakpoints, i.e. raw feature units.
func TestQuantizedPreQuantizedSource(t *testing.T) {
	tbl := synth.Generate(synth.F2, 15_000, 7)
	qz, qm, qf := quantizeTable(t, tbl, 100, filepath.Join(t.TempDir(), "pq.rec"))

	cfg := Default(CMPB) // note: Quantize unset; the source kind selects the path
	memTree, memStats, memIO := buildOnce(t, qm, cfg)
	fileTree, fileStats, _ := buildOnce(t, qf, cfg)

	if !bytes.Equal(memTree, fileTree) {
		t.Error("QuantMem and QuantFile builds disagree")
	}
	if !memStats.Quantized || memStats.QuantizeNs != 0 {
		t.Errorf("pass-through stats: %+v", memStats)
	}
	if memStats.Scans != memStats.Rounds {
		t.Errorf("pass-through build scanned %d times over %d rounds (no encode pass expected)",
			memStats.Scans, memStats.Rounds)
	}
	if memIO.Scans != int64(memStats.Scans) {
		t.Errorf("storage counted %d scans, build counted %d", memIO.Scans, memStats.Scans)
	}
	if !reflect.DeepEqual(clearWallClock(memStats), clearWallClock(fileStats)) {
		t.Errorf("stats differ between code sources:\n mem  %+v\n file %+v", memStats, fileStats)
	}

	res, err := Build(qm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		if n == nil || n.Split == nil {
			return
		}
		if s := n.Split; s.Kind == tree.SplitNumeric {
			found := false
			for c := 0; c < qz.Bins(s.Attr)-1 && !found; c++ {
				found = qz.Threshold(s.Attr, c) == s.Threshold
			}
			if !found {
				t.Errorf("attr %d threshold %v is not a quantizer breakpoint", s.Attr, s.Threshold)
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(res.Tree.Root)
	if acc := treeAccuracy(res.Tree, tbl); acc < 0.9 {
		t.Errorf("pre-quantized build training accuracy %.3f, want >= 0.9", acc)
	}
}

// TestQuantizedValidationModes covers the quantization pass's record
// validation: strict aborts naming the first bad record, skip drops the
// defects once at encode (so rounds scan only valid records) and reports
// the count.
func TestQuantizedValidationModes(t *testing.T) {
	tbl := synth.Generate(synth.F2, 12_000, 7)
	bad := badRecords(tbl.Schema().NumClasses())

	cfg := Default(CMPB)
	cfg.Quantize = true
	src := &corruptSource{Mem: storage.NewMem(tbl), bad: bad}
	_, err := Build(src, cfg)
	if err == nil || !strings.Contains(err.Error(), "record 7") {
		t.Fatalf("strict quantized build: err = %v, want one naming record 7", err)
	}

	cfg.Validation = ValidateSkip
	res, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SkippedRecords != int64(len(bad)) {
		t.Errorf("SkippedRecords = %d, want %d", res.Stats.SkippedRecords, len(bad))
	}
	res2, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b2 bytes.Buffer
	if err := res.Tree.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := res2.Tree.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("skip-mode quantized build is not reproducible")
	}
}
