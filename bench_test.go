// Benchmarks regenerating every table and figure of the paper's evaluation
// section, plus ablations of the design choices DESIGN.md calls out. Run:
//
//	go test -bench=. -benchmem
//
// Sizes are laptop-scale; the shapes (who wins, by what factor) are what is
// being reproduced — cmd/cmpbench -full runs the paper's record counts.
package cmpdt_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cmpdt"
	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/eval"
	"cmpdt/internal/experiments"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// benchN is the record count used by the figure benchmarks.
const benchN = 50_000

func benchOpts() experiments.Opts {
	o := experiments.Defaults()
	o.Sizes = []int{benchN}
	return o
}

func reportRows(b *testing.B, rows []experiments.Row) {
	b.Helper()
	for _, r := range rows {
		b.ReportMetric(r.SimSeconds, r.Algorithm+"-sim-s")
	}
}

// BenchmarkTable1SplitFidelity regenerates Table 1: the first split chosen
// by CMP-S versus the exact algorithm across six datasets and two interval
// counts each.
func BenchmarkTable1SplitFidelity(b *testing.B) {
	o := benchOpts()
	o.N = benchN
	for i := 0; i < b.N; i++ {
		rows, err := o.Table1()
		if err != nil {
			b.Fatal(err)
		}
		matches := 0
		for _, r := range rows {
			if r.AttrMatch {
				matches++
			}
		}
		b.ReportMetric(float64(matches), "attr-matches")
		b.ReportMetric(float64(len(rows)), "rows")
	}
}

// BenchmarkFig14ScalabilityF2 regenerates Figure 14: CMP-S/CMP-B/CMP
// running time on Function 2.
func BenchmarkFig14ScalabilityF2(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := o.Scalability(synth.F2)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// BenchmarkFig15ScalabilityF7 regenerates Figure 15 on Function 7, whose
// larger tree makes construction slower.
func BenchmarkFig15ScalabilityF7(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := o.Scalability(synth.F7)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// BenchmarkFig16ComparisonF2 regenerates Figure 16: CMP against SPRINT,
// RainForest and CLOUDS on Function 2.
func BenchmarkFig16ComparisonF2(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := o.Comparison(synth.F2)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// BenchmarkFig17ComparisonF7 regenerates Figure 17 on Function 7.
func BenchmarkFig17ComparisonF7(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := o.Comparison(synth.F7)
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
	}
}

// BenchmarkFig18FunctionF regenerates Figure 18: the linearly-correlated
// workload where CMP's multivariate split yields a two-level tree.
func BenchmarkFig18FunctionF(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := o.FunctionF()
		if err != nil {
			b.Fatal(err)
		}
		reportRows(b, rows)
		for _, r := range rows {
			if r.Algorithm == eval.AlgoCMP {
				b.ReportMetric(float64(r.Depth), "cmp-depth")
				b.ReportMetric(float64(r.Oblique), "cmp-oblique")
			}
		}
	}
}

// BenchmarkFig19Memory regenerates Figure 19: peak memory across the
// algorithms.
func BenchmarkFig19Memory(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rows, err := o.Memory()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.MemoryMB, r.Algorithm+"-MB")
		}
	}
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationMaxAlive varies the alive-interval budget N: more alive
// intervals buffer more records but track the exact split more closely.
func BenchmarkAblationMaxAlive(b *testing.B) {
	for _, alive := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("N=%d", alive), func(b *testing.B) {
			tbl := synth.Generate(synth.F2, benchN, 1)
			for i := 0; i < b.N; i++ {
				cfg := core.Default(core.CMPS)
				cfg.MaxAlive = alive
				res, err := core.Build(storage.NewMem(tbl), cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.BufferedRecords), "buffered")
				b.ReportMetric(float64(res.Stats.Scans), "scans")
			}
		})
	}
}

// BenchmarkAblationIntervals varies the discretization granularity q, the
// knob Table 1 studies.
func BenchmarkAblationIntervals(b *testing.B) {
	for _, q := range []int{10, 25, 50, 100, 120} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			tbl := synth.Generate(synth.F2, benchN, 1)
			for i := 0; i < b.N; i++ {
				cfg := core.Default(core.CMPS)
				cfg.Intervals = q
				res, err := core.Build(storage.NewMem(tbl), cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.Scans), "scans")
				b.ReportMetric(float64(res.Tree.Leaves()), "leaves")
			}
		})
	}
}

// BenchmarkAblationPrediction isolates CMP-B's split prediction: the same
// workload under CMP-S (no prediction) and CMP-B, reporting scans saved and
// the prediction hit rate.
func BenchmarkAblationPrediction(b *testing.B) {
	for _, algo := range []core.Algorithm{core.CMPS, core.CMPB} {
		b.Run(algo.String(), func(b *testing.B) {
			tbl := synth.Generate(synth.F7, benchN, 1)
			for i := 0; i < b.N; i++ {
				res, err := core.Build(storage.NewMem(tbl), core.Default(algo))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.Scans), "scans")
				if res.Stats.PredictionTotal > 0 {
					b.ReportMetric(float64(res.Stats.PredictionHits)/float64(res.Stats.PredictionTotal), "hit-rate")
				}
				b.ReportMetric(float64(res.Stats.DoubleSplits), "double-splits")
			}
		})
	}
}

// BenchmarkAblationObliqueAllPairs compares full CMP with the paper's N-1
// matrices against the all-pairs extension on the linearly-correlated
// workload.
func BenchmarkAblationObliqueAllPairs(b *testing.B) {
	for _, allPairs := range []bool{false, true} {
		b.Run(fmt.Sprintf("allPairs=%v", allPairs), func(b *testing.B) {
			tbl := synth.Generate(synth.FPaper, benchN, 7)
			for i := 0; i < b.N; i++ {
				cfg := core.Default(core.CMPFull)
				cfg.ObliqueAllPairs = allPairs
				res, err := core.Build(storage.NewMem(tbl), cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.ObliqueSplits), "oblique")
				b.ReportMetric(float64(res.Tree.Leaves()), "leaves")
				b.ReportMetric(float64(res.Stats.PeakMemoryBytes)/(1<<20), "mem-MB")
			}
		})
	}
}

// BenchmarkAblationPruning measures the PUBLIC(1) pruning pass's effect on
// tree size and construction work.
func BenchmarkAblationPruning(b *testing.B) {
	for _, prune := range []bool{true, false} {
		b.Run(fmt.Sprintf("prune=%v", prune), func(b *testing.B) {
			noisy := newNoisy(b)
			for i := 0; i < b.N; i++ {
				cfg := core.Default(core.CMPS)
				cfg.DisablePruning = !prune
				res, err := core.Build(storage.NewMem(noisy), cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Tree.Leaves()), "leaves")
				b.ReportMetric(float64(res.Stats.Scans), "scans")
			}
		})
	}
}

func newNoisy(b *testing.B) *dataset.Table {
	b.Helper()
	tbl := dataset.MustNew(synth.Schema())
	if err := synth.GenerateTo(tbl, synth.F2, benchN, 9, synth.Options{Noise: 0.05}); err != nil {
		b.Fatal(err)
	}
	return tbl
}

// BenchmarkCorePrimitives covers the hot inner loops.
func BenchmarkCorePrimitives(b *testing.B) {
	b.Run("TrainCMPB50k", func(b *testing.B) {
		tbl := synth.Generate(synth.F2, benchN, 1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := core.Build(storage.NewMem(tbl), core.Default(core.CMPB)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Predict", func(b *testing.B) {
		tbl := synth.Generate(synth.F2, benchN, 1)
		res, err := core.Build(storage.NewMem(tbl), core.Default(core.CMPB))
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res.Tree.Predict(tbl.Row(i % tbl.NumRecords()))
		}
	})
}

// BenchmarkForestIndexed times the forest build of perfbench's train-forest
// workload: an 8-tree quantized CMP-B forest (FeatureFrac 0.7, Parallel 2,
// Workers 1) over 50k Function-2 records with 5% label noise, read from a
// CMPDT2 file through a page cache of twice the store. Every tree
// quantizes its bootstrap view from one index of the store. Profile it
// with
//
//	go test -run '^$' -bench BenchmarkForestIndexed -benchtime 20x -cpuprofile cpu.out .
func BenchmarkForestIndexed(b *testing.B) {
	path := filepath.Join(b.TempDir(), "f2.rec")
	w, err := storage.CreateFile(path, synth.Schema())
	if err != nil {
		b.Fatal(err)
	}
	if err := synth.GenerateTo(w, synth.F2, benchN, 1, synth.Options{Noise: 0.05}); err != nil {
		w.Abort()
		b.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		b.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	cfg := cmpdt.ForestConfig{
		Trees:       8,
		FeatureFrac: 0.7,
		Parallel:    2,
		Tree: cmpdt.Config{
			Algorithm:  cmpdt.CMPB,
			Quantize:   true,
			Workers:    1,
			CacheBytes: 2 * st.Size(),
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cmpdt.TrainForestFile(path, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchN)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkQuantizedTreeFile times the model training of perfbench's
// serve-predict set-up: one quantized CMP-B tree (Workers 2) over 50k
// Function-7 records with 5% label noise, read from a CMPDT2 file. The
// quantize pass (sample sort, cuts, encode) is about half of it. Profile
// it with
//
//	go test -run '^$' -bench BenchmarkQuantizedTreeFile -benchtime 20x -cpuprofile cpu.out .
func BenchmarkQuantizedTreeFile(b *testing.B) {
	path := filepath.Join(b.TempDir(), "f7.rec")
	w, err := storage.CreateFile(path, synth.Schema())
	if err != nil {
		b.Fatal(err)
	}
	if err := synth.GenerateTo(w, synth.F7, benchN, 1, synth.Options{Noise: 0.05}); err != nil {
		w.Abort()
		b.Fatal(err)
	}
	if _, err := w.Close(); err != nil {
		b.Fatal(err)
	}
	cfg := cmpdt.Config{Algorithm: cmpdt.CMPB, Quantize: true, Workers: 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cmpdt.TrainFile(path, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(benchN)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}
