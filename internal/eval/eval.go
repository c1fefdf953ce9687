// Package eval runs the paper's algorithms under one harness and reports
// uniform measurements: wall-clock time, a deterministic I/O cost model,
// scan counts, peak memory, tree shape, and accuracy. Every figure and
// table of the evaluation is regenerated through this package.
package eval

import (
	"context"
	"fmt"
	"slices"
	"time"

	"cmpdt/internal/attrlist"
	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
	"cmpdt/internal/window"
)

// Algorithm names accepted by Run.
const (
	AlgoCMPS       = "cmp-s"
	AlgoCMPB       = "cmp-b"
	AlgoCMP        = "cmp"
	AlgoSPRINT     = "sprint"
	AlgoSLIQ       = "sliq"
	AlgoCLOUDS     = "clouds"
	AlgoCLOUDSSS   = "clouds-ss"
	AlgoRainForest = "rainforest"
	AlgoWindow     = "window"
)

// Algorithms lists every runnable algorithm in presentation order.
func Algorithms() []string {
	return []string{AlgoCMPS, AlgoCMPB, AlgoCMP, AlgoSPRINT, AlgoSLIQ, AlgoCLOUDS, AlgoCLOUDSSS, AlgoRainForest, AlgoWindow}
}

// Options tunes a run. Zero values select the defaults shared across
// algorithms so comparisons stay apples-to-apples.
type Options struct {
	// Tree is the one knob table every algorithm reads, validated (and its
	// defaults filled) by core.Config.Validate before any algorithm runs.
	// The CMP family and CLOUDS build with it on the core engine, Algorithm
	// set from the run's algorithm name (a nonzero Algorithm must agree
	// with it); core rejects Quantize and ObliqueAllPairs for CLOUDS. The
	// other baselines read MaxDepth, PurityStop, SplitAttrs and
	// DisablePruning, and stop at exact.MinSplitRecords and
	// exact.MinGiniGain like a CMP build; RainForest also reads
	// InMemoryNodeRecords, and windowing Seed. They reject a nonzero
	// Algorithm, Quantize, QuantizeBins, ValidateSkip and ObliqueAllPairs,
	// which they cannot honour. Workers, CacheBytes and Obs are accepted
	// for every algorithm, because none of them can change a tree: those
	// baselines build serially and are not instrumented, and CacheBytes
	// sizes the source's page cache for whichever algorithm scans it.
	Tree core.Config
}

// coreAlgorithms maps the run names the core engine builds to its
// algorithms.
var coreAlgorithms = map[string]core.Algorithm{
	AlgoCMPS: core.CMPS, AlgoCMPB: core.CMPB, AlgoCMP: core.CMPFull,
	AlgoCLOUDS: core.CLOUDSSSE, AlgoCLOUDSSS: core.CLOUDSSS,
}

// Validate checks o for the named algorithm and returns it with Tree
// validated (core.Config.Validate) and, for the core engine's algorithms,
// Algorithm set from the name. RunContext calls it before it dispatches,
// so a run touches no data under a config it would reject.
func (o Options) Validate(algo string) (Options, error) {
	cfg := &o.Tree
	cmp, isCore := coreAlgorithms[algo]
	switch {
	case isCore:
		if cfg.Algorithm != core.CMPS && cfg.Algorithm != cmp {
			return o, fmt.Errorf("eval: Tree.Algorithm %v disagrees with algorithm %q", cfg.Algorithm, algo)
		}
		cfg.Algorithm = cmp
	case slices.Contains(Algorithms(), algo):
		for _, k := range []struct {
			name string
			set  bool
		}{
			{"Algorithm", cfg.Algorithm != core.CMPS}, {"Quantize", cfg.Quantize},
			{"QuantizeBins", cfg.QuantizeBins != 0},
			{"Validation=ValidateSkip", cfg.Validation == core.ValidateSkip},
			{"ObliqueAllPairs", cfg.ObliqueAllPairs},
		} {
			if k.set {
				return o, fmt.Errorf("eval: %s cannot honour Tree.%s (core engine only)", algo, k.name)
			}
		}
	default:
		return o, fmt.Errorf("eval: unknown algorithm %q (have %v)", algo, Algorithms())
	}
	var err error
	o.Tree, err = o.Tree.Validate()
	return o, err
}

// CostModel converts metered I/O into deterministic "simulated seconds", so
// the figures' shapes do not depend on the benchmarking machine. Sequential
// bandwidth dominates decision-tree construction on disk-resident data.
type CostModel struct {
	// SeqBytesPerSec is the modelled sequential scan bandwidth.
	SeqBytesPerSec float64
}

// DefaultCostModel approximates late-90s sequential disk bandwidth, the
// regime of the paper's Ultra SPARC 10 testbed.
var DefaultCostModel = CostModel{SeqBytesPerSec: 8 << 20}

// Seconds converts a byte volume to modelled seconds.
func (c CostModel) Seconds(bytes int64) float64 {
	return float64(bytes) / c.SeqBytesPerSec
}

// RunResult is one measurement row.
type RunResult struct {
	Algorithm string
	N         int

	WallTime time.Duration
	// SimSeconds is the cost-model time over all metered I/O (dataset scans
	// plus auxiliary traffic such as SPRINT's attribute lists and the
	// swapped nid arrays).
	SimSeconds float64

	Scans        int64
	BytesRead    int64
	PagesRead    int64
	AuxBytesIO   int64 // attribute lists, nid swaps
	PeakMemBytes int64
	// Retries counts transient read failures the storage layer absorbed
	// (nonzero only for fault-prone sources, e.g. under fault injection).
	Retries int64

	TreeNodes  int
	TreeLeaves int
	TreeDepth  int
	Oblique    int

	// Skipped is the number of invalid records dropped per training pass
	// under Tree.Validation = ValidateSkip (core engine only).
	Skipped int64

	TrainAccuracy float64
	TestAccuracy  float64

	// IOStats is the source's full cumulative I/O accounting for the run.
	IOStats storage.Stats
	// CoreStats carries the core engine's build statistics: the CMP
	// family's and CLOUDS'. Nil for SPRINT, SLIQ, RainForest and windowing.
	CoreStats *core.Stats
}

// Run trains the named algorithm over src, optionally computing train/test
// accuracy against the given tables (either may be nil).
func Run(algo string, src storage.Source, trainTbl, testTbl *dataset.Table, opts Options) (*RunResult, *tree.Tree, error) {
	return RunContext(context.Background(), algo, src, trainTbl, testTbl, opts)
}

// RunContext is Run with cancellation: the core engine's algorithms abort
// between scan batches when ctx is cancelled and return ctx's error. The
// remaining algorithms currently run to completion.
func RunContext(ctx context.Context, algo string, src storage.Source, trainTbl, testTbl *dataset.Table, opts Options) (*RunResult, *tree.Tree, error) {
	opts, err := opts.Validate(algo)
	if err != nil {
		return nil, nil, err
	}
	cfg := opts.Tree
	if cfg.CacheBytes > 0 {
		if c, ok := src.(storage.Cacheable); ok {
			c.SetCacheBytes(cfg.CacheBytes)
		}
	}
	src.ResetStats()
	start := time.Now()

	if _, isCore := coreAlgorithms[algo]; isCore {
		res, err := core.BuildContext(ctx, src, cfg)
		if err != nil {
			return nil, nil, err
		}
		// res.IO, not src.Stats(): a quantized build's round scans run
		// against the bin-coded store (possibly a temporary file), whose
		// accounting lives in res.IO alongside the raw source's passes.
		r := finish(algo, src, res.IO, start, res.Tree, res.Stats.NidBytesIO, res.Stats.PeakMemoryBytes,
			res.Stats.ObliqueSplits, trainTbl, testTbl)
		r.Skipped = res.Stats.SkippedRecords
		st := res.Stats
		r.CoreStats = &st
		return r, res.Tree, nil
	}
	allowed, err := core.SplitAttrMask(cfg.SplitAttrs, src.Schema().NumAttrs())
	if err != nil {
		return nil, nil, err
	}
	ec := exact.Config{
		MinSplitRecords: exact.MinSplitRecords, MaxDepth: cfg.MaxDepth, MinGiniGain: exact.MinGiniGain,
		PurityStop: cfg.PurityStop, AllowedAttrs: allowed, Prune: !cfg.DisablePruning,
	}
	if algo == AlgoWindow {
		ec.Prune = false // windowing keeps each window's full tree
		res, err := window.Build(src, ec, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		mem := int64(res.Stats.FinalWindow) * int64(src.Schema().NumAttrs()+1) * 8
		return finish(algo, src, src.Stats(), start, res.Tree, 0, mem, 0, trainTbl, testTbl), res.Tree, nil
	}
	layout := map[string]attrlist.Layout{
		AlgoSPRINT: attrlist.SPRINT, AlgoSLIQ: attrlist.SLIQ,
		AlgoRainForest: attrlist.RainForest(cfg.InMemoryNodeRecords),
	}[algo]
	res, err := attrlist.Build(src, ec, layout)
	if err != nil {
		return nil, nil, err
	}
	// The layout reads the source res.Scans times; it was loaded once.
	io := src.Stats()
	io.Scans, io.RecordsRead, io.BytesRead, io.PagesRead =
		res.Scans*io.Scans, res.Scans*io.RecordsRead, res.Scans*io.BytesRead, res.Scans*io.PagesRead
	return finish(algo, src, io, start, res.Tree, res.AuxBytesIO, res.PeakMemoryBytes, 0, trainTbl, testTbl), res.Tree, nil
}

func finish(algo string, src storage.Source, io storage.Stats, start time.Time, t *tree.Tree, aux, mem int64, oblique int, trainTbl, testTbl *dataset.Table) *RunResult {
	wall := time.Since(start)
	r := &RunResult{
		Algorithm:    algo,
		N:            src.NumRecords(),
		IOStats:      io,
		WallTime:     wall,
		SimSeconds:   DefaultCostModel.Seconds(io.BytesRead + io.BytesWritten + aux),
		Scans:        io.Scans,
		BytesRead:    io.BytesRead,
		PagesRead:    io.PagesRead,
		AuxBytesIO:   aux,
		PeakMemBytes: mem,
		Retries:      io.Retries,
		TreeNodes:    t.Size(),
		TreeLeaves:   t.Leaves(),
		TreeDepth:    t.Depth(),
		Oblique:      oblique,
	}
	if trainTbl != nil || testTbl != nil {
		c := tree.Compile(t)
		if trainTbl != nil {
			r.TrainAccuracy = accuracyCompiled(c, trainTbl)
		}
		if testTbl != nil {
			r.TestAccuracy = accuracyCompiled(c, testTbl)
		}
	}
	return r
}

// Accuracy returns the fraction of tbl's records the tree classifies
// correctly. The tree is compiled once and evaluated through the flat
// representation over zero-copy row views, so the per-record loop performs
// no allocation.
func Accuracy(t *tree.Tree, tbl *dataset.Table) float64 {
	n := tbl.NumRecords()
	if n == 0 {
		return 0
	}
	return accuracyCompiled(tree.Compile(t), tbl)
}

func accuracyCompiled(c *tree.Compiled, tbl *dataset.Table) float64 {
	n := tbl.NumRecords()
	if n == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < n; i++ {
		if c.Predict(tbl.Row(i)) == tbl.Label(i) {
			correct++
		}
	}
	return float64(correct) / float64(n)
}

// Confusion returns the confusion matrix counts[actual][predicted],
// evaluating through the compiled flat tree like Accuracy.
func Confusion(t *tree.Tree, tbl *dataset.Table) [][]int {
	return confusionCompiled(tree.Compile(t), tbl)
}

func confusionCompiled(c *tree.Compiled, tbl *dataset.Table) [][]int {
	nc := tbl.Schema().NumClasses()
	m := make([][]int, nc)
	for i := range m {
		m[i] = make([]int, nc)
	}
	for i := 0; i < tbl.NumRecords(); i++ {
		m[tbl.Label(i)][c.Predict(tbl.Row(i))]++
	}
	return m
}
