// Package eval runs the paper's algorithms under one harness and reports
// uniform measurements: wall-clock time, a deterministic I/O cost model,
// scan counts, peak memory, tree shape, and accuracy. Every figure and
// table of the evaluation is regenerated through this package.
package eval

import (
	"context"
	"fmt"
	"time"

	"cmpdt/internal/clouds"
	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/obs"
	"cmpdt/internal/rainforest"
	"cmpdt/internal/sliq"
	"cmpdt/internal/sprint"
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
	// Intervals for the discretizing algorithms (CMP family, CLOUDS).
	Intervals int
	// MaxAlive intervals per split.
	MaxAlive int
	// InMemoryNodeRecords bottoms out subtrees in memory (all algorithms).
	InMemoryNodeRecords int
	// RFBufferEntries sizes RainForest's AVC buffer (default 2.5M).
	RFBufferEntries int
	// ObliqueAllPairs enables full CMP's all-pairs extension.
	ObliqueAllPairs bool
	// Prune applies MDL/PUBLIC(1) pruning (default true via PruneOff=false).
	PruneOff bool
	// Seed drives sampling and the CMP root X-axis.
	Seed int64
	// MaxDepth caps tree depth (default 32).
	MaxDepth int
	// PurityStop, when positive, stops splitting nodes whose majority class
	// covers at least this fraction of records (applied uniformly to every
	// algorithm).
	PurityStop float64
	// Workers sets the CMP family's build parallelism (goroutines for the
	// per-round scan and split resolution); zero selects GOMAXPROCS. 1 is
	// the one-range case of the same partitioned scan. The tree is
	// identical for every value.
	Workers int
	// SkipInvalid drops records the CMP family cannot train on (NaN/Inf
	// features, out-of-range labels) instead of aborting; the count is
	// reported in RunResult.Skipped.
	SkipInvalid bool
	// Obs, when non-nil, collects per-round phase timings for the CMP
	// family (see internal/obs); assemble the report with MetricsReport.
	Obs *obs.Collector
	// CacheBytes, when positive, attaches a page cache of that capacity to
	// cacheable sources (storage.File) before the run, so every algorithm's
	// repeated scans hit memory for resident pages. Trees and logical I/O
	// accounting are identical with or without it; only the physical cache
	// counters in RunResult.IOStats change.
	CacheBytes int64
	// Quantize routes the CMP family through the bin-coded dense-histogram
	// build path (see core.Config.Quantize). Ignored by the baselines.
	Quantize bool
	// QuantizeBins sets the quantized path's code-table resolution; zero
	// means Intervals.
	QuantizeBins int
}

func (o Options) withDefaults() Options {
	if o.Intervals == 0 {
		o.Intervals = 100
	}
	if o.MaxAlive == 0 {
		o.MaxAlive = 2
	}
	if o.InMemoryNodeRecords == 0 {
		o.InMemoryNodeRecords = 4096
	}
	if o.RFBufferEntries == 0 {
		o.RFBufferEntries = 2_500_000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxDepth == 0 {
		o.MaxDepth = 32
	}
	return o
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
	// under Options.SkipInvalid (CMP family only).
	Skipped int64

	TrainAccuracy float64
	TestAccuracy  float64

	// IOStats is the source's full cumulative I/O accounting for the run.
	IOStats storage.Stats
	// CoreStats carries the CMP family's build statistics (nil for the
	// baseline algorithms).
	CoreStats *core.Stats
}

// Run trains the named algorithm over src, optionally computing train/test
// accuracy against the given tables (either may be nil).
func Run(algo string, src storage.Source, trainTbl, testTbl *dataset.Table, opts Options) (*RunResult, *tree.Tree, error) {
	return RunContext(context.Background(), algo, src, trainTbl, testTbl, opts)
}

// RunContext is Run with cancellation: the CMP family aborts between scan
// batches when ctx is cancelled and returns ctx's error. The remaining
// algorithms currently run to completion.
func RunContext(ctx context.Context, algo string, src storage.Source, trainTbl, testTbl *dataset.Table, opts Options) (*RunResult, *tree.Tree, error) {
	opts = opts.withDefaults()
	if opts.CacheBytes > 0 {
		if c, ok := src.(storage.Cacheable); ok {
			c.SetCacheBytes(opts.CacheBytes)
		}
	}
	src.ResetStats()
	start := time.Now()

	var (
		t   *tree.Tree
		aux int64
		mem int64
		err error
	)
	switch algo {
	case AlgoCMPS, AlgoCMPB, AlgoCMP:
		cfg := core.Default(coreAlgo(algo))
		cfg.Intervals = opts.Intervals
		cfg.MaxAlive = opts.MaxAlive
		cfg.InMemoryNodeRecords = opts.InMemoryNodeRecords
		cfg.ObliqueAllPairs = opts.ObliqueAllPairs
		cfg.Prune = !opts.PruneOff
		cfg.Seed = opts.Seed
		cfg.MaxDepth = opts.MaxDepth
		cfg.PurityStop = opts.PurityStop
		if opts.Workers != 0 {
			cfg.Workers = opts.Workers
		}
		if opts.SkipInvalid {
			cfg.Validation = core.ValidateSkip
		}
		cfg.Obs = opts.Obs
		cfg.CacheBytes = opts.CacheBytes
		cfg.Quantize = opts.Quantize
		cfg.QuantizeBins = opts.QuantizeBins
		var res *core.Result
		res, err = core.BuildContext(ctx, src, cfg)
		if err == nil {
			t = res.Tree
			aux = res.Stats.NidBytesIO
			mem = res.Stats.PeakMemoryBytes
			// res.IO, not src.Stats(): a quantized build's round scans run
			// against the bin-coded store (possibly a temporary file), whose
			// accounting lives in res.IO alongside the raw source's passes.
			r := finishIO(algo, src, res.IO, start, t, aux, mem, res.Stats.ObliqueSplits, trainTbl, testTbl)
			r.Skipped = res.Stats.SkippedRecords
			st := res.Stats
			r.CoreStats = &st
			return r, t, nil
		}
	case AlgoSPRINT:
		cfg := sprint.DefaultConfig()
		cfg.Prune = !opts.PruneOff
		cfg.MaxDepth = opts.MaxDepth
		cfg.PurityStop = opts.PurityStop
		var res *sprint.Result
		res, err = sprint.Build(src, cfg)
		if err == nil {
			t = res.Tree
			aux = res.Stats.ListBytesIO
			mem = res.Stats.PeakMemoryBytes
			return finish(algo, src, start, t, aux, mem, 0, trainTbl, testTbl), t, nil
		}
	case AlgoSLIQ:
		cfg := sliq.DefaultConfig()
		cfg.Prune = !opts.PruneOff
		cfg.MaxDepth = opts.MaxDepth
		cfg.PurityStop = opts.PurityStop
		var res *sliq.Result
		res, err = sliq.Build(src, cfg)
		if err == nil {
			t = res.Tree
			aux = res.Stats.ListBytesIO
			mem = res.Stats.PeakMemoryBytes
			return finish(algo, src, start, t, aux, mem, 0, trainTbl, testTbl), t, nil
		}
	case AlgoCLOUDS, AlgoCLOUDSSS:
		variant := clouds.SSE
		if algo == AlgoCLOUDSSS {
			variant = clouds.SS
		}
		cfg := clouds.DefaultConfig(variant)
		cfg.Intervals = opts.Intervals
		cfg.MaxAlive = opts.MaxAlive
		cfg.InMemoryNodeRecords = opts.InMemoryNodeRecords
		cfg.Prune = !opts.PruneOff
		cfg.Seed = opts.Seed
		cfg.MaxDepth = opts.MaxDepth
		cfg.PurityStop = opts.PurityStop
		var res *clouds.Result
		res, err = clouds.Build(src, cfg)
		if err == nil {
			t = res.Tree
			aux = res.Stats.NidBytesIO
			mem = res.Stats.PeakMemoryBytes
			return finish(algo, src, start, t, aux, mem, 0, trainTbl, testTbl), t, nil
		}
	case AlgoWindow:
		cfg := window.DefaultConfig()
		cfg.Seed = opts.Seed
		cfg.Exact.MaxDepth = opts.MaxDepth
		cfg.Exact.PurityStop = opts.PurityStop
		var res *window.Result
		res, err = window.Build(src, cfg)
		if err == nil {
			t = res.Tree
			mem = int64(res.Stats.FinalWindow) * int64(src.Schema().NumAttrs()+1) * 8
			return finish(algo, src, start, t, 0, mem, 0, trainTbl, testTbl), t, nil
		}
	case AlgoRainForest:
		cfg := rainforest.DefaultConfig()
		cfg.BufferEntries = opts.RFBufferEntries
		cfg.InMemoryNodeRecords = opts.InMemoryNodeRecords
		cfg.Prune = !opts.PruneOff
		cfg.MaxDepth = opts.MaxDepth
		cfg.PurityStop = opts.PurityStop
		var res *rainforest.Result
		res, err = rainforest.Build(src, cfg)
		if err == nil {
			t = res.Tree
			aux = res.Stats.NidBytesIO
			mem = res.Stats.PeakMemoryBytes
			return finish(algo, src, start, t, aux, mem, 0, trainTbl, testTbl), t, nil
		}
	default:
		return nil, nil, fmt.Errorf("eval: unknown algorithm %q (have %v)", algo, Algorithms())
	}
	return nil, nil, err
}

func coreAlgo(name string) core.Algorithm {
	switch name {
	case AlgoCMPB:
		return core.CMPB
	case AlgoCMP:
		return core.CMPFull
	default:
		return core.CMPS
	}
}

func finish(algo string, src storage.Source, start time.Time, t *tree.Tree, aux, mem int64, oblique int, trainTbl, testTbl *dataset.Table) *RunResult {
	return finishIO(algo, src, src.Stats(), start, t, aux, mem, oblique, trainTbl, testTbl)
}

func finishIO(algo string, src storage.Source, io storage.Stats, start time.Time, t *tree.Tree, aux, mem int64, oblique int, trainTbl, testTbl *dataset.Table) *RunResult {
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
