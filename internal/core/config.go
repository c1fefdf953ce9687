// Package core implements the paper's contribution: the CMP family of
// decision-tree builders.
//
//   - CMP-S keeps one-dimensional equal-depth interval histograms per
//     attribute, estimates a lower bound of the gini index inside each
//     interval by the CLOUDS hill-climbing heuristic, and defers the exact
//     split point: records falling inside the few "alive" intervals are
//     buffered during the *next* scan and sorted, so the exact split is
//     recovered without CLOUDS' extra pass (Figure 4 of the paper).
//   - CMP-B replaces the histograms with bivariate matrices that share a
//     predicted X-axis attribute; when a split lands on the X-axis the
//     matrices are partitioned in place and a second tree level is grown
//     from the same scan (Figure 10).
//   - CMP (full) additionally searches the matrices for linear-combination
//     splits a*x + b*y <= c via the intercept-walking procedures of
//     Figure 12.
//
// All three run on one level-synchronous round engine (engine.go): each
// construction round performs exactly one sequential scan of the training
// set, then decides. The engine takes a scan kernel as a parameter: the raw
// kernel (builder.go, phase2.go) scans float records through per-node
// discretizers and resolves alive intervals from buffered records; the
// quantized kernel (qbuild.go, Config.Quantize) scans small bin codes by
// dense array indexing, where every boundary is exact.
package core

import (
	"errors"
	"fmt"
	"runtime"

	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// Algorithm selects the CMP variant.
type Algorithm int

const (
	// CMPS is the single-variable variant (Section 2.1).
	CMPS Algorithm = iota
	// CMPB adds bivariate matrices and split prediction (Section 2.2).
	CMPB
	// CMPFull adds linear-combination splits (Section 2.3).
	CMPFull
)

// String names the variant the way the paper does.
func (a Algorithm) String() string {
	switch a {
	case CMPS:
		return "CMP-S"
	case CMPB:
		return "CMP-B"
	case CMPFull:
		return "CMP"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ValidationPolicy selects how a build treats records that cannot be
// trained on: NaN or infinite numeric features, non-integral or
// out-of-range categorical codes, and out-of-range class labels. Such
// records would otherwise poison histograms, break the buffer-sort
// determinism guarantee (NaN is unordered), or panic deep in a histogram
// update.
type ValidationPolicy int

const (
	// ValidateStrict aborts the build with an error naming the first
	// invalid record. The default: bad training data is a bug upstream.
	ValidateStrict ValidationPolicy = iota
	// ValidateSkip drops invalid records (deterministically — the same
	// records every scan) and counts them in Stats.SkippedRecords.
	ValidateSkip
)

// Config tunes a build. The zero value is not usable; call Default first or
// use Build's normalization.
type Config struct {
	// Algorithm selects CMP-S, CMP-B or full CMP.
	Algorithm Algorithm
	// Intervals is the number of equal-depth intervals per numeric
	// attribute (the paper uses 100-120 for large datasets).
	Intervals int
	// MaxAlive bounds the alive intervals retained per split (the paper
	// finds 2 is enough, usually 1).
	MaxAlive int
	// MinSplitRecords stops splitting nodes with fewer records.
	MinSplitRecords int
	// MaxDepth caps the tree depth.
	MaxDepth int
	// MaxRounds caps construction rounds (scans); a safety net only.
	MaxRounds int
	// MinGiniGain is the minimum improvement of the split index over the
	// node's own gini for a split to be accepted.
	MinGiniGain float64
	// PurityStop, when positive, stops splitting nodes whose majority class
	// already covers this fraction of records ("consists entirely, or
	// almost entirely, of records from one class"). Zero disables.
	PurityStop float64
	// ObliqueThreshold: full CMP only tries linear-combination splits when
	// the best univariate gini index is above this value ("already lower
	// than a certain threshold" heuristic, Section 2.3).
	ObliqueThreshold float64
	// ObliqueGain is the relative improvement a linear split must deliver
	// over the best univariate split (the paper suggests 20%).
	ObliqueGain float64
	// ObliqueMinRecords skips the line search for nodes smaller than this;
	// the search costs O((q_x+q_y) * q_x * q_y) per matrix.
	ObliqueMinRecords int
	// ObliqueMaxDepth limits linear-combination splits to shallow nodes.
	// The linear relationships the paper targets are global properties of
	// the dataset (Section 2.3); deep in the tree the residual regions are
	// rarely linear and repeated line searches cost rounds for little gain.
	ObliqueMaxDepth int
	// ObliqueAllPairs extends full CMP beyond the paper: keep histogram
	// matrices for every numeric attribute pair, not only the N-1 pairs
	// sharing the predicted X-axis. This removes the paper's stated
	// limitation (i) of Section 2.3 — linear relationships between two
	// Y-axis attributes are invisible — at O(K^2) histogram cost per node.
	// Only raw full CMP searches linear splits: with CMP-S, CMP-B or a
	// quantized build (Quantize, a pre-quantized source, BuildIndexed) the
	// build fails rather than silently ignore the knob.
	ObliqueAllPairs bool
	// InMemoryNodeRecords: nodes with at most this many records are finished
	// in memory — the next scan gathers their records into a buffer and the
	// subtree is completed with the exact algorithm (on bin codes, from
	// dense per-code histograms, when quantized), the standard bottoming-
	// out strategy for disk-oriented builders. Negative disables; zero means
	// the default.
	InMemoryNodeRecords int
	// Prune applies PUBLIC(1) pruning after each round and once the build
	// ends. It also bounds the in-memory finishers' subtree growth: they
	// stop splitting a node the final prune is certain to collapse, so the
	// tree is the same, reached with less work (see prune.MDL).
	Prune bool
	// DiscretizeSample bounds the prefix sample used to compute equal-depth
	// interval boundaries. Zero means the default; a negative value runs a
	// full pass through bounded-memory Greenwald-Khanna sketches instead of
	// sampling.
	DiscretizeSample int
	// Workers is the number of goroutines used for the per-round data scan
	// and for split resolution. 1 forces the exact serial code path; zero
	// selects runtime.GOMAXPROCS(0). The built tree is bit-identical for
	// every worker count: each worker scans a disjoint record range into
	// private histogram/buffer shards that are merged in worker-index
	// order, and node-level resolution work is precomputed from pure
	// node-local state before being applied in deterministic order.
	Workers int
	// Seed drives the discretization sample and the root's random X-axis.
	Seed int64
	// SplitAttrs, when non-nil, restricts split selection to the listed
	// attribute indices: numeric thresholds, categorical subsets, the
	// in-memory subtree finishers, and both ends of a linear combination all
	// draw only from this set. Attributes outside it never appear in a
	// split test — the per-tree feature-subsampling hook the forest layer
	// builds on. Raw builds still discretize them and keep their histogram
	// axes; quantized builds give each numeric one a single bin, since no
	// decision reads its codes.
	// Nil (the default) allows every attribute; duplicate or out-of-range
	// indices are rejected, as is a set with no usable attribute.
	SplitAttrs []int
	// Validation selects how invalid records (NaN/Inf features,
	// out-of-range labels or categorical codes) are treated: ValidateStrict
	// (the zero value) aborts the build, ValidateSkip drops and counts
	// them.
	Validation ValidationPolicy
	// Obs, when non-nil, collects per-round phase timings (scan, sort,
	// resolve, oblique search, decide, collect, prune) and per-worker scan
	// shares into the observability report. Nil (the default) adds no
	// instrumentation cost to the build.
	Obs *obs.Collector
	// CacheBytes, when positive, attaches a page cache of that capacity to
	// cacheable sources (storage.File) before building, so the per-round
	// scans re-read resident pages from memory instead of disk. Zero or
	// negative leaves the source's cache configuration untouched. The cache
	// changes only the physical I/O counters (Stats.CacheHits/CacheMisses/
	// Evictions/PrefetchedPages); trees and logical scan accounting are
	// bit-identical with or without it.
	CacheBytes int64
	// Quantize selects the bin-coded build path: one quantization pass maps
	// each numeric attribute to small integer bin codes via the equal-depth
	// discretizer (the code↔breakpoint tables travel with the store), and
	// every construction round then scans compact code records, accumulating
	// class histograms and CMP-B matrices by direct array indexing — no
	// float decoding, no per-record interval search. Split thresholds are
	// translated back to raw feature units from the breakpoint tables, and
	// the determinism invariant (fixed seed ⇒ identical tree at any worker
	// count, cache on or off) holds exactly as on the raw path. Linear-
	// combination splits are not searched in code space: CMPFull builds
	// behave as CMP-B when quantized.
	Quantize bool
	// QuantizeBins is the target number of bin codes per numeric attribute
	// for quantized builds. Zero means Intervals (so quantized and raw
	// builds see the same split-point resolution); the maximum is 65536.
	// Attributes with at most 256 codes are stored in one byte each.
	QuantizeBins int
}

// Default returns the configuration used throughout the evaluation.
func Default(algo Algorithm) Config {
	return Config{
		Algorithm:           algo,
		Intervals:           100,
		MaxAlive:            2,
		MinSplitRecords:     2,
		MaxDepth:            32,
		MaxRounds:           64,
		MinGiniGain:         1e-4,
		ObliqueThreshold:    0.1,
		ObliqueGain:         0.2,
		ObliqueMinRecords:   200,
		ObliqueMaxDepth:     4,
		InMemoryNodeRecords: 4096,
		Prune:               true,
		DiscretizeSample:    50_000,
		Workers:             runtime.GOMAXPROCS(0),
		Seed:                1,
	}
}

// normalize fills unset fields with defaults and validates the rest.
func (c Config) normalize() (Config, error) {
	d := Default(c.Algorithm)
	if c.Intervals == 0 {
		c.Intervals = d.Intervals
	}
	if c.MaxAlive == 0 {
		c.MaxAlive = d.MaxAlive
	}
	if c.MinSplitRecords == 0 {
		c.MinSplitRecords = d.MinSplitRecords
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = d.MaxDepth
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = d.MaxRounds
	}
	if c.MinGiniGain == 0 {
		c.MinGiniGain = d.MinGiniGain
	}
	if c.ObliqueThreshold == 0 {
		c.ObliqueThreshold = d.ObliqueThreshold
	}
	if c.ObliqueGain == 0 {
		c.ObliqueGain = d.ObliqueGain
	}
	if c.ObliqueMinRecords == 0 {
		c.ObliqueMinRecords = d.ObliqueMinRecords
	}
	if c.ObliqueMaxDepth == 0 {
		c.ObliqueMaxDepth = d.ObliqueMaxDepth
	}
	if c.InMemoryNodeRecords == 0 {
		c.InMemoryNodeRecords = d.InMemoryNodeRecords
	}
	if c.DiscretizeSample == 0 {
		c.DiscretizeSample = d.DiscretizeSample
	}
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Workers < 1 {
		return c, fmt.Errorf("core: Workers must be >= 1, got %d", c.Workers)
	}
	if c.Intervals < 2 {
		return c, fmt.Errorf("core: Intervals must be >= 2, got %d", c.Intervals)
	}
	if c.QuantizeBins == 0 {
		c.QuantizeBins = c.Intervals
	}
	if c.QuantizeBins < 2 || c.QuantizeBins > 65536 {
		return c, fmt.Errorf("core: QuantizeBins must be in [2,65536], got %d", c.QuantizeBins)
	}
	if c.MaxAlive < 1 {
		return c, fmt.Errorf("core: MaxAlive must be >= 1, got %d", c.MaxAlive)
	}
	if c.Algorithm != CMPS && c.Algorithm != CMPB && c.Algorithm != CMPFull {
		return c, fmt.Errorf("core: unknown algorithm %d", int(c.Algorithm))
	}
	if c.Validation != ValidateStrict && c.Validation != ValidateSkip {
		return c, fmt.Errorf("core: unknown validation policy %d", int(c.Validation))
	}
	if c.ObliqueAllPairs && (c.Algorithm != CMPFull || c.Quantize) {
		return c, fmt.Errorf("core: ObliqueAllPairs needs a raw full CMP build, got %v with Quantize=%v", c.Algorithm, c.Quantize)
	}
	return c, nil
}

// Stats reports what a build did.
type Stats struct {
	// Rounds is the number of construction rounds; each performs one scan.
	Rounds int
	// Scans is the number of full sequential scans of the training set
	// (rounds plus the initial discretization pass).
	Scans int
	// BufferedRecords counts records set aside in alive-interval buffers
	// over the whole build.
	BufferedRecords int64
	// PeakBufferBytes is the largest simultaneous buffer footprint.
	PeakBufferBytes int64
	// PeakHistogramBytes is the largest simultaneous histogram/matrix
	// footprint.
	PeakHistogramBytes int64
	// PeakMemoryBytes is the peak of buffers plus histograms, the quantity
	// Figure 19 charts for CMP.
	PeakMemoryBytes int64
	// PredictionTotal and PredictionHits measure CMP-B's predictSplit: of
	// the nodes holding matrices, how often the chosen split attribute was
	// the predicted X-axis.
	PredictionTotal, PredictionHits int
	// DoubleSplits counts rounds in which a node grew two levels from one
	// scan.
	DoubleSplits int
	// ObliqueSplits counts linear-combination splits in the final tree.
	ObliqueSplits int
	// NidBytesIO models the paper's disk-swapped node-id array: each scan
	// reads and rewrites 4 bytes per record.
	NidBytesIO int64
	// Reverts counts pending splits whose alive intervals held no improving
	// point, forcing the node to re-decide on another attribute.
	Reverts int
	// SkippedRecords is the number of invalid records dropped per full
	// training pass under ValidateSkip (validation is pure per-record, so
	// every pass skips the same records). Zero under ValidateStrict.
	SkippedRecords int64

	// Quantized reports whether the build ran the bin-coded dense-histogram
	// path (Config.Quantize, or a pre-quantized CMPDQ1 source).
	Quantized bool
	// QuantBinsPerAttr records each attribute's code-table size for
	// quantized builds (numeric: cut points + 1; categorical: the
	// cardinality). A numeric attribute outside Config.SplitAttrs reports
	// 1: it gets no cut points. Nil for raw builds.
	QuantBinsPerAttr []int
	// QuantizeNs is the wall time of the quantization step — discretizer
	// construction plus the encode pass, or BuildIndexed's index walk. Zero
	// when the source was already bin-coded.
	QuantizeNs int64
	// QuantCodeBytes is the encoded record size in bytes (sum of per-attr
	// code widths plus the 2-byte label).
	QuantCodeBytes int64
	// DenseScanRounds and IntervalScanRounds partition Rounds by scan kind:
	// dense bin-code array indexing versus per-record discretizer interval
	// search. A build uses exactly one kind, so one of the two equals
	// Rounds and the other is zero.
	DenseScanRounds    int
	IntervalScanRounds int

	// Root-split diagnostics for Table 1: the attribute the root split on,
	// how many alive intervals its provisional split retained, and the
	// exact gini index of the resolved split.
	RootSplitAttr      int
	RootAliveIntervals int
	RootSplitGini      float64
}

// FillSummary copies the build statistics into an observability report's
// build summary (identification fields — algorithm, records, workers, tree
// shape, wall time — are the caller's to fill).
func (s Stats) FillSummary(b *obs.BuildSummary) {
	b.Rounds = s.Rounds
	b.Scans = s.Scans
	b.BufferedRecords = s.BufferedRecords
	b.PeakMemoryBytes = s.PeakMemoryBytes
	b.PredictionHits = s.PredictionHits
	b.PredictionTotal = s.PredictionTotal
	b.DoubleSplits = s.DoubleSplits
	b.ObliqueSplits = s.ObliqueSplits
	b.Reverts = s.Reverts
	b.SkippedRecords = s.SkippedRecords
}

// FillQuant copies the quantization statistics into an observability
// report's quant block. Valid for raw builds too: enabled=false with
// interval_scan_rounds carrying the round count.
func (s Stats) FillQuant(q *obs.QuantSummary) {
	q.Enabled = s.Quantized
	q.BinsPerAttr = s.QuantBinsPerAttr
	q.QuantizeNs = s.QuantizeNs
	q.CodeBytesPerRecord = s.QuantCodeBytes
	q.DenseScanRounds = s.DenseScanRounds
	q.IntervalScanRounds = s.IntervalScanRounds
}

// Result bundles a finished build.
type Result struct {
	Tree  *tree.Tree
	Stats Stats
	// IO is the source's cumulative scan accounting for this build.
	IO storage.Stats
}

// splitAttrMask turns Config.SplitAttrs into a per-attribute mask over na
// attributes: nil when every attribute may split.
func splitAttrMask(splitAttrs []int, na int) ([]bool, error) {
	if splitAttrs == nil {
		return nil, nil
	}
	if len(splitAttrs) == 0 {
		return nil, errors.New("core: SplitAttrs allows no attribute")
	}
	allowed := make([]bool, na)
	for _, a := range splitAttrs {
		if a < 0 || a >= na {
			return nil, fmt.Errorf("core: SplitAttrs index %d outside [0,%d)", a, na)
		}
		if allowed[a] {
			return nil, fmt.Errorf("core: SplitAttrs lists attribute %d twice", a)
		}
		allowed[a] = true
	}
	return allowed, nil
}
