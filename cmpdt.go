// Package cmpdt is a decision-tree classification library for large,
// disk-resident training sets, reproducing "CMP: A Fast Decision Tree
// Classifier Using Multivariate Predictions" (Wang & Zaniolo, ICDE 2000).
//
// The package trains binary decision trees whose internal nodes test a
// numeric threshold, a categorical subset, or — uniquely to CMP — a linear
// combination of two numeric attributes. Three variants are offered:
//
//   - CMPS keeps one-dimensional equal-depth interval histograms and
//     resolves exact split points through alive-interval buffering, one
//     dataset scan per tree level.
//   - CMPB keeps bivariate histogram matrices sharing a predicted X-axis
//     attribute and can grow two tree levels per scan.
//   - CMP adds linear-combination (oblique) splits searched on the
//     matrices.
//
// Baseline classifiers from the paper's evaluation (SPRINT, CLOUDS,
// RainForest RF-Hybrid) live in internal packages and are exposed through
// the benchmark harness in cmd/cmpbench.
//
// # Quick start
//
//	schema := cmpdt.Schema{
//		Attrs:   []cmpdt.Attr{{Name: "age"}, {Name: "salary"}},
//		Classes: []string{"no", "yes"},
//	}
//	ds, _ := cmpdt.NewDataset(schema)
//	ds.Append([]float64{23, 30000}, 0)
//	ds.Append([]float64{49, 90000}, 1)
//	// ... many more records ...
//	tree, _ := cmpdt.Train(ds, cmpdt.Config{Algorithm: cmpdt.CMP})
//	label := tree.Predict([]float64{35, 70000})
package cmpdt

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/eval"
	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// Algorithm selects the CMP variant to train with.
type Algorithm int

const (
	// CMPS is the single-variable variant.
	CMPS Algorithm = iota
	// CMPB adds bivariate matrices and split prediction.
	CMPB
	// CMP is the full algorithm with linear-combination splits.
	CMP
)

// String names the variant the way the paper does.
func (a Algorithm) String() string { return coreAlgo(a).String() }

func coreAlgo(a Algorithm) core.Algorithm {
	switch a {
	case CMPB:
		return core.CMPB
	case CMP:
		return core.CMPFull
	default:
		return core.CMPS
	}
}

// Attr describes one predictive attribute. A nil Values slice means the
// attribute is numeric (ordered); otherwise it is categorical with the
// given value names.
type Attr struct {
	Name   string
	Values []string
}

// Schema describes a dataset: its attributes and class labels.
type Schema struct {
	Attrs   []Attr
	Classes []string
}

func (s Schema) internal() *dataset.Schema {
	out := &dataset.Schema{Classes: append([]string(nil), s.Classes...)}
	for _, a := range s.Attrs {
		kind := dataset.Numeric
		if a.Values != nil {
			kind = dataset.Categorical
		}
		out.Attrs = append(out.Attrs, dataset.Attribute{
			Name:   a.Name,
			Kind:   kind,
			Values: append([]string(nil), a.Values...),
		})
	}
	return out
}

func externalSchema(s *dataset.Schema) Schema {
	out := Schema{Classes: append([]string(nil), s.Classes...)}
	for i := range s.Attrs {
		a := Attr{Name: s.Attrs[i].Name}
		if s.Attrs[i].Kind == dataset.Categorical {
			a.Values = append([]string(nil), s.Attrs[i].Values...)
		}
		out.Attrs = append(out.Attrs, a)
	}
	return out
}

// Dataset is an in-memory training set.
type Dataset struct {
	tbl *dataset.Table
}

// NewDataset creates an empty dataset with the given schema.
func NewDataset(s Schema) (*Dataset, error) {
	tbl, err := dataset.New(s.internal())
	if err != nil {
		return nil, err
	}
	return &Dataset{tbl: tbl}, nil
}

// Append adds one record: one float64 per attribute (categorical values as
// their index in Attr.Values) and the class label index.
func (d *Dataset) Append(vals []float64, label int) error {
	return d.tbl.Append(vals, label)
}

// AppendLabeled is Append with a symbolic class label.
func (d *Dataset) AppendLabeled(vals []float64, class string) error {
	for i, c := range d.tbl.Schema().Classes {
		if c == class {
			return d.tbl.Append(vals, i)
		}
	}
	return fmt.Errorf("cmpdt: unknown class %q", class)
}

// Len returns the number of records.
func (d *Dataset) Len() int { return d.tbl.NumRecords() }

// Schema returns the dataset's schema.
func (d *Dataset) Schema() Schema { return externalSchema(d.tbl.Schema()) }

// ReadCSV loads a dataset from CSV: a header row naming every attribute
// plus a final "class" column, then one row per record.
func ReadCSV(r io.Reader, s Schema) (*Dataset, error) {
	tbl, err := dataset.ReadCSV(r, s.internal())
	if err != nil {
		return nil, err
	}
	return &Dataset{tbl: tbl}, nil
}

// WriteCSV writes the dataset in the format ReadCSV accepts.
func (d *Dataset) WriteCSV(w io.Writer) error { return d.tbl.WriteCSV(w) }

// Split partitions the dataset into train and test subsets with a
// deterministic shuffle.
func (d *Dataset) Split(trainFrac float64, seed int64) (train, test *Dataset) {
	tr, te := dataset.TrainTestSplit(d.tbl, trainFrac, seed)
	return &Dataset{tbl: tr}, &Dataset{tbl: te}
}

// SaveFile stores the dataset in the binary record format used for
// disk-resident training (see TrainFile).
func (d *Dataset) SaveFile(path string) error {
	_, err := storage.WriteTable(path, d.tbl)
	return err
}

// Config tunes training. The zero value selects the paper's defaults.
type Config struct {
	// Algorithm selects CMP-S, CMP-B or full CMP.
	Algorithm Algorithm
	// Intervals is the number of equal-depth intervals per numeric
	// attribute (default 100; the paper uses 100-120).
	Intervals int
	// MaxAlive bounds the alive intervals kept per split (default 2).
	MaxAlive int
	// MaxDepth caps tree depth (default 32).
	MaxDepth int
	// InMemoryNodeRecords finishes subtrees in memory once a node has at
	// most this many records (default 4096; negative disables).
	InMemoryNodeRecords int
	// DisablePruning turns off the PUBLIC(1) MDL pruning pass, and with it
	// the pruning bound on in-memory subtree growth: subtrees then grow
	// until the stopping rules end them.
	DisablePruning bool
	// ObliqueAllPairs extends full CMP with matrices over every numeric
	// attribute pair, lifting the paper's N-1-matrices limitation. Training
	// fails when it is set with another algorithm or with Quantize, which
	// search no linear splits.
	ObliqueAllPairs bool
	// Workers is the number of goroutines used for the per-round scan and
	// for split resolution (default GOMAXPROCS; 1 forces the serial path).
	// The trained tree is bit-identical for every worker count.
	Workers int
	// Seed drives sampling and the root's random X-axis (default 1).
	Seed int64
	// Validation selects how invalid records — NaN or infinite numeric
	// features, out-of-range categorical codes or class labels — are
	// treated: ValidateStrict (the default) aborts training with an error
	// naming the first such record, ValidateSkip drops them
	// deterministically and counts them in Stats.SkippedRecords.
	Validation ValidationPolicy
	// CacheBytes, when positive, attaches a page cache of that capacity to
	// disk-resident training (TrainFile/TrainFileContext), so repeated scan
	// rounds re-read resident pages from memory. The trained tree and all
	// logical scan accounting are bit-identical with or without the cache;
	// only the physical I/O counters (cache hits/misses/evictions/
	// prefetches in the observability report) change. Ignored for
	// in-memory datasets.
	CacheBytes int64
	// Quantize routes training through the bin-coded dense-histogram path:
	// one extra pass maps each numeric value to its equal-depth bin code,
	// scan rounds then accumulate dense per-code histograms over the compact
	// encoding. Emitted thresholds stay in raw feature units (they land on
	// the bin breakpoints), trees remain bit-identical across worker counts
	// and cache settings, and under CMPFull the linear-split search is
	// skipped (the build behaves as CMP-B).
	Quantize bool
	// QuantizeBins is the per-numeric-attribute code-table resolution for
	// Quantize (default: Intervals).
	QuantizeBins int
	// Observer, when non-nil, collects the build's observability report:
	// per-round phase timings (scan, buffer sort, exact-split resolution,
	// oblique search, decide, collect, prune), per-worker scan shares, and
	// the storage layer's I/O counters. Retrieve it with Observer.Report
	// after training. Nil adds no instrumentation cost.
	Observer *Observer
}

// Observer receives one training run's observability report (see
// Config.Observer). An Observer must not be shared by concurrent training
// runs; reusing it sequentially overwrites the previous report.
type Observer struct {
	rep *BuildReport
}

// NewObserver returns an empty observer to hang on Config.Observer.
func NewObserver() *Observer { return &Observer{} }

// Report returns the last completed training run's report, or nil if no
// observed run has finished.
func (o *Observer) Report() *BuildReport {
	if o == nil {
		return nil
	}
	return o.rep
}

// BuildReport is the machine-readable observability report: schema_version,
// per-round phase timings whose per-round scan counts sum exactly to the
// storage layer's scan counter, build statistics, and I/O counters. It is
// the same JSON document the tools emit under -metrics-json.
type BuildReport = obs.Report

// ValidationPolicy selects how training treats records it cannot learn
// from. See Config.Validation.
type ValidationPolicy int

const (
	// ValidateStrict aborts training on the first invalid record.
	ValidateStrict ValidationPolicy = iota
	// ValidateSkip drops invalid records and counts them.
	ValidateSkip
)

func (c Config) internal() core.Config {
	cfg := core.Default(coreAlgo(c.Algorithm))
	if c.Intervals != 0 {
		cfg.Intervals = c.Intervals
	}
	if c.MaxAlive != 0 {
		cfg.MaxAlive = c.MaxAlive
	}
	if c.MaxDepth != 0 {
		cfg.MaxDepth = c.MaxDepth
	}
	if c.InMemoryNodeRecords != 0 {
		cfg.InMemoryNodeRecords = c.InMemoryNodeRecords
	}
	cfg.Prune = !c.DisablePruning
	cfg.ObliqueAllPairs = c.ObliqueAllPairs
	if c.Workers != 0 {
		cfg.Workers = c.Workers
	}
	if c.Seed != 0 {
		cfg.Seed = c.Seed
	}
	if c.Validation == ValidateSkip {
		cfg.Validation = core.ValidateSkip
	}
	if c.CacheBytes > 0 {
		cfg.CacheBytes = c.CacheBytes
	}
	cfg.Quantize = c.Quantize
	if c.QuantizeBins != 0 {
		cfg.QuantizeBins = c.QuantizeBins
	}
	return cfg
}

// Stats reports how a training run behaved.
type Stats struct {
	// Scans is the number of sequential passes over the training set.
	Scans int
	// BufferedRecords counts records routed through alive-interval buffers.
	BufferedRecords int64
	// PeakMemoryBytes is the peak histogram-plus-buffer footprint.
	PeakMemoryBytes int64
	// PredictionHits and PredictionTotal measure the split predictor.
	PredictionHits, PredictionTotal int
	// DoubleSplits counts two-levels-in-one-scan events.
	DoubleSplits int
	// ObliqueSplits counts linear-combination splits in the final tree.
	ObliqueSplits int
	// SkippedRecords is the number of invalid records dropped per training
	// pass under ValidateSkip (zero under ValidateStrict).
	SkippedRecords int64
	// Quantized reports whether the build ran the bin-coded dense path
	// (Config.Quantize, or a pre-quantized training store).
	Quantized bool
}

// Tree is a trained classifier.
type Tree struct {
	t *tree.Tree

	compileOnce sync.Once
	compiled    *tree.Compiled
}

// flat returns the tree's compiled form, built on first use and cached.
func (t *Tree) flat() *tree.Compiled {
	t.compileOnce.Do(func() { t.compiled = tree.Compile(t.t) })
	return t.compiled
}

// Predict classifies one record and returns its class index.
func (t *Tree) Predict(vals []float64) int { return t.t.Predict(vals) }

// PredictClass classifies one record and returns its class name.
func (t *Tree) PredictClass(vals []float64) string {
	return t.t.Schema.Classes[t.t.Predict(vals)]
}

// Leaves returns the number of leaf nodes.
func (t *Tree) Leaves() int { return t.t.Leaves() }

// Depth returns the tree depth in edges.
func (t *Tree) Depth() int { return t.t.Depth() }

// Size returns the total node count.
func (t *Tree) Size() int { return t.t.Size() }

// LinearSplits returns how many internal nodes use a linear-combination
// test.
func (t *Tree) LinearSplits() int { return t.t.CountLinearSplits() }

// String renders the tree as an indented outline.
func (t *Tree) String() string { return t.t.String() }

// Accuracy returns the fraction of ds the tree classifies correctly.
func (t *Tree) Accuracy(ds *Dataset) float64 { return eval.Accuracy(t.t, ds.tbl) }

// Train builds a decision tree over an in-memory dataset.
func Train(ds *Dataset, cfg Config) (*Tree, error) {
	tr, _, err := TrainStats(ds, cfg)
	return tr, err
}

// TrainContext is Train under a context: cancelling ctx (or exceeding its
// deadline) aborts the build with ctx.Err() within a bounded slice of one
// scan round, with every worker goroutine joined before it returns.
func TrainContext(ctx context.Context, ds *Dataset, cfg Config) (*Tree, error) {
	tr, _, err := TrainStatsContext(ctx, ds, cfg)
	return tr, err
}

// TrainStats is Train plus run statistics.
func TrainStats(ds *Dataset, cfg Config) (*Tree, *Stats, error) {
	return TrainStatsContext(context.Background(), ds, cfg)
}

// TrainStatsContext is TrainStats under a context (see TrainContext).
func TrainStatsContext(ctx context.Context, ds *Dataset, cfg Config) (*Tree, *Stats, error) {
	if ds == nil || ds.Len() == 0 {
		return nil, nil, errors.New("cmpdt: empty dataset")
	}
	return trainSource(ctx, storage.NewMem(ds.tbl), cfg)
}

// TrainFile builds a decision tree over a disk-resident dataset previously
// written with Dataset.SaveFile (or the cmpgen tool). The file is scanned
// sequentially once per construction round, exactly as the paper's
// disk-based setting. Transient read errors are retried under the store's
// retry policy, and checksummed stores abort on corruption rather than
// training on damaged bytes.
func TrainFile(path string, cfg Config) (*Tree, *Stats, error) {
	return TrainFileContext(context.Background(), path, cfg)
}

// TrainFileContext is TrainFile under a context (see TrainContext).
func TrainFileContext(ctx context.Context, path string, cfg Config) (*Tree, *Stats, error) {
	f, err := storage.OpenFile(path)
	if err != nil {
		return nil, nil, err
	}
	return trainSource(ctx, f, cfg)
}

func trainSource(ctx context.Context, src storage.Source, cfg Config) (*Tree, *Stats, error) {
	ccfg := cfg.internal()
	var col *obs.Collector
	var start time.Time
	if cfg.Observer != nil {
		workers := ccfg.Workers
		if workers < 1 {
			workers = 1
		}
		col = obs.NewCollector(workers)
		ccfg.Obs = col
		start = time.Now()
	}
	res, err := core.BuildContext(ctx, src, ccfg)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Observer != nil {
		eval.ExportCacheCounters(col.Registry(), res.IO)
		rep := col.Snapshot()
		rep.Build.Algorithm = ccfg.Algorithm.String()
		rep.Build.Records = src.NumRecords()
		rep.Build.Workers = col.Workers()
		rep.Build.Seed = ccfg.Seed
		rep.Build.TreeNodes = res.Tree.Size()
		rep.Build.TreeLeaves = res.Tree.Leaves()
		rep.Build.TreeDepth = res.Tree.Depth()
		rep.Build.WallNs = time.Since(start).Nanoseconds()
		res.Stats.FillSummary(&rep.Build)
		res.Stats.FillQuant(&rep.Quant)
		rep.IO = eval.IOSummary(res.IO)
		cfg.Observer.rep = rep
	}
	st := &Stats{
		Scans:           res.Stats.Scans,
		BufferedRecords: res.Stats.BufferedRecords,
		PeakMemoryBytes: res.Stats.PeakMemoryBytes,
		PredictionHits:  res.Stats.PredictionHits,
		PredictionTotal: res.Stats.PredictionTotal,
		DoubleSplits:    res.Stats.DoubleSplits,
		ObliqueSplits:   res.Stats.ObliqueSplits,
		SkippedRecords:  res.Stats.SkippedRecords,
		Quantized:       res.Stats.Quantized,
	}
	return &Tree{t: res.Tree}, st, nil
}

// WriteModel serializes the trained tree as a self-contained JSON model
// (schema included), readable by ReadModel and cmd/cmpclassify.
func (t *Tree) WriteModel(w io.Writer) error { return t.t.WriteJSON(w) }

// SaveModel stores the model at path.
func (t *Tree) SaveModel(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.t.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadModel deserializes a model written by WriteModel. Read failures come
// back unwrapped (retrying may succeed); structural failures — truncation,
// wrong format, validation — match ErrBadModel and never will.
func ReadModel(r io.Reader) (*Tree, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cmpdt: reading model: %w", err)
	}
	return readModelBytes(data)
}

// readModelBytes decodes a single-tree model from bytes already read, so
// every failure past this point is structural by construction.
func readModelBytes(data []byte) (*Tree, error) {
	inner, err := tree.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return nil, badModel(err)
	}
	return &Tree{t: inner}, nil
}

// LoadModel reads a model from a file.
func LoadModel(path string) (*Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadModel(f)
}

// ModelSchema returns the schema the model was trained with.
func (t *Tree) ModelSchema() Schema { return externalSchema(t.t.Schema) }

// Importance returns each attribute's gini importance (impurity decrease
// contributed by its splits), normalized to sum to 1.
func (t *Tree) Importance() []float64 { return t.t.Importance() }

// WriteDOT renders the tree in Graphviz DOT format.
func (t *Tree) WriteDOT(w io.Writer) error { return t.t.WriteDOT(w) }

// Explain returns the split decisions a record follows from the root to its
// predicted class.
func (t *Tree) Explain(vals []float64) []string { return t.t.PathFor(vals) }

// Report summarizes a tree's performance on a labeled dataset.
type Report struct {
	Accuracy float64
	// Confusion counts records as [actual][predicted].
	Confusion [][]int
	// MacroF1 is the unweighted mean F1 over populated classes.
	MacroF1 float64
	// PerClass holds precision/recall/F1 per class, in schema order.
	PerClass []ClassMetrics
}

// ClassMetrics holds one class's precision/recall/F1.
type ClassMetrics struct {
	Class     string
	Support   int
	Precision float64
	Recall    float64
	F1        float64
}

// Evaluate computes a full classification report on ds.
func (t *Tree) Evaluate(ds *Dataset) Report {
	rep := eval.Evaluate(t.t, ds.tbl)
	out := Report{Accuracy: rep.Accuracy, Confusion: rep.Confusion, MacroF1: rep.MacroF1}
	for _, c := range rep.PerClass {
		out.PerClass = append(out.PerClass, ClassMetrics(c))
	}
	return out
}

// CrossValidate runs k-fold cross-validation of the configured algorithm
// over the dataset and returns the per-fold test accuracies.
func CrossValidate(ds *Dataset, cfg Config, k int) (accuracies []float64, mean float64, err error) {
	algoName := map[Algorithm]string{CMPS: "cmp-s", CMPB: "cmp-b", CMP: "cmp"}[cfg.Algorithm]
	opts := eval.Options{
		Intervals:           cfg.Intervals,
		MaxAlive:            cfg.MaxAlive,
		InMemoryNodeRecords: cfg.InMemoryNodeRecords,
		ObliqueAllPairs:     cfg.ObliqueAllPairs,
		PruneOff:            cfg.DisablePruning,
		Seed:                cfg.Seed,
		MaxDepth:            cfg.MaxDepth,
		Workers:             cfg.Workers,
	}
	cv, err := eval.CrossValidate(algoName, ds.tbl, k, opts)
	if err != nil {
		return nil, 0, err
	}
	for _, f := range cv.Folds {
		accuracies = append(accuracies, f.Report.Accuracy)
	}
	return accuracies, cv.MeanAccuracy, nil
}

// StratifiedSplit partitions the dataset into train and test subsets while
// preserving each class's proportion in both — use it when classes are
// heavily skewed.
func (d *Dataset) StratifiedSplit(trainFrac float64, seed int64) (train, test *Dataset) {
	tr, te := dataset.StratifiedSplit(d.tbl, trainFrac, seed)
	return &Dataset{tbl: tr}, &Dataset{tbl: te}
}

// PredictBatch classifies every record of ds through the compiled flat tree
// and returns the predicted class indices in record order. The work shards
// across GOMAXPROCS goroutines; the result is identical for every worker
// count.
func (t *Tree) PredictBatch(ds *Dataset) []int {
	out := make([]int, ds.Len())
	t.flat().PredictTable(out, ds.tbl, 0)
	return out
}

// PredictBatchWorkers classifies records[i] into dst[i] for every i through
// the compiled flat tree, sharded over the given number of goroutines (<= 0
// selects GOMAXPROCS), and returns dst (grown if too short). Predictions
// are identical for every worker count.
func (t *Tree) PredictBatchWorkers(dst []int, records [][]float64, workers int) []int {
	if len(dst) < len(records) {
		dst = make([]int, len(records))
	}
	t.flat().PredictBatchWorkers(dst, records, workers)
	return dst
}

// Compiled returns the tree flattened into a contiguous array layout whose
// Predict is an iterative, allocation-free index walk — bit-identical to
// Tree.Predict but considerably faster, and the representation to use on
// serving hot paths. The compiled form is built once, cached, and safe for
// concurrent use.
func (t *Tree) Compiled() *CompiledTree {
	return &CompiledTree{c: t.flat()}
}

// CompiledTree is an immutable, flattened form of a trained Tree optimized
// for inference. All methods are safe for concurrent use.
type CompiledTree struct {
	c *tree.Compiled
}

// Predict classifies one record and returns its class index.
func (ct *CompiledTree) Predict(vals []float64) int { return ct.c.Predict(vals) }

// PredictClass classifies one record and returns its class name.
func (ct *CompiledTree) PredictClass(vals []float64) string {
	return ct.c.Schema.Classes[ct.c.Predict(vals)]
}

// PredictBatch classifies records[i] into dst[i] for every i and returns
// dst, allocating only when dst is too short (pass a reused buffer for
// allocation-free operation).
func (ct *CompiledTree) PredictBatch(dst []int, records [][]float64) []int {
	if len(dst) < len(records) {
		dst = make([]int, len(records))
	}
	ct.c.PredictBatch(dst, records)
	return dst
}

// PredictBatchWorkers is PredictBatch sharded over the given number of
// goroutines (<= 0 selects GOMAXPROCS). Predictions are identical for every
// worker count.
func (ct *CompiledTree) PredictBatchWorkers(dst []int, records [][]float64, workers int) []int {
	if len(dst) < len(records) {
		dst = make([]int, len(records))
	}
	ct.c.PredictBatchWorkers(dst, records, workers)
	return dst
}

// Nodes returns the number of nodes in the compiled tree.
func (ct *CompiledTree) Nodes() int { return ct.c.Len() }
