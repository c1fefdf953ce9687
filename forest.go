package cmpdt

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"cmpdt/internal/forest"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// Predictor is the serving interface shared by every trained classification
// model — a single Tree or a bagged Forest. Code that scores records can
// accept a Predictor and stay agnostic to which model file it was handed;
// LoadPredictor picks the right implementation from the file itself.
type Predictor interface {
	// ModelSchema returns the schema the model was trained with.
	ModelSchema() Schema
	// Predict classifies one record and returns its class index.
	Predict(vals []float64) int
	// PredictClass classifies one record and returns its class name.
	PredictClass(vals []float64) string
	// PredictBatchWorkers classifies records[i] into dst[i] for every i,
	// sharded over the given number of goroutines (<= 0 selects
	// GOMAXPROCS), and returns dst (grown if too short). Predictions are
	// identical for every worker count.
	PredictBatchWorkers(dst []int, records [][]float64, workers int) []int
}

var (
	_ Predictor = (*Tree)(nil)
	_ Predictor = (*Forest)(nil)
)

// ForestConfig configures TrainForest.
type ForestConfig struct {
	// Trees is the ensemble size (default 16).
	Trees int
	// FeatureFrac is the fraction of attributes each tree may split on,
	// drawn per tree from a seeded permutation. Zero means 1.0 (every
	// tree sees every attribute); values must lie in (0, 1].
	FeatureFrac float64
	// NoBootstrap trains every tree on the full training set instead of a
	// bootstrap sample; out-of-bag estimation is then unavailable.
	NoBootstrap bool
	// Parallel bounds how many trees build concurrently (<= 0 selects
	// GOMAXPROCS). Concurrency never changes the trained forest.
	Parallel int
	// Seed drives the per-tree bootstrap masks and feature subsets.
	// Zero falls back to Tree.Seed (and then to the library default).
	Seed int64
	// Target, when non-empty, names the numeric attribute to predict: the
	// forest then grows regression trees (scored with PredictValue)
	// instead of classifiers.
	Target string
	// Tree is the per-tree training configuration. Its Seed is offset by
	// the tree index so members differ; its CacheBytes sizes the shared
	// store's page cache once for the whole build (disk-resident training
	// only: TrainForest rejects it). Its Observer must be nil: a forest's
	// report is collected through ForestConfig.Observer, and TrainForest
	// rejects a per-tree one.
	Tree Config
	// Observer, when non-nil, collects the merged per-tree observability
	// report (phase timings summed across members, I/O totalled).
	Observer *Observer
}

// internal copies c into the forest layer's configuration, which
// validates it.
func (c ForestConfig) internal() forest.Config {
	return forest.Config{
		Trees:       c.Trees,
		FeatureFrac: c.FeatureFrac,
		NoBootstrap: c.NoBootstrap,
		Parallel:    c.Parallel,
		Seed:        c.Seed,
		Target:      c.Target,
		Tree:        c.Tree.internal(),
		CollectObs:  c.Observer != nil,
	}
}

// Forest is a trained bagged ensemble of CMP trees. All prediction methods
// are safe for concurrent use; batch methods walk a compiled flat layout
// built once on first use.
type Forest struct {
	f *forest.Forest

	compileOnce sync.Once
	compiled    *tree.CompiledForest
}

func (f *Forest) flat() *tree.CompiledForest {
	f.compileOnce.Do(func() { f.compiled = f.f.Compile() })
	return f.compiled
}

// Predict majority-votes the ensemble over one record and returns the
// winning class index (ties break to the lowest index).
func (f *Forest) Predict(vals []float64) int { return f.flat().Predict(vals) }

// PredictClass is Predict returning the class name.
func (f *Forest) PredictClass(vals []float64) string {
	return f.f.Schema.Classes[f.Predict(vals)]
}

// PredictProb fills probs with the ensemble's averaged per-class leaf
// frequencies and returns the arg-max class index. probs must have one slot
// per class.
func (f *Forest) PredictProb(vals []float64, probs []float64) int {
	return f.flat().PredictProb(vals, probs)
}

// PredictValue averages the member regression trees' predictions. Only
// meaningful for a forest trained with ForestConfig.Target set.
func (f *Forest) PredictValue(vals []float64) float64 {
	return f.flat().PredictValue(vals)
}

// PredictBatch classifies records[i] into dst[i] for every i and returns
// dst, allocating only when dst is too short.
func (f *Forest) PredictBatch(dst []int, records [][]float64) []int {
	return f.PredictBatchWorkers(dst, records, 1)
}

// PredictBatchWorkers is PredictBatch sharded over the given number of
// goroutines (<= 0 selects GOMAXPROCS); shards split across records, never
// across member trees, so predictions are identical for every worker count.
func (f *Forest) PredictBatchWorkers(dst []int, records [][]float64, workers int) []int {
	if len(dst) < len(records) {
		dst = make([]int, len(records))
	}
	f.flat().PredictBatchWorkers(dst, records, workers)
	return dst
}

// PredictValueBatchWorkers is the regression analogue of
// PredictBatchWorkers.
func (f *Forest) PredictValueBatchWorkers(dst []float64, records [][]float64, workers int) []float64 {
	if len(dst) < len(records) {
		dst = make([]float64, len(records))
	}
	f.flat().PredictValueBatchWorkers(dst, records, workers)
	return dst
}

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return f.f.NumTrees() }

// TotalNodes sums the member trees' node counts.
func (f *Forest) TotalNodes() int { return f.f.TotalNodes() }

// Regression reports whether the forest predicts a numeric target.
func (f *Forest) Regression() bool { return f.f.Regression() }

// OOBError is the out-of-bag generalization estimate recorded at training
// time: misclassification rate for classification, mean squared error for
// regression. Valid only when OOBCount is positive (bootstrap enabled).
func (f *Forest) OOBError() float64 { return f.f.OOBError }

// OOBCount is the number of training records that received at least one
// out-of-bag vote.
func (f *Forest) OOBCount() int { return f.f.OOBCount }

// ModelSchema returns the schema the forest was trained with.
func (f *Forest) ModelSchema() Schema { return externalSchema(f.f.Schema) }

// WriteModel serializes the forest as a self-contained JSON model readable
// by ReadForest, LoadPredictor and cmd/cmpclassify.
func (f *Forest) WriteModel(w io.Writer) error { return f.f.WriteJSON(w) }

// SaveModel stores the model at path.
func (f *Forest) SaveModel(path string) error {
	fl, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.f.WriteJSON(fl); err != nil {
		fl.Close()
		return err
	}
	return fl.Close()
}

// TrainForest grows a bagged forest over ds: each member trains on a seeded
// bootstrap sample (taken as a record mask over the shared dataset, never a
// copy) with its own feature subset. A fixed seed yields a bit-identical
// forest at every worker count and tree-build concurrency.
func TrainForest(ds *Dataset, cfg ForestConfig) (*Forest, error) {
	return TrainForestContext(context.Background(), ds, cfg)
}

// TrainForestContext is TrainForest under a context: cancelling ctx aborts
// the member builds within a bounded slice of one scan round.
func TrainForestContext(ctx context.Context, ds *Dataset, cfg ForestConfig) (*Forest, error) {
	if cfg.Tree.Observer != nil {
		return nil, errTreeObserver
	}
	if ds == nil || ds.Len() == 0 {
		return nil, errors.New("cmpdt: empty dataset")
	}
	if cfg.Tree.CacheBytes > 0 {
		return nil, errMemCache
	}
	return trainForestSource(ctx, storage.NewMem(ds.tbl), cfg)
}

// TrainForestFile is TrainForest over a disk-resident dataset previously
// written with Dataset.SaveFile (or the cmpgen tool). Every member tree
// scans the same store through its own bootstrap mask; Tree.CacheBytes
// sizes a shared page cache so repeated scans re-read resident pages from
// memory.
func TrainForestFile(path string, cfg ForestConfig) (*Forest, error) {
	return TrainForestFileContext(context.Background(), path, cfg)
}

// TrainForestFileContext is TrainForestFile under a context.
func TrainForestFileContext(ctx context.Context, path string, cfg ForestConfig) (*Forest, error) {
	if cfg.Tree.Observer != nil {
		return nil, errTreeObserver
	}
	f, err := storage.OpenFile(path)
	if err != nil {
		return nil, err
	}
	return trainForestSource(ctx, f, cfg)
}

// errTreeObserver rejects ForestConfig.Tree.Observer, which no member build
// could honour.
var errTreeObserver = errors.New("cmpdt: ForestConfig.Tree.Observer is not supported; set ForestConfig.Observer to collect the forest's report")

func trainForestSource(ctx context.Context, src storage.RangeSource, cfg ForestConfig) (*Forest, error) {
	if err := cfg.Tree.Algorithm.check(); err != nil {
		return nil, err
	}
	res, err := forest.TrainContext(ctx, src, cfg.internal())
	if err != nil {
		return nil, err
	}
	if cfg.Observer != nil {
		rep := res.Report
		rep.Build.Records = src.NumRecords()
		rep.Build.Seed = res.Forest.Seed
		rep.Build.WallNs = res.Wall.Nanoseconds()
		cfg.Observer.rep = rep
	}
	return &Forest{f: res.Forest}, nil
}

// ReadForest deserializes a forest model written by Forest.WriteModel. As
// with ReadModel, read failures come back unwrapped while structural
// failures match ErrBadModel.
func ReadForest(r io.Reader) (*Forest, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cmpdt: reading model: %w", err)
	}
	return readForestBytes(data)
}

// readForestBytes decodes a forest model from bytes already read.
func readForestBytes(data []byte) (*Forest, error) {
	inner, err := forest.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return nil, badModel(err)
	}
	return &Forest{f: inner}, nil
}

// LoadForest reads a forest model from a file.
func LoadForest(path string) (*Forest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadForest(f)
}

// ReadPredictor deserializes whichever classification model r holds — a
// single tree (WriteModel/SaveModel) or a forest (Forest.WriteModel) — by
// sniffing the JSON envelope's format field. Regression forests are
// rejected: they have no classification surface, so load them with
// ReadForest and score via PredictValue.
//
// Errors are typed for serving layers: failures reading r (transient I/O)
// come back unwrapped, while every structural rejection — empty input,
// truncated or non-JSON bytes, a wrong format magic, validation failures,
// a regression forest — matches ErrBadModel via errors.Is, so a reloader
// can tell "retry later" from "this file will never load".
func ReadPredictor(r io.Reader) (Predictor, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("cmpdt: reading model: %w", err)
	}
	if len(data) == 0 {
		return nil, badModel(errors.New("empty input"))
	}
	var env struct {
		Format string `json:"format"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, badModel(fmt.Errorf("not a model file: %w", err))
	}
	if env.Format == "cmpdt-forest" {
		f, err := readForestBytes(data)
		if err != nil {
			return nil, err
		}
		if f.Regression() {
			return nil, badModel(errors.New("regression forest has no classification surface; use LoadForest and PredictValue"))
		}
		return f, nil
	}
	return readModelBytes(data)
}

// LoadPredictor reads a tree or forest model from a file (see
// ReadPredictor).
func LoadPredictor(path string) (Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadPredictor(f)
}
