// Package forest implements bagged ensembles of CMP trees over one shared
// storage source.
//
// Each tree trains on its own bootstrap resample, realized as a seeded
// per-record multiplicity mask (storage.Masked) instead of a data copy: all
// trees scan the SAME store — and therefore share whatever page cache it
// carries — while the level-synchronous CMP builder runs over each masked
// view completely unchanged, parallel scans included. The determinism
// invariant extends from single trees to the ensemble: a fixed forest seed
// yields a bit-identical serialized forest at any scan worker count, any
// tree-build concurrency and any cache size.
//
// Classification forests vote (or average leaf class distributions);
// setting Config.Target instead grows regression trees with
// variance-reduction splits on the same binned-histogram machinery (see
// regress.go). Out-of-bag records — those a tree's bootstrap never drew —
// provide the standard generalization estimate without a held-out set.
package forest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// Config tunes a forest build.
type Config struct {
	// Trees is the ensemble size. Zero selects DefaultTrees.
	Trees int
	// FeatureFrac is the fraction of eligible attributes each tree may
	// split on, drawn independently per tree from a seeded permutation.
	// Zero selects 1.0 (no subsampling); values must lie in (0, 1].
	FeatureFrac float64
	// NoBootstrap trains every tree on the full training set (the masks
	// degenerate to identity). Out-of-bag estimation is then impossible
	// and OOBCount stays zero.
	NoBootstrap bool
	// Seed drives every random choice the forest layer makes: per-tree
	// bootstrap masks and per-tree feature subsets each draw from their
	// own splitmix64-derived stream.
	Seed int64
	// Parallel bounds how many trees build concurrently; <= 0 selects
	// GOMAXPROCS. Concurrency never changes the result: each tree's build
	// depends only on its own masked view and derived seeds.
	Parallel int
	// Tree is the per-tree build configuration (algorithm, intervals,
	// stopping rules, scan workers). Its Seed is offset by the tree index,
	// its SplitAttrs is overwritten by the per-tree feature subset, and
	// its CacheBytes/Obs are managed by the forest layer.
	Tree core.Config
	// Target, when non-empty, names the numeric attribute to predict:
	// the forest then grows regression trees with variance-reduction
	// splits instead of classifiers. Empty trains classifiers on the
	// dataset's class labels.
	Target string
	// CacheBytes, when positive, sizes the shared source's page cache once
	// before training (a no-op for non-cacheable sources). The cache only
	// changes physical I/O counters, never the forest.
	CacheBytes int64
	// CollectObs gathers a per-tree observability report and merges them
	// into Result.Report (per-tree phase timings summed, I/O summed, wall
	// time maxed). Off by default: instrumentation is per-tree collectors,
	// so concurrent builds never share one.
	CollectObs bool
}

// DefaultTrees is the ensemble size used when Config.Trees is zero.
const DefaultTrees = 16

// Forest is a trained ensemble.
type Forest struct {
	Schema *dataset.Schema
	// Trees in training order; order is part of the model (probability
	// averaging and value averaging sum in it).
	Trees []*tree.Tree
	// Target is the regression target attribute index, -1 for
	// classification.
	Target int
	// Seed, FeatureFrac and Bootstrap record how the forest was grown;
	// they ride along in the serialized model.
	Seed        int64
	FeatureFrac float64
	Bootstrap   bool
	// OOBError is the out-of-bag estimate: misclassification rate for
	// classification, mean squared error for regression. Valid only when
	// OOBCount > 0.
	OOBError float64
	// OOBCount is the number of records with at least one out-of-bag
	// vote.
	OOBCount int
}

// Regression reports whether the forest predicts a numeric target.
func (f *Forest) Regression() bool { return f.Target >= 0 }

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.Trees) }

// TotalNodes sums the member trees' node counts.
func (f *Forest) TotalNodes() int {
	total := 0
	for _, t := range f.Trees {
		total += t.Size()
	}
	return total
}

// Compile flattens the whole ensemble into one contiguous multi-tree
// layout for batch inference.
func (f *Forest) Compile() *tree.CompiledForest {
	return tree.CompileForest(f.Trees, f.Regression())
}

// Result bundles a finished forest build.
type Result struct {
	Forest *Forest
	// IO sums every masked view's logical and physical scan accounting,
	// plus the out-of-bag pass. Logical totals are worker-count
	// independent; physical cache counters vary with scheduling.
	IO storage.Stats
	// Report is the merged per-tree observability report; nil unless
	// Config.CollectObs.
	Report *obs.Report
	// Wall is the ensemble build's wall-clock time.
	Wall time.Duration
}

// Train builds a forest over src. See TrainContext.
func Train(src storage.RangeSource, cfg Config) (*Result, error) {
	return TrainContext(context.Background(), src, cfg)
}

// TrainContext builds a forest over src, bounding tree-build concurrency
// by cfg.Parallel and aborting early when ctx is cancelled. All trees
// train against masked views of src; src itself is never scanned without
// private stats, so its own counters only ever see merged totals.
func TrainContext(ctx context.Context, src storage.RangeSource, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, target, err := normalize(src, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.CacheBytes > 0 {
		if c, ok := src.(storage.Cacheable); ok {
			c.SetCacheBytes(cfg.CacheBytes)
		}
	}
	start := time.Now()
	n := src.NumRecords()
	masks := make([]*storage.Mask, cfg.Trees)
	for i := range masks {
		if cfg.NoBootstrap {
			masks[i] = storage.FullMask(n)
		} else {
			masks[i] = storage.BootstrapMask(n, treeSeed(cfg.Seed, 2*int64(i)))
		}
	}

	trees := make([]*tree.Tree, cfg.Trees)
	views := make([]*storage.Masked, cfg.Trees)
	reports := make([]*obs.Report, cfg.Trees)
	errs := make([]error, cfg.Trees)
	sem := make(chan struct{}, cfg.Parallel)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Trees; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			trees[i], views[i], reports[i], errs[i] = buildOne(ctx, src, masks[i], cfg, target, i)
		}(i)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	f := &Forest{
		Schema:      src.Schema(),
		Trees:       trees,
		Target:      target,
		Seed:        cfg.Seed,
		FeatureFrac: cfg.FeatureFrac,
		Bootstrap:   !cfg.NoBootstrap,
	}
	res := &Result{Forest: f}
	for _, v := range views {
		res.IO.Add(v.Stats())
	}
	if !cfg.NoBootstrap {
		var oobStats storage.Stats
		if err := computeOOB(ctx, src, f, masks, &oobStats); err != nil {
			return nil, err
		}
		res.IO.Add(oobStats)
	}
	if cfg.CollectObs {
		res.Report = obs.MergeReports(reports...)
		// Replace the summed member view with the ensemble total, which
		// additionally includes the out-of-bag pass.
		res.Report.IO = ioSummary(res.IO)
	}
	res.Wall = time.Since(start)
	return res, nil
}

// normalize fills defaults and validates; returns the regression target
// attribute index (-1 for classification).
func normalize(src storage.RangeSource, cfg Config) (Config, int, error) {
	if cfg.Trees == 0 {
		cfg.Trees = DefaultTrees
	}
	if cfg.Trees < 1 {
		return cfg, 0, fmt.Errorf("forest: Trees %d < 1", cfg.Trees)
	}
	if cfg.FeatureFrac == 0 {
		cfg.FeatureFrac = 1
	}
	if cfg.FeatureFrac < 0 || cfg.FeatureFrac > 1 {
		return cfg, 0, fmt.Errorf("forest: FeatureFrac %g outside (0,1]", cfg.FeatureFrac)
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	schema := src.Schema()
	if err := schema.Validate(); err != nil {
		return cfg, 0, err
	}
	if src.NumRecords() == 0 {
		return cfg, 0, errors.New("forest: empty training set")
	}
	target := -1
	if cfg.Target != "" {
		target = schema.AttrIndex(cfg.Target)
		if target < 0 {
			return cfg, 0, fmt.Errorf("forest: unknown target attribute %q", cfg.Target)
		}
		if schema.Attrs[target].Kind != dataset.Numeric {
			return cfg, 0, fmt.Errorf("forest: target attribute %q is not numeric", cfg.Target)
		}
	}
	return cfg, target, nil
}

// buildOne trains tree i over its masked view.
func buildOne(ctx context.Context, src storage.RangeSource, mask *storage.Mask, cfg Config, target, i int) (*tree.Tree, *storage.Masked, *obs.Report, error) {
	view, err := storage.NewMasked(src, mask)
	if err != nil {
		return nil, nil, nil, err
	}
	attrs := featureSubset(src.Schema(), cfg, target, i)
	if target >= 0 {
		t, err := buildRegressTree(ctx, view, cfg, target, attrs, i)
		return t, view, nil, err
	}
	tcfg := cfg.Tree
	tcfg.Seed += int64(i)
	tcfg.SplitAttrs = attrs
	tcfg.CacheBytes = 0 // the shared store's cache is sized once, above
	var col *obs.Collector
	if cfg.CollectObs {
		col = obs.NewCollector(tcfg.Workers)
		tcfg.Obs = col
	}
	res, err := core.BuildContext(ctx, view, tcfg)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("forest: tree %d: %w", i, err)
	}
	var rep *obs.Report
	if col != nil {
		rep = col.Snapshot()
		res.Stats.FillSummary(&rep.Build)
		res.Stats.FillQuant(&rep.Quant)
		rep.Build.TreeNodes = res.Tree.Size()
		rep.Build.TreeLeaves = res.Tree.Leaves()
		rep.Build.TreeDepth = res.Tree.Depth()
	}
	return res.Tree, view, rep, nil
}

// featureSubset draws tree i's allowed split attributes: a seeded
// permutation of the eligible attributes truncated to ceil(frac * |eligible|),
// sorted ascending. Returns nil (every attribute) when the fraction keeps
// them all. Regression trees never split the target, so it is excluded
// from eligibility before the draw.
func featureSubset(schema *dataset.Schema, cfg Config, target, i int) []int {
	eligible := make([]int, 0, schema.NumAttrs())
	for a := 0; a < schema.NumAttrs(); a++ {
		if a == target {
			continue
		}
		eligible = append(eligible, a)
	}
	k := int(cfg.FeatureFrac*float64(len(eligible)) + 0.5)
	if k < 1 {
		k = 1
	}
	if k >= len(eligible) {
		return nil
	}
	rng := newSplitmixPerm(treeSeed(cfg.Seed, 2*int64(i)+1), len(eligible))
	attrs := make([]int, k)
	for j := 0; j < k; j++ {
		attrs[j] = eligible[rng[j]]
	}
	sort.Ints(attrs)
	return attrs
}

// ioSummary mirrors a storage.Stats into a report's I/O section (forest
// cannot use eval's identical helper: eval sits above this package).
func ioSummary(s storage.Stats) obs.IOSummary {
	return obs.IOSummary{
		Scans:           s.Scans,
		RecordsRead:     s.RecordsRead,
		BytesRead:       s.BytesRead,
		PagesRead:       s.PagesRead,
		BytesWritten:    s.BytesWritten,
		PagesWritten:    s.PagesWritten,
		Retries:         s.Retries,
		CorruptPages:    s.CorruptPages,
		CacheHits:       s.CacheHits,
		CacheMisses:     s.CacheMisses,
		CacheEvictions:  s.Evictions,
		PrefetchedPages: s.PrefetchedPages,
	}
}

// treeSeed derives stream s of the forest seed via splitmix64, so per-tree
// bootstrap and feature draws are decorrelated from each other and from
// the base seed.
func treeSeed(seed, s int64) int64 {
	z := uint64(seed) + (uint64(s)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// newSplitmixPerm returns a Fisher-Yates permutation of [0,n) driven by a
// splitmix64 stream — deterministic for a given seed on every platform and
// Go version (no dependency on math/rand's shuffle implementation).
func newSplitmixPerm(seed int64, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	z := uint64(seed)
	next := func() uint64 {
		z += 0x9E3779B97F4A7C15
		x := z
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		return x ^ (x >> 31)
	}
	for i := n - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// computeOOB runs the out-of-bag estimate with ONE serial pass over the
// underlying store: for each record, the trees whose bootstrap never drew
// it predict, and their vote (classification) or mean (regression) is
// scored against the truth. The pass is serial by construction so the
// floating-point accumulation order — and therefore the estimate — is
// independent of every worker-count knob.
func computeOOB(ctx context.Context, src storage.RangeSource, f *Forest, masks []*storage.Mask, stats *storage.Stats) error {
	n := src.NumRecords()
	nc := f.Schema.NumClasses()
	votes := make([]int, nc)
	wrong := 0
	sqErr := 0.0
	count := 0
	checkEvery := 1 << 14
	err := src.ScanRange(0, n, stats, func(rid int, vals []float64, label int) error {
		if rid%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if f.Target >= 0 {
			sum := 0.0
			oob := 0
			for ti, m := range masks {
				if m.Count(rid) == 0 {
					sum += f.Trees[ti].PredictValue(vals)
					oob++
				}
			}
			if oob == 0 {
				return nil
			}
			count++
			d := sum/float64(oob) - vals[f.Target]
			sqErr += d * d
			return nil
		}
		for c := range votes {
			votes[c] = 0
		}
		oob := 0
		for ti, m := range masks {
			if m.Count(rid) == 0 {
				votes[f.Trees[ti].Predict(vals)]++
				oob++
			}
		}
		if oob == 0 {
			return nil
		}
		best := 0
		for c := 1; c < nc; c++ {
			if votes[c] > votes[best] {
				best = c
			}
		}
		count++
		if best != label {
			wrong++
		}
		return nil
	})
	if err != nil {
		return err
	}
	f.OOBCount = count
	if count > 0 {
		if f.Target >= 0 {
			f.OOBError = sqErr / float64(count)
		} else {
			f.OOBError = float64(wrong) / float64(count)
		}
	}
	return nil
}
