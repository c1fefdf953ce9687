// Package forest implements bagged ensembles of CMP trees over one shared
// storage source.
//
// Each tree trains on its own bootstrap resample, realized as a seeded
// per-record multiplicity mask (storage.Mask) instead of a data copy. Raw
// and regression trees scan the SAME store through masked views
// (storage.Masked) — and therefore share whatever page cache it carries —
// while the level-synchronous CMP builder runs over each view completely
// unchanged, parallel scans included. Quantized classification trees do
// not scan the store at all: the forest scans it once into a value-sorted
// core.Index, and each tree derives its own cut points and code records
// from the index and its mask (core.BuildIndexed). The determinism
// invariant extends from single trees to the ensemble: a fixed forest seed
// yields a bit-identical serialized forest at any scan worker count, any
// tree-build concurrency and any cache size.
//
// Classification forests vote (or average leaf class distributions);
// setting Config.Target instead grows regression trees with
// variance-reduction splits on the same binned-histogram machinery (see
// regress.go). Out-of-bag records — those a tree's bootstrap never drew —
// provide the standard generalization estimate without a held-out set.
// An indexed forest's trees vote on theirs from the index as each tree
// finishes, and drop their masks, so the store is read once; raw and
// regression forests keep every mask for one pass over the store at the
// end. The two tally the same integer votes, so the estimate does not
// depend on which reads the values.
package forest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
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
	// own splitmix64-derived stream. Zero takes the validated Tree.Seed.
	Seed int64
	// Parallel bounds how many trees build concurrently; <= 0 selects
	// GOMAXPROCS. Concurrency never changes the result: each tree's build
	// depends only on its own masked view and derived seeds.
	Parallel int
	// Tree is the per-tree build configuration (algorithm, intervals,
	// stopping rules, scan workers), validated before any record is read.
	// Its Seed is offset by the tree index. Its CacheBytes, when positive,
	// sizes the shared source's page cache once before training (a no-op
	// for non-cacheable sources): the cache serves the raw and regression
	// trees' per-round scans and their out-of-bag pass (a quantized
	// classification forest reads the store once, for its index, so the
	// cache serves none of its reads); it only changes physical I/O
	// counters, never the forest. SplitAttrs and Obs must be
	// unset: the forest draws each tree's feature subset and, under
	// CollectObs, gives each tree its own collector. Regression trees
	// (Target set) read Intervals, MaxDepth, Workers and DiscretizeSample,
	// stop at exact.MinSplitRecords and core.MaxRounds like a CMP build,
	// and reject Quantize, ValidateSkip and ObliqueAllPairs.
	Tree core.Config
	// Target, when non-empty, names the numeric attribute to predict:
	// the forest then grows regression trees with variance-reduction
	// splits instead of classifiers. Empty trains classifiers on the
	// dataset's class labels.
	Target string
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
	// IO sums the reads of the shared store: every masked view's logical
	// and physical scan accounting plus the out-of-bag pass (raw and
	// regression trees), or the one index scan (quantized classification
	// trees, whose out-of-bag votes read the index). Logical totals are
	// worker-count independent; physical cache counters vary with
	// scheduling.
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
// by cfg.Parallel and aborting early when ctx is cancelled. Trees train
// against masked views of src or, when quantized classifiers, against one
// index of it; src itself is never scanned without private stats, so its
// own counters only ever see merged totals.
func TrainContext(ctx context.Context, src storage.RangeSource, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, target, err := normalize(src, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Tree.CacheBytes > 0 {
		if c, ok := src.(storage.Cacheable); ok {
			c.SetCacheBytes(cfg.Tree.CacheBytes)
		}
	}
	start := time.Now()
	n := src.NumRecords()

	// Quantized classification trees quantize their views from one
	// value-sorted index of the store instead of sorting and scanning it
	// per tree.
	var idx *core.Index
	var idxNs int64
	if target < 0 && cfg.Tree.Quantize {
		idxStart := time.Now()
		var err error
		if idx, err = core.NewIndex(ctx, src, cfg.Parallel); err != nil {
			return nil, fmt.Errorf("forest: indexing the training set: %w", err)
		}
		idxNs = time.Since(idxStart).Nanoseconds()
	}

	// Out of bag: an indexed forest's trees vote on their out-of-bag
	// records from the index as each finishes, and their masks go with
	// them; the other forests keep every mask for one pass over the store
	// once all trees are built.
	var votes *oobVotes
	var masks []*storage.Mask
	if !cfg.NoBootstrap {
		if idx != nil {
			votes = newOOBVotes(n, src.Schema().NumClasses())
		} else {
			masks = make([]*storage.Mask, cfg.Trees)
		}
	}

	trees := make([]*tree.Tree, cfg.Trees)
	viewIO := make([]storage.Stats, cfg.Trees)
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
				// Named like a failed build: which tree sees the
				// cancellation first depends on scheduling.
				errs[i] = fmt.Errorf("forest: tree %d: %w", i, err)
				return
			}
			// Each tree draws its own mask, on its own goroutine.
			var mask *storage.Mask
			if cfg.NoBootstrap {
				mask = storage.FullMask(n)
			} else {
				mask = storage.BootstrapMask(n, treeSeed(cfg.Seed, 2*int64(i)))
			}
			trees[i], viewIO[i], reports[i], errs[i] = buildOne(ctx, src, idx, mask, cfg, target, i)
			switch {
			case errs[i] != nil:
			case votes != nil:
				idx.OutOfBag(mask, func(u int, vals []float64) { votes.add(u, trees[i].Predict(vals)) })
			case masks != nil:
				masks[i] = mask
			}
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
	if idx != nil {
		res.IO.Add(idx.Stats())
	}
	for _, s := range viewIO {
		res.IO.Add(s)
	}
	switch {
	case votes != nil:
		outcome := make([]oobOutcome, n)
		for u := range outcome {
			outcome[u] = votes.outcome(u, idx.Label(u))
		}
		f.finishOOB(outcome, nil)
	case masks != nil:
		var oobStats storage.Stats
		if err := computeOOB(ctx, src, f, masks, cfg.Parallel, &oobStats); err != nil {
			return nil, err
		}
		res.IO.Add(oobStats)
	}
	if cfg.CollectObs {
		res.Report = obs.MergeReports(reports...)
		if idx != nil {
			addIndexBuild(res.Report, idxNs)
		}
		// Replace the summed member view with the ensemble total, which
		// additionally includes the index scan or the out-of-bag pass.
		res.Report.IO = res.IO.Summary()
	}
	res.Wall = time.Since(start)
	return res, nil
}

// normalize fills defaults and validates, reading no record; returns the
// regression target attribute index (-1 for classification).
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
	if !(cfg.FeatureFrac > 0 && cfg.FeatureFrac <= 1) {
		return cfg, 0, fmt.Errorf("forest: FeatureFrac %g outside (0,1]", cfg.FeatureFrac)
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = runtime.GOMAXPROCS(0)
	}
	if cfg.Tree.SplitAttrs != nil {
		return cfg, 0, errors.New("forest: Tree.SplitAttrs must be nil: the forest draws each tree's feature subset (FeatureFrac)")
	}
	if cfg.Tree.Obs != nil {
		return cfg, 0, errors.New("forest: Tree.Obs must be nil: set CollectObs to give each tree its own collector")
	}
	var err error
	if cfg.Tree, err = cfg.Tree.Validate(); err != nil {
		return cfg, 0, fmt.Errorf("forest: %w", err)
	}
	if cfg.Seed == 0 {
		cfg.Seed = cfg.Tree.Seed
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
		for _, k := range []struct {
			name string
			set  bool
		}{
			{"Quantize", cfg.Tree.Quantize}, {"Validation=ValidateSkip", cfg.Tree.Validation == core.ValidateSkip},
			{"ObliqueAllPairs", cfg.Tree.ObliqueAllPairs},
		} {
			if k.set {
				return cfg, 0, fmt.Errorf("forest: regression trees cannot honour Tree.%s", k.name)
			}
		}
	}
	return cfg, target, nil
}

// buildOne trains tree i and returns the raw-store I/O its build made. A
// quantized classification tree quantizes from idx and reads nothing; the
// others train over a masked view of src, whose I/O is returned.
func buildOne(ctx context.Context, src storage.RangeSource, idx *core.Index, mask *storage.Mask, cfg Config, target, i int) (*tree.Tree, storage.Stats, *obs.Report, error) {
	attrs := featureSubset(src.Schema(), cfg, target, i)
	var view *storage.Masked
	if idx == nil {
		var err error
		if view, err = storage.NewMasked(src, mask); err != nil {
			return nil, storage.Stats{}, nil, err
		}
	}
	if target >= 0 {
		t, err := buildRegressTree(ctx, view, cfg, target, attrs, i)
		return t, view.Stats(), nil, err
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
	var res *core.Result
	var err error
	var read storage.Stats
	if idx != nil {
		res, err = core.BuildIndexed(ctx, idx, mask, tcfg)
	} else {
		res, err = core.BuildContext(ctx, view, tcfg)
		read = view.Stats()
	}
	if err != nil {
		return nil, storage.Stats{}, nil, fmt.Errorf("forest: tree %d: %w", i, err)
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
	return res.Tree, read, rep, nil
}

// addIndexBuild charges the forest's one index build to a merged report:
// its time to the init phase (in the totals and in round 0, where each
// tree's own quantize walk already sits) and to the quantize time, and its
// scan to round 0 and the build's scan count.
func addIndexBuild(rep *obs.Report, ns int64) {
	init := obs.PhaseInit.String()
	st := rep.PhaseTotals[init]
	st.Ns += ns
	st.Count++
	rep.PhaseTotals[init] = st
	if len(rep.Rounds) > 0 {
		r0 := &rep.Rounds[0]
		st := r0.Phases[init]
		st.Ns += ns
		st.Count++
		r0.Phases[init] = st
		r0.Scans++
	}
	rep.Build.Scans++
	rep.Quant.QuantizeNs += ns
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

// computeOOB is the out-of-bag pass of a raw or regression forest: ONE
// pass over the underlying store, read in at most parallel contiguous
// ranges at once. For each record, the trees whose bootstrap never drew it
// predict, and their vote (classification) or mean (regression) is stored
// as the record's outcome. It skips the records Schema.RecordDefect
// rejects, as training does. The outcomes are then reduced in record
// order, so the floating-point accumulation — and therefore the estimate —
// is independent of every worker-count knob. The pass is metered into
// stats with its pages counted over the whole pass, and it is not a scan.
// An indexed forest makes no such pass: its trees vote from the index.
func computeOOB(ctx context.Context, src storage.RangeSource, f *Forest, masks []*storage.Mask, parallel int, stats *storage.Stats) error {
	n := src.NumRecords()
	outcome := make([]oobOutcome, n)
	var resid []float64
	var votes *oobVotes
	if f.Target >= 0 {
		resid = make([]float64, n)
	} else {
		votes = newOOBVotes(n, f.Schema.NumClasses())
	}
	err := storage.ParallelScan(ctx, oobMeter{src, stats}, parallel, func(_, rid int, vals []float64, label int) error {
		if f.Schema.RecordDefect(vals, label) != "" {
			return nil
		}
		if votes != nil {
			for ti, m := range masks {
				if m.Count(rid) == 0 {
					votes.add(rid, f.Trees[ti].Predict(vals))
				}
			}
			outcome[rid] = votes.outcome(rid, label)
			return nil
		}
		sum := 0.0
		oob := 0
		for ti, m := range masks {
			if m.Count(rid) == 0 {
				sum += f.Trees[ti].PredictValue(vals)
				oob++
			}
		}
		if oob > 0 {
			outcome[rid] = oobScored
			resid[rid] = sum/float64(oob) - vals[f.Target]
		}
		return nil
	})
	if err != nil {
		return err
	}
	f.finishOOB(outcome, resid)
	return nil
}

// finishOOB reduces the per-record outcomes, in record order, into f's
// out-of-bag count and error; resid holds the regression residuals.
func (f *Forest) finishOOB(outcome []oobOutcome, resid []float64) {
	count, wrong := 0, 0
	sqErr := 0.0
	for rid, o := range outcome {
		if o == oobNone {
			continue
		}
		count++
		if o == oobMissed {
			wrong++
		}
		if resid != nil {
			sqErr += resid[rid] * resid[rid]
		}
	}
	f.OOBCount = count
	if count > 0 {
		if f.Target >= 0 {
			f.OOBError = sqErr / float64(count)
		} else {
			f.OOBError = float64(wrong) / float64(count)
		}
	}
}

// oobVotes is a classification forest's out-of-bag vote table:
// votes[u*nc+c] counts the trees that left record u out of their bootstrap
// and predicted class c for it. The counts are integers, so the table, and
// the estimate read from it, do not depend on the order the trees vote in.
type oobVotes struct {
	nc    int
	votes []int32
}

func newOOBVotes(n, nc int) *oobVotes {
	return &oobVotes{nc: nc, votes: make([]int32, n*nc)}
}

// add counts one vote for class c on record u. Trees may vote
// concurrently.
func (o *oobVotes) add(u, c int) { atomic.AddInt32(&o.votes[u*o.nc+c], 1) }

// outcome is what record u's votes make of it once every tree has voted:
// none without a vote; otherwise the class with the most votes, the lowest
// of tied ones, against label.
func (o *oobVotes) outcome(u, label int) oobOutcome {
	v := o.votes[u*o.nc : (u+1)*o.nc]
	best := 0
	for c := 1; c < len(v); c++ {
		if v[c] > v[best] {
			best = c
		}
	}
	switch {
	case v[best] == 0:
		return oobNone
	case best == label:
		return oobScored
	}
	return oobMissed
}

// oobOutcome is what the out-of-bag pass made of one record.
type oobOutcome uint8

const (
	oobNone   oobOutcome = iota // no out-of-bag tree, or a skipped record
	oobScored                   // predicted: the vote winner is right, or a regression residual
	oobMissed                   // voted, and the winner is not the record's label
)

// oobMeter is a RangeSource whose completed parallel passes are metered
// into stats without counting a scan: a raw or regression forest's
// out-of-bag pass reads the store but is not one of the build's scans.
type oobMeter struct {
	storage.RangeSource
	stats *storage.Stats
}

func (m oobMeter) AddStats(s storage.Stats) {
	s.Scans = 0
	m.stats.Add(s)
}
