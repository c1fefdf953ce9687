package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/gini"
	"cmpdt/internal/histogram"
	"cmpdt/internal/obs"
	"cmpdt/internal/prune"
	"cmpdt/internal/quantile"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// errSampleDone terminates the discretization pass once the sample is full.
var errSampleDone = errors.New("core: sample complete")

// Build constructs a decision tree over src with the given configuration,
// scanning the source once per construction round as described in Figures 4
// and 10 of the paper (plus one initial scan to sample the equal-depth
// interval boundaries).
func Build(src storage.Source, cfg Config) (*Result, error) {
	return BuildContext(context.Background(), src, cfg)
}

// BuildContext is Build under a context: cancelling ctx (or exceeding its
// deadline) aborts the build with ctx.Err() within a bounded slice of one
// scan round — every scan path, serial and parallel, checks the context
// periodically, and the parallel workers all join before BuildContext
// returns, so a cancelled build leaks no goroutines. Any panic escaping the
// builder or its worker pool is recovered into an error instead of crashing
// the process.
func BuildContext(ctx context.Context, src storage.Source, cfg Config) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: build panicked: %v", r)
		}
	}()
	cfg, err = cfg.normalize()
	if err != nil {
		return nil, err
	}
	if err := src.Schema().Validate(); err != nil {
		return nil, err
	}
	if src.NumRecords() == 0 {
		return nil, errors.New("core: empty training set")
	}
	if cfg.CacheBytes > 0 {
		if c, ok := src.(storage.Cacheable); ok {
			c.SetCacheBytes(cfg.CacheBytes)
		}
	}
	if _, preQuantized := src.(storage.CodeSource); cfg.Quantize || preQuantized {
		res, err := buildQuantized(ctx, src.Schema(), cfg, func(b *qbuilder) (func(), error) {
			return b.quantizeSource(src)
		})
		if err != nil {
			return nil, err
		}
		if !preQuantized {
			res.IO.Add(src.Stats())
		}
		return res, nil
	}
	b := &builder{
		ctx:    ctx,
		cfg:    cfg,
		src:    src,
		schema: src.Schema(),
		na:     src.Schema().NumAttrs(),
		nc:     src.Schema().NumClasses(),
		byTN:   make(map[*tree.Node]*bnode),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		obs:    cfg.Obs,
	}
	if b.allowed, err = splitAttrMask(cfg.SplitAttrs, b.na); err != nil {
		return nil, err
	}
	for a := 0; a < b.na; a++ {
		if b.schema.Attrs[a].Kind == dataset.Numeric {
			b.numeric = append(b.numeric, a)
		}
	}
	b.stats.RootSplitAttr = -1
	b.useMats = cfg.Algorithm != CMPS && len(b.numeric) >= 2
	if b.useMats && cfg.Algorithm == CMPFull && cfg.ObliqueAllPairs {
		for i := 0; i < len(b.numeric); i++ {
			for j := i + 1; j < len(b.numeric); j++ {
				b.pairs = append(b.pairs, [2]int{b.numeric[i], b.numeric[j]})
			}
		}
	}
	b.obs.StartRound(0) // round 0: the discretization pass
	initSpan := b.obs.StartSpan(obs.PhaseInit)
	if err := b.init(); err != nil {
		return nil, err
	}
	initSpan.End()
	b.makeRoot()

	for b.round = 1; b.hasWork(); b.round++ {
		if b.round > b.cfg.MaxRounds {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b.obs.StartRound(b.round)
		if err := b.scan(); err != nil {
			return nil, err
		}
		b.resolveAll()
		b.snapshotMemory()
		b.finishCollects()
		b.decideScanned()
		if b.cfg.Prune {
			pruneSpan := b.obs.StartSpan(obs.PhasePrune)
			b.applyPrune(true)
			pruneSpan.End()
		}
		b.snapshotMemory()
		if debugValidate {
			b.validate("end of round")
		}
	}
	b.finalizeRemaining()
	if b.cfg.Prune {
		pruneSpan := b.obs.StartSpan(obs.PhasePrune)
		b.applyPrune(false)
		pruneSpan.End()
	}
	t := &tree.Tree{Root: b.root.tn, Schema: b.schema}
	b.stats.ObliqueSplits = t.CountLinearSplits()
	b.stats.IntervalScanRounds = b.stats.Rounds
	return &Result{Tree: t, Stats: b.stats, IO: b.src.Stats()}, nil
}

type builder struct {
	ctx    context.Context
	cfg    Config
	src    storage.Source
	schema *dataset.Schema
	na, nc int

	numeric []int    // numeric attribute indices
	allowed []bool   // split-candidate attributes (nil = all; Config.SplitAttrs)
	useMats bool     // CMP-B / CMP with >= 2 numeric attributes
	pairs   [][2]int // ObliqueAllPairs extension: all numeric pairs

	attrMin, attrMax []float64 // observed numeric domains (init scan)
	rootDisc         []*quantile.Discretizer

	nid      []int32  // record id -> builder node id ("swapped to disk")
	nodes    []*bnode // node id -> node (re-aimed when nodes merge)
	all      []*bnode // every node ever created, for accounting
	scanned  []*bnode // building nodes the next scan will fill
	pendings []*bnode // pending nodes with no pending ancestor
	collects []*bnode
	byTN     map[*tree.Node]*bnode

	root  *bnode
	round int
	stats Stats
	rng   *rand.Rand
	obs   *obs.Collector // nil when observability is off; all methods nil-safe
}

// attrAllowed reports whether attribute a may appear in a split test (see
// Config.SplitAttrs).
func (b *builder) attrAllowed(a int) bool {
	return b.allowed == nil || b.allowed[a]
}

// ctxCheckMask throttles context polling in serial scan loops: the context
// is checked every 1024 records, cheap against the per-record routing work
// yet frequent enough that cancellation lands well inside one scan round.
const ctxCheckMask = 1023

// errInvalidRecord builds the ValidateStrict abort error.
func errInvalidRecord(rid int, defect string) error {
	return fmt.Errorf("core: record %d invalid: %s (set Config.Validation = ValidateSkip to drop such records)", rid, defect)
}

// init performs the discretization pass: a reservoir sample of each numeric
// attribute drives the equal-depth interval boundaries, and the observed
// min/max bound each domain.
func (b *builder) init() error {
	n := b.src.NumRecords()
	b.nid = make([]int32, n)
	b.attrMin = make([]float64, b.na)
	b.attrMax = make([]float64, b.na)
	for a := range b.attrMin {
		b.attrMin[a] = posInf
		b.attrMax[a] = negInf
	}
	if b.cfg.DiscretizeSample < 0 {
		return b.initFullPass(n)
	}
	sampleCap := b.cfg.DiscretizeSample
	if sampleCap == 0 || sampleCap > n {
		sampleCap = n
	}
	samples := make([][]float64, b.na)
	for _, a := range b.numeric {
		samples[a] = make([]float64, 0, sampleCap)
	}
	// The discretization pass reads only the sample prefix: the benchmark
	// generators emit i.i.d. records, so a prefix is a uniform sample, and
	// the scan cost model charges only the bytes actually read (the papers
	// likewise compute quantiles from a sample rather than a full pass).
	seen := 0
	checked := 0
	err := b.src.Scan(func(rid int, vals []float64, label int) error {
		checked++
		if checked&ctxCheckMask == 0 {
			if err := b.ctx.Err(); err != nil {
				return err
			}
		}
		if d := b.schema.RecordDefect(vals, label); d != "" {
			if b.cfg.Validation == ValidateStrict {
				return errInvalidRecord(rid, d)
			}
			return nil // skipped: only valid records feed the sample
		}
		for _, a := range b.numeric {
			v := vals[a]
			if v < b.attrMin[a] {
				b.attrMin[a] = v
			}
			if v > b.attrMax[a] {
				b.attrMax[a] = v
			}
			samples[a] = append(samples[a], v)
		}
		seen++
		if seen >= sampleCap {
			return errSampleDone
		}
		return nil
	})
	if err != nil && err != errSampleDone {
		return err
	}
	if err == nil {
		// The sample never filled, so the pass ran to completion and the
		// storage layer counted a full scan; mirror it so the report's
		// per-round scan totals match storage.Stats exactly.
		b.obs.IncScans()
	}
	if sampleCap >= n {
		b.stats.Scans++
	}
	b.rootDisc = make([]*quantile.Discretizer, b.na)
	for _, a := range b.numeric {
		d, err := quantile.EqualDepth(samples[a], b.cfg.Intervals)
		if err != nil {
			return fmt.Errorf("core: discretizing %s: %w", b.schema.Attrs[a].Name, err)
		}
		b.rootDisc[a] = d
	}
	return nil
}

// initFullPass computes the root discretizers from a full scan using
// Greenwald-Khanna sketches — bounded memory regardless of the dataset
// size, the classic one-pass quantiling for disk-resident data. Selected
// with a negative DiscretizeSample.
func (b *builder) initFullPass(n int) error {
	eps := 1 / (8 * float64(b.cfg.Intervals))
	if eps > 0.01 {
		eps = 0.01
	}
	sketches := make([]*quantile.GK, b.na)
	for _, a := range b.numeric {
		gk, err := quantile.NewGK(eps)
		if err != nil {
			return err
		}
		sketches[a] = gk
	}
	checked := 0
	err := b.src.Scan(func(rid int, vals []float64, label int) error {
		checked++
		if checked&ctxCheckMask == 0 {
			if err := b.ctx.Err(); err != nil {
				return err
			}
		}
		if d := b.schema.RecordDefect(vals, label); d != "" {
			if b.cfg.Validation == ValidateStrict {
				return errInvalidRecord(rid, d)
			}
			return nil
		}
		for _, a := range b.numeric {
			v := vals[a]
			if v < b.attrMin[a] {
				b.attrMin[a] = v
			}
			if v > b.attrMax[a] {
				b.attrMax[a] = v
			}
			sketches[a].Add(v)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.obs.IncScans() // the sketch pass completed a full storage scan
	b.stats.Scans++
	b.rootDisc = make([]*quantile.Discretizer, b.na)
	for _, a := range b.numeric {
		d, err := sketches[a].Discretizer(b.cfg.Intervals)
		if err != nil {
			return fmt.Errorf("core: discretizing %s: %w", b.schema.Attrs[a].Name, err)
		}
		b.rootDisc[a] = d
	}
	return nil
}

func (b *builder) makeRoot() {
	x := -1
	if b.useMats {
		// The paper selects the root's X-axis attribute randomly.
		x = b.numeric[b.rng.Intn(len(b.numeric))]
	}
	b.root = b.newBnode(0, b.rootDisc, x)
	b.allocHists(b.root)
	b.queueScanned(b.root)
}

// newBnode creates a builder node (state stBuilding) with its tree node.
func (b *builder) newBnode(depth int, disc []*quantile.Discretizer, xAttr int) *bnode {
	n := &bnode{
		id:    int32(len(b.nodes)),
		tn:    &tree.Node{},
		depth: depth,
		state: stBuilding,
		disc:  disc,
		xAttr: xAttr,
	}
	n.buffer.init(b.na)
	b.nodes = append(b.nodes, n)
	b.all = append(b.all, n)
	b.byTN[n.tn] = n
	return n
}

// allocHists gives a building node its empty histograms.
func (b *builder) allocHists(n *bnode) {
	n.histSet = b.makeHists(n.disc, n.xAttr)
}

// makeHists allocates the empty histogram set a building node with the
// given discretizers and X-axis fills during a scan. Parallel scan workers
// call it again with the same geometry to get per-worker shards.
func (b *builder) makeHists(disc []*quantile.Discretizer, xAttr int) histSet {
	var hs histSet
	if b.useMats {
		hs.mats = make([]*histogram.Matrix, b.na)
		xb := disc[xAttr].Bins()
		for _, y := range b.numeric {
			if y == xAttr {
				continue
			}
			hs.mats[y] = histogram.NewMatrix(xb, disc[y].Bins(), b.nc)
		}
		hs.hists = make([]*histogram.Hist1D, b.na)
		for a := 0; a < b.na; a++ {
			if b.schema.Attrs[a].Kind == dataset.Categorical {
				hs.hists[a] = histogram.New1D(b.schema.Attrs[a].Cardinality(), b.nc)
			}
		}
		if len(b.numeric) == 1 {
			// Degenerate: a single numeric attribute cannot form a matrix.
			a := b.numeric[0]
			hs.hists[a] = histogram.New1D(disc[a].Bins(), b.nc)
			hs.mats = nil
		}
		if b.pairs != nil && hs.mats != nil {
			// Pair matrices feed the oblique line search; the refinement
			// step needs full discretizer resolution or the fitted line's
			// offset error leaves impure children behind.
			hs.pairMats = make([]*histogram.Matrix, len(b.pairs))
			for pi, pr := range b.pairs {
				if pr[0] == xAttr || pr[1] == xAttr {
					continue // already covered by mats
				}
				hs.pairMats[pi] = histogram.NewMatrix(disc[pr[0]].Bins(), disc[pr[1]].Bins(), b.nc)
			}
		}
		return hs
	}
	hs.hists = make([]*histogram.Hist1D, b.na)
	for a := 0; a < b.na; a++ {
		if b.schema.Attrs[a].Kind == dataset.Categorical {
			hs.hists[a] = histogram.New1D(b.schema.Attrs[a].Cardinality(), b.nc)
		} else {
			hs.hists[a] = histogram.New1D(disc[a].Bins(), b.nc)
		}
	}
	return hs
}

func (b *builder) hasWork() bool {
	return len(b.scanned) > 0 || len(b.pendings) > 0 || len(b.collects) > 0
}

// queueScanned enters n into the scanned list exactly once; a node already
// queued (tracked by bnode.queued) is left where it is.
func (b *builder) queueScanned(n *bnode) {
	if n.queued {
		return
	}
	n.queued = true
	b.scanned = append(b.scanned, n)
}

// scan performs one pass over the training set, routing every record to its
// place: histogram update, alive-interval buffer, collect buffer, or settled
// leaf. With Workers > 1 and a range-scannable source the pass is sharded
// across the worker pool (see scanParallel); the serial pass below is the
// reference behavior the parallel one reproduces bit-identically.
func (b *builder) scan() error {
	if b.cfg.Workers > 1 {
		if rs, ok := b.src.(storage.RangeSource); ok {
			return b.scanParallel(rs)
		}
	}
	span := b.obs.StartSpan(obs.PhaseScan)
	var skipped int64
	checked := 0
	err := b.src.Scan(func(rid int, vals []float64, label int) error {
		checked++
		if checked&ctxCheckMask == 0 {
			if err := b.ctx.Err(); err != nil {
				return err
			}
		}
		if d := b.schema.RecordDefect(vals, label); d != "" {
			if b.cfg.Validation == ValidateStrict {
				return errInvalidRecord(rid, d)
			}
			skipped++
			return nil
		}
		b.route(b.nodes[b.nid[rid]], rid, vals, label)
		return nil
	})
	if err != nil {
		return err
	}
	b.obs.AddWorkerScan(0, int64(checked), span.End())
	b.finishScan(skipped)
	return nil
}

// finishScan updates the per-scan counters shared by the serial and
// parallel passes. skipped is the number of invalid records this full pass
// dropped under ValidateSkip; validation is pure per-record, so the count
// is identical every pass and is recorded rather than accumulated.
func (b *builder) finishScan(skipped int64) {
	b.obs.IncScans() // one completed full storage pass
	b.stats.Scans++
	b.stats.Rounds++
	b.stats.SkippedRecords = skipped
	// The paper swaps the nid array to disk: one read and one write of
	// 4 bytes per record per scan.
	b.stats.NidBytesIO += 8 * int64(len(b.nid))
}

// route walks a record down from start through resolved splits and pending
// regions until it lands somewhere: a building histogram, an alive-interval
// buffer, a collect buffer, or a settled leaf. Stale entry points (nodes
// retired by merges, reverts or pruning) resolve through their successor
// chain first.
func (b *builder) route(start *bnode, rid int, vals []float64, label int) {
	b.routeTo(nil, start, rid, vals, label)
}

// routeTo is route with an optional per-worker shard: when sh is non-nil
// the terminal write (histogram count or buffer append) lands in the
// shard's private storage instead of the node's, so concurrent workers
// never touch shared counts. The walk itself only reads state that is
// frozen during a scan.
func (b *builder) routeTo(sh *scanShard, start *bnode, rid int, vals []float64, label int) {
	n := start
	for n.dead && n.succ != nil {
		n = n.succ
	}
	for {
		switch n.state {
		case stLeaf, stDone:
			b.nid[rid] = n.id
			return
		case stResolved:
			if len(n.children) != 2 || n.tn.Split == nil {
				panic(fmt.Sprintf("core: resolved node id=%d depth=%d dead=%v children=%d split=%v",
					n.id, n.depth, n.dead, len(n.children), n.tn.Split))
			}
			if n.tn.Split.GoesLeft(vals) {
				n = n.children[0]
			} else {
				n = n.children[1]
			}
		case stPending:
			region, buffered := n.pending.route(vals[n.pending.attr])
			if buffered {
				if sh != nil {
					sh.nodeFor(b, n).buffer.add(rid, vals, label)
					sh.buffered++
				} else {
					n.buffer.add(rid, vals, label)
					b.stats.BufferedRecords++
				}
				b.nid[rid] = n.id
				return
			}
			n = n.children[region]
		case stCollect:
			if sh != nil {
				sh.nodeFor(b, n).buffer.add(rid, vals, label)
			} else {
				n.buffer.add(rid, vals, label)
			}
			b.nid[rid] = n.id
			return
		default: // stBuilding
			if sh != nil {
				sn := sh.nodeFor(b, n)
				b.countInto(&sn.histSet, n.disc, n.xAttr, vals, label)
			} else {
				b.updateHists(n, vals, label)
			}
			b.nid[rid] = n.id
			return
		}
	}
}

// updateHists counts one record into a building node's histograms.
func (b *builder) updateHists(n *bnode, vals []float64, label int) {
	b.countInto(&n.histSet, n.disc, n.xAttr, vals, label)
}

// countInto counts one record into a histogram set of the given geometry
// (a node's own set, or a scan worker's private shard of it).
func (b *builder) countInto(hs *histSet, disc []*quantile.Discretizer, xAttr int, vals []float64, label int) {
	if hs.mats != nil {
		xb := disc[xAttr].Interval(vals[xAttr])
		for _, y := range b.numeric {
			if y == xAttr {
				continue
			}
			hs.mats[y].Add(xb, disc[y].Interval(vals[y]), label)
		}
		for pi, m := range hs.pairMats {
			if m == nil {
				continue
			}
			pr := b.pairs[pi]
			m.Add(disc[pr[0]].Interval(vals[pr[0]]), disc[pr[1]].Interval(vals[pr[1]]), label)
		}
		for a := 0; a < b.na; a++ {
			if h := hs.hists[a]; h != nil {
				h.Add(int(vals[a]), label)
			}
		}
		return
	}
	for a := 0; a < b.na; a++ {
		h := hs.hists[a]
		if h == nil {
			continue
		}
		if b.schema.Attrs[a].Kind == dataset.Categorical {
			h.Add(int(vals[a]), label)
		} else {
			h.Add(disc[a].Interval(vals[a]), label)
		}
	}
}

// resolveAll resolves every pending split whose buffer the scan just
// completed, top-down so that buffered records cascade into nested pendings
// before those are resolved in turn. The expensive node-local half of each
// resolution — sorting the alive-gap buffer by the split attribute — is
// fanned across the worker pool first; top-level pendings live in disjoint
// subtrees, so their buffers sort independently, and the sortedBy marker
// makes resolvePending's own sort a no-op on exactly the same ordering.
// (Nested pendings receive records during resolution and sort serially.)
func (b *builder) resolveAll() {
	pend := b.pendings
	b.pendings = nil
	span := b.obs.StartSpan(obs.PhaseResolve)
	defer span.End()
	if b.cfg.Workers > 1 && len(pend) > 1 {
		sortSpan := b.obs.StartSpan(obs.PhaseSort)
		b.parallelDo(len(pend), func(i int) {
			p := pend[i]
			if !p.dead && p.state == stPending && p.pending != nil {
				p.buffer.sortByAttr(p.pending.attr)
			}
		})
		sortSpan.End()
	}
	for _, p := range pend {
		b.resolvePending(p)
	}
}

// resolvePending derives the exact split point of a pending node from its
// sorted buffer (Part I, lines 11-13 of Figure 4): boundary candidates and
// every distinct buffered value inside the alive gaps are evaluated, region
// children are merged to the chosen side, and buffered records are
// distributed down the now-final structure.
func (b *builder) resolvePending(p *bnode) {
	if p.dead || p.state != stPending {
		return
	}
	attr := p.pending.attr
	gaps := p.pending.gaps
	A := len(gaps)

	regTotals := make([][]int, A+1)
	total := make([]int, b.nc)
	for r, c := range p.children {
		regTotals[r] = c.classTotals(b.nc)
		for i, v := range regTotals[r] {
			total[i] += v
		}
	}
	for i := 0; i < p.buffer.Len(); i++ {
		total[p.buffer.Label(i)]++
	}
	n := 0
	for _, v := range total {
		n += v
	}
	parentG := gini.Index(total)

	sortSpan := b.obs.StartSpan(obs.PhaseSort)
	p.buffer.sortByAttr(attr)
	sortSpan.End()
	cum := make([]int, b.nc)
	cumN := 0
	bestG := 2.0
	bestTh := 0.0
	bestGap := -1
	found := false
	try := func(th float64, g int) {
		if cumN == 0 || cumN == n {
			return
		}
		if gg := gini.SplitBelow(cum, total); gg < bestG {
			bestG, bestTh, bestGap = gg, th, g
			found = true
		}
	}
	bi := 0
	for g := 0; g < A; g++ {
		for _, v := range regTotals[g] {
			cumN += v
		}
		for i, v := range regTotals[g] {
			cum[i] += v
		}
		lo, hi := gaps[g].Lo, gaps[g].Hi
		// Consume any stragglers at or below the gap's left boundary.
		for bi < p.buffer.Len() && p.buffer.Row(bi)[attr] <= lo {
			cum[p.buffer.Label(bi)]++
			cumN++
			bi++
		}
		if !math.IsInf(lo, -1) {
			try(lo, g)
		}
		for bi < p.buffer.Len() {
			v := p.buffer.Row(bi)[attr]
			if v > hi {
				break
			}
			cum[p.buffer.Label(bi)]++
			cumN++
			last := bi+1 >= p.buffer.Len() || p.buffer.Row(bi + 1)[attr] != v
			if last {
				try(v, g)
			}
			bi++
		}
		if !math.IsInf(hi, 1) {
			try(hi, g)
		}
	}

	// The decision-time best boundary is a standing candidate: when nothing
	// inside the alive gaps beats it, resolve there instead (observation (i)
	// of Section 2.1). Its children start fresh because the region
	// histograms cannot be divided at an interior boundary.
	if pd := p.pending; pd.fallbackCum != nil && (!found || pd.fallbackGini < bestG-1e-12) {
		if parentG-pd.fallbackGini >= b.cfg.MinGiniGain {
			b.resolveAtFallback(p, total)
			return
		}
	}
	if !found || parentG-bestG < b.cfg.MinGiniGain {
		// The alive gaps held no improving split point (typically the
		// attribute is effectively constant here and its optimistic interval
		// estimate was unfalsifiable). Ban the attribute and rebuild the
		// node's histograms from the next scan so another attribute can win.
		b.revertToBuilding(p, attr, total)
		return
	}

	if p.depth == 0 {
		b.stats.RootSplitGini = bestG
	}
	left := b.mergeRegions(p.children[:bestGap+1])
	right := b.mergeRegions(p.children[bestGap+1:])
	p.tn.Split = &tree.Split{Kind: tree.SplitNumeric, Attr: attr, Threshold: bestTh}
	p.tn.Left, p.tn.Right = left.tn, right.tn
	p.children = []*bnode{left, right}
	p.state = stResolved
	p.pending = nil

	for i := 0; i < p.buffer.Len(); i++ {
		row := p.buffer.Row(i)
		dst := right
		if row[attr] <= bestTh {
			dst = left
		}
		b.route(dst, p.buffer.rid(i), row, p.buffer.Label(i))
	}
	p.buffer.reset()

	left.tn.SetCounts(left.classTotals(b.nc))
	right.tn.SetCounts(right.classTotals(b.nc))

	// Resolve nested pendings created by a same-scan double split.
	if left.state == stPending {
		b.resolvePending(left)
	}
	if right.state == stPending {
		b.resolvePending(right)
	}
}

// resolveAtFallback resolves a pending split at the decision-time best
// boundary. The region children are retired and both sides start as fresh
// building nodes: every record re-routes through the now-final split during
// the next scan.
func (b *builder) resolveAtFallback(p *bnode, total []int) {
	pd := p.pending
	if p.depth == 0 {
		b.stats.RootSplitGini = pd.fallbackGini
	}
	leftCounts := append([]int(nil), pd.fallbackCum...)
	rightCounts := make([]int, b.nc)
	for i := range rightCounts {
		rightCounts[i] = total[i] - leftCounts[i]
	}
	ldisc := append([]*quantile.Discretizer(nil), p.children[0].disc...)
	rdisc := append([]*quantile.Discretizer(nil), p.children[len(p.children)-1].disc...)
	for _, c := range p.children {
		b.retire(c, p)
	}
	left := b.newChild(p.depth+1, ldisc, pd.fallbackX[0], leftCounts, true)
	right := b.newChild(p.depth+1, rdisc, pd.fallbackX[1], rightCounts, true)
	p.tn.Split = &tree.Split{Kind: tree.SplitNumeric, Attr: pd.attr, Threshold: pd.fallbackThresh}
	p.tn.Left, p.tn.Right = left.tn, right.tn
	p.children = []*bnode{left, right}
	p.state = stResolved
	p.pending = nil
	p.buffer.reset()
}

// revertToBuilding undoes a pending split that failed to resolve: the
// attribute is banned for this node and the node is re-decided. When the
// region children's histograms can be merged back into per-attribute
// marginals (plus the buffered records), the re-decision happens
// immediately with no extra scan; otherwise the node rejoins the frontier
// with fresh histograms refilled by the next scan.
func (b *builder) revertToBuilding(p *bnode, attr int, counts []int) {
	b.stats.Reverts++
	p.tn.SetCounts(counts)
	if p.banned == nil {
		p.banned = make(map[int]bool)
	}
	p.banned[attr] = true

	view := b.mergedMarginalView(p, counts)
	for _, c := range p.children {
		b.retire(c, p)
	}
	p.children = nil
	p.pending = nil
	p.state = stBuilding
	if view != nil {
		p.buffer.reset()
		b.decideNode(p, view, decidePrimary)
		return
	}
	p.buffer.reset()
	b.allocHists(p)
	p.notBefore = b.round + 1
	b.queueScanned(p)
}

// mergedMarginalView reconstructs a marginal-only decision view for a
// failed pending node from its region children's histograms plus its
// buffered records. Returns nil when a region's histograms are not directly
// mergeable (e.g. a nested pending region), in which case the caller falls
// back to a rescan.
func (b *builder) mergedMarginalView(p *bnode, totals []int) *histView {
	attr, disc := p.pending.attr, p.pending.disc
	for _, c := range p.children {
		if c.state != stBuilding {
			return nil
		}
	}
	v := &histView{
		marg:  make([]*histogram.Hist1D, b.na),
		disc:  disc,
		xAttr: p.xAttr,
	}
	for a := 0; a < b.na; a++ {
		if a == attr {
			continue // banned; no need to reconstruct
		}
		for _, c := range p.children {
			m := regionMarginal(c, a)
			if m == nil {
				return nil
			}
			if v.marg[a] == nil {
				v.marg[a] = m.Clone()
			} else if m.Bins() != v.marg[a].Bins() {
				return nil
			} else {
				v.marg[a].Merge(m)
			}
		}
	}
	// Fold the buffered gap records into the marginals.
	for i := 0; i < p.buffer.Len(); i++ {
		row := p.buffer.Row(i)
		label := p.buffer.Label(i)
		for a := 0; a < b.na; a++ {
			h := v.marg[a]
			if h == nil {
				continue
			}
			if b.schema.Attrs[a].Kind == dataset.Categorical {
				h.Add(int(row[a]), label)
			} else {
				bin := disc[a].Interval(row[a])
				if bin >= h.Bins() {
					bin = h.Bins() - 1
				}
				h.Add(bin, label)
			}
		}
	}
	v.totals = append([]int(nil), totals...)
	for _, c := range v.totals {
		v.n += c
	}
	return v
}

// regionMarginal extracts a region child's 1-D marginal for one attribute,
// whatever histogram form the region carries.
func regionMarginal(c *bnode, a int) *histogram.Hist1D {
	if c.hists != nil && c.hists[a] != nil {
		return c.hists[a]
	}
	if c.mats != nil {
		if a == c.xAttr {
			for _, m := range c.mats {
				if m != nil {
					return m.MarginalX()
				}
			}
			return nil
		}
		if m := c.mats[a]; m != nil {
			return m.MarginalY()
		}
	}
	return nil
}

// mergeRegions folds a run of region children into one building node, as in
// Figure 3 ("the histogram matrix of the subnode in the middle will be
// merged into the matrix of the left-most subnode").
func (b *builder) mergeRegions(regions []*bnode) *bnode {
	if len(regions) == 1 {
		return regions[0]
	}
	surv := regions[0]
	for _, r := range regions[1:] {
		for a, h := range r.hists {
			if h != nil {
				surv.hists[a].Merge(h)
			}
		}
		for a, m := range r.mats {
			if m != nil {
				surv.mats[a].Merge(m)
			}
		}
		r.dead = true
		r.succ = surv
		r.dropHists()
		delete(b.byTN, r.tn)
	}
	return surv
}

// finalizeAsLeaf turns a node (in any builder state) into a finished leaf,
// discarding pending machinery and re-aiming descendant node ids so stale
// nid entries still route here. counts, when non-nil, replaces the tree
// node's class distribution.
func (b *builder) finalizeAsLeaf(n *bnode, counts []int) {
	if counts != nil {
		n.tn.SetCounts(counts)
	} else if n.tn.ClassCounts == nil {
		n.tn.SetCounts(n.classTotals(b.nc))
	}
	n.tn.Split = nil
	n.tn.Left, n.tn.Right = nil, nil
	for _, c := range n.children {
		b.retire(c, n)
	}
	n.children = nil
	n.pending = nil
	n.buffer.reset()
	n.dropHists()
	n.state = stLeaf
}

// retire marks a subtree of builder nodes dead and re-aims their ids at the
// surviving ancestor.
func (b *builder) retire(n *bnode, to *bnode) {
	if n == nil || n.dead {
		return
	}
	n.dead = true
	n.succ = to
	n.dropHists()
	n.buffer.reset()
	delete(b.byTN, n.tn)
	for _, c := range n.children {
		b.retire(c, to)
	}
	n.children = nil
}

// finishCollects completes every collect node whose buffer a scan (and any
// subsequent distribution) has filled, building the rest of its subtree in
// memory with the exact algorithm. Each subtree is a pure function of its
// own buffer and writes only node-local state, so ready nodes fan across
// the worker pool.
func (b *builder) finishCollects() {
	span := b.obs.StartSpan(obs.PhaseCollect)
	defer span.End()
	var remaining, ready []*bnode
	for _, c := range b.collects {
		if c.dead || c.state != stCollect {
			c.collectListed = false
			continue
		}
		if c.collectRound >= b.round {
			remaining = append(remaining, c)
			continue
		}
		c.collectListed = false
		ready = append(ready, c)
	}
	b.parallelDo(len(ready), func(i int) {
		c := ready[i]
		sub := exact.BuildSubtree(&c.buffer, b.schema, exact.Config{
			MinSplitRecords: b.cfg.MinSplitRecords,
			MaxDepth:        b.cfg.MaxDepth - c.depth,
			MinGiniGain:     b.cfg.MinGiniGain,
			PurityStop:      b.cfg.PurityStop,
			AllowedAttrs:    b.allowed,
			Prune:           b.cfg.Prune,
		})
		// Graft in place so the parent's pointer to c.tn stays valid.
		*c.tn = *sub
		c.buffer.reset()
		c.state = stDone
	})
	b.collects = remaining
}

// decideScanned runs Part II (split selection) on every node whose
// histograms the scan just completed. With Workers > 1 the pure per-node
// evaluations (gini hill-climbing, categorical subset search, oblique
// intercept walks) run across the pool first; the decisions themselves are
// applied serially in the original node order, so every builder mutation
// happens exactly as in a serial build.
func (b *builder) decideScanned() {
	span := b.obs.StartSpan(obs.PhaseDecide)
	defer span.End()
	toDecide := b.scanned
	b.scanned = nil
	for _, n := range toDecide {
		n.queued = false
	}
	ready := toDecide[:0:0]
	for _, n := range toDecide {
		if n.dead || n.state != stBuilding {
			continue
		}
		if n.notBefore > b.round {
			// Reverted this round; its histograms await the next scan.
			b.queueScanned(n)
			continue
		}
		ready = append(ready, n)
	}
	if b.cfg.Workers > 1 && len(ready) > 1 {
		pres := make([]*decideEval, len(ready))
		b.parallelDo(len(ready), func(i int) {
			pres[i] = b.precomputeDecide(ready[i])
		})
		for i, n := range ready {
			b.decideNodeFrom(n, pres[i], decidePrimary)
		}
		return
	}
	for _, n := range ready {
		b.decideNode(n, b.viewOf(n), decidePrimary)
	}
}

// applyPrune runs PUBLIC(1) over the tree built so far. During
// construction, frontier nodes (building, pending, collecting) are
// expandable and may be finalized by the lower bound; afterwards a plain
// bottom-up MDL prune runs.
func (b *builder) applyPrune(during bool) {
	var expandable map[*tree.Node]bool
	if during {
		expandable = make(map[*tree.Node]bool)
		for _, n := range b.all {
			if n.dead {
				continue
			}
			switch n.state {
			case stBuilding, stPending, stCollect:
				expandable[n.tn] = true
			}
		}
	}
	t := &tree.Tree{Root: b.root.tn, Schema: b.schema}
	res := prune.PUBLIC1(t, expandable)
	for tn := range res.Finalized {
		if bn := b.byTN[tn]; bn != nil && !bn.dead {
			b.finalizeAsLeaf(bn, nil)
		}
	}
	for tn := range res.Collapsed {
		if bn := b.byTN[tn]; bn != nil && !bn.dead {
			b.finalizeAsLeaf(bn, nil)
		}
	}
}

// finalizeRemaining closes out any in-flight nodes when the round budget is
// exhausted.
func (b *builder) finalizeRemaining() {
	for _, n := range b.all {
		if n.dead {
			continue
		}
		switch n.state {
		case stBuilding, stPending, stCollect:
			b.finalizeAsLeaf(n, nil)
		}
	}
	b.scanned = nil
	b.pendings = nil
	b.collects = nil
}

// debugValidate enables per-round structural invariant checks (tests).
var debugValidate bool

// validate panics when a live node references a dead child or a resolved
// node lacks exactly two children.
func (b *builder) validate(when string) {
	var walk func(n *bnode, path string)
	walk = func(n *bnode, path string) {
		if n.dead {
			panic(fmt.Sprintf("core: %s (round %d): dead node id=%d state=%d reachable via %s",
				when, b.round, n.id, n.state, path))
		}
		if n.state == stResolved && (len(n.children) != 2 || n.tn.Split == nil) {
			panic(fmt.Sprintf("core: %s (round %d): resolved node id=%d children=%d split=%v via %s",
				when, b.round, n.id, len(n.children), n.tn.Split, path))
		}
		for i, c := range n.children {
			walk(c, fmt.Sprintf("%s->%d[%d]", path, n.id, i))
		}
	}
	walk(b.root, "root")
}

// snapshotMemory records peak histogram and buffer footprints — the
// quantities Figure 19 charts for CMP.
func (b *builder) snapshotMemory() {
	var hist, buf int64
	for _, n := range b.all {
		if n.dead {
			continue
		}
		hist += n.histMemoryBytes()
		buf += n.buffer.bytes()
	}
	if hist > b.stats.PeakHistogramBytes {
		b.stats.PeakHistogramBytes = hist
	}
	if buf > b.stats.PeakBufferBytes {
		b.stats.PeakBufferBytes = buf
	}
	if hist+buf > b.stats.PeakMemoryBytes {
		b.stats.PeakMemoryBytes = hist + buf
	}
}
