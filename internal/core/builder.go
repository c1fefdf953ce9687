package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/gini"
	"cmpdt/internal/histogram"
	"cmpdt/internal/obs"
	"cmpdt/internal/quantile"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

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
	e, err := newEngine[*bnode](ctx, src.Schema(), cfg)
	if err != nil {
		return nil, err
	}
	b := &builder{engine: e, src: src}
	b.k = b
	b.oblique = cfg.Algorithm == CMPFull
	if b.useMats && b.oblique && cfg.ObliqueAllPairs {
		for i := 0; i < len(b.numeric); i++ {
			for j := i + 1; j < len(b.numeric); j++ {
				b.pairs = append(b.pairs, [2]int{b.numeric[i], b.numeric[j]})
			}
		}
	}
	err = b.build(func() (err error) {
		b.nid = make([]int32, src.NumRecords())
		b.rootDisc, b.attrMin, b.attrMax, err = b.discretize(src, b.numeric, cfg.Intervals)
		return err
	}, func(x int) *bnode { return b.newBnode(0, b.rootDisc, x) })
	if err != nil {
		return nil, err
	}
	t := &tree.Tree{Root: b.root.tn, Schema: b.schema}
	b.stats.ObliqueSplits = t.CountLinearSplits()
	b.stats.IntervalScanRounds = b.stats.Rounds
	return &Result{Tree: t, Stats: b.stats, IO: b.src.Stats()}, nil
}

// builder is the raw scan kernel: it routes float records through
// per-node discretizers, buffers the records of alive intervals and
// resolves pending splits from them (the paper's CMP-S resolution).
type builder struct {
	engine[*bnode]
	src storage.Source

	attrMin, attrMax []float64 // observed numeric domains (discretization pass)
	rootDisc         []*quantile.Discretizer
}

// newBnode registers a building node with its discretizers.
func (b *builder) newBnode(depth int, disc []*quantile.Discretizer, xAttr int) *bnode {
	n := &bnode{disc: disc}
	n.buffer.init(b.na)
	return b.register(n, depth, xAttr)
}

// scan is the raw kernel's round: one pass over the training set, then the
// resolution of every pending split the pass completed.
func (b *builder) scan() error {
	if err := b.pass(); err != nil {
		return err
	}
	b.resolveAll()
	return nil
}

// pass performs one pass over the training set, routing every record to its
// place: histogram update, alive-interval buffer, collect buffer, or settled
// leaf. With Workers > 1 and a range-scannable source the pass is sharded
// across the worker pool (see scanParallel); the serial pass below is the
// reference behavior the parallel one reproduces bit-identically.
func (b *builder) pass() error {
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
	b.finishScan()
	// Validation is pure per-record, so every pass skips the same records:
	// the count is recorded rather than accumulated.
	b.stats.SkippedRecords = skipped
	return nil
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
		doParallel(b.cfg.Workers, len(pend), func(i int) {
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
		regTotals[r] = b.classTotals(c)
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
	b.resolve(p, &tree.Split{Kind: tree.SplitNumeric, Attr: attr, Threshold: bestTh}, left, right)
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

	left.tn.SetCounts(b.classTotals(left))
	right.tn.SetCounts(b.classTotals(right))

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
	b.resolve(p, &tree.Split{Kind: tree.SplitNumeric, Attr: pd.attr, Threshold: pd.fallbackThresh}, left, right)
	p.release()
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
	p.buffer.reset()
	if view != nil {
		b.decide(p, view, decidePrimary)
		return
	}
	p.histSet = b.makeHists(p)
	p.notBefore = b.round + 1
	b.queueScanned(p)
}

// mergedMarginalView reconstructs a marginal-only decision view for a
// failed pending node from its region children's histograms plus its
// buffered records. Returns nil when a region's histograms are not directly
// mergeable (e.g. a nested pending region), in which case the caller falls
// back to a rescan.
func (b *builder) mergedMarginalView(p *bnode, totals []int) *view {
	attr, disc := p.pending.attr, p.pending.disc
	for _, c := range p.children {
		if c.state != stBuilding {
			return nil
		}
	}
	v := &view{
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

// finish grows a collect node's subtree with the exact algorithm over its
// buffered records.
func (b *builder) finish(n *bnode, cfg exact.Config) *tree.Node {
	return exact.BuildSubtree(&n.buffer, b.schema, cfg)
}
