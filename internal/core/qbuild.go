package core

// The quantized scan kernel: instead of decoding float64 attribute vectors
// and interval-searching a discretizer for every record of every round, the
// build encodes the training set ONCE into small integer bin codes (one
// pass, reusing the engine's equal-depth / Greenwald-Khanna discretization
// pass) and every construction round then scans the compact code records,
// accumulating class histograms and CMP-B bivariate matrices by direct
// array indexing. Bin boundaries are exact split candidates in code space —
// code c maps to raw values in (cuts[c-1], cuts[c]] — so "code <= c" is
// identical to the raw test "value <= cuts[c]" and every boundary decision
// is exact: the raw kernel's alive intervals and pending resolution have
// nothing left to refine and are absent here. Split thresholds are carried
// as code boundaries during construction and translated back to raw
// feature units from the quantizer's breakpoint tables in one final pass,
// so emitted trees predict over raw records exactly like raw-built trees.
//
// The round loop, frontier, decision gates and split installation are the
// engine's (engine.go); this file supplies the code routing and counting,
// the exact boundary evaluation, the sticky X-axis prediction, the code
// windows children inherit and the code finisher. Linear-combination splits
// are not searched in code space: quantized CMPFull builds run as CMP-B.
//
// Determinism matches the raw path: contiguous record ranges per worker,
// private per-worker accumulators merged in worker-index order, serial
// decisions, integer arithmetic, first-strictly-better tie-breaking. A fixed
// seed yields a byte-identical tree at any worker count and cache setting.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"time"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/gini"
	"cmpdt/internal/histogram"
	"cmpdt/internal/obs"
	"cmpdt/internal/quantile"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// qnode is the quantized kernel's node. Nodes carry per-attribute code
// windows [lo, hi) in global code space; a record reaching the node is
// guaranteed to have every code inside its windows, so dense histogram bins
// are simply code - lo. Only the split attribute's window narrows from
// parent to child — every other attribute keeps full resolution, exactly as
// the raw kernel re-derives only the split attribute's discretizer.
type qnode struct {
	nodeBase[*qnode]
	lo, hi []int      // per-attr global code windows [lo, hi)
	buffer codeBuffer // collect rows: raw bin codes
}

func (n *qnode) bins(a int) int        { return n.hi[a] - n.lo[a] }
func (n *qnode) frame(v *view)         { v.lo = n.lo }
func (n *qnode) bufferLabels() []int32 { return n.buffer.labels }
func (n *qnode) bufferBytes() int64    { return n.buffer.bytes() }
func (n *qnode) absorb(shard *qnode)   { n.buffer.appendFrom(&shard.buffer) }
func (n *qnode) release() {
	n.dropHists()
	n.buffer.reset()
}

// qbuilder is the quantized scan kernel.
type qbuilder struct {
	engine[*qnode]
	q    *storage.Quantizer
	qsrc storage.CodeSource
	// cutAttrs are the numeric attributes that may split. Only they get cut
	// points: every other numeric attribute is quantized to one bin, so its
	// matrix axes collapse to width 1. No decision reads such an axis — its
	// own marginal is never scored, and a matrix's X marginal and class
	// totals sum over its Y axis — so trees are unchanged. The matrices
	// stay built: when the X axis is the only numeric attribute that may
	// split, its marginal comes from them.
	cutAttrs []int
}

// buildQuantized is the bin-coded build shared by BuildContext and
// BuildIndexed. quantize obtains the code store (setting b.q and b.qsrc)
// inside round 0's init span. cfg is already normalized and the schema
// validated by the caller; panics unwind into the caller's recover.
// Result.IO covers the code store only: callers add their raw source's.
func buildQuantized(ctx context.Context, schema *dataset.Schema, cfg Config, quantize func(b *qbuilder) (cleanup func(), err error)) (*Result, error) {
	if cfg.ObliqueAllPairs {
		// Config.normalize rejects the knob with Quantize; a pre-quantized
		// source and BuildIndexed quantize without that flag.
		return nil, errors.New("core: ObliqueAllPairs needs a raw full CMP build, got a quantized one")
	}
	b, err := newQBuilder(ctx, schema, cfg)
	if err != nil {
		return nil, err
	}
	var cleanup func()
	defer func() {
		if cleanup != nil {
			cleanup()
		}
	}()
	err = b.build(func() (err error) {
		if cleanup, err = quantize(b); err != nil {
			return err
		}
		b.stats.QuantBinsPerAttr = make([]int, b.na)
		for a := 0; a < b.na; a++ {
			b.stats.QuantBinsPerAttr[a] = b.q.Bins(a)
		}
		b.stats.QuantCodeBytes = b.q.RecordBytes()
		b.nid = make([]int32, b.qsrc.NumRecords())
		return nil
	}, b.newRoot)
	if err != nil {
		return nil, err
	}
	b.translate(b.root.tn)
	t := &tree.Tree{Root: b.root.tn, Schema: b.schema}
	b.stats.ObliqueSplits = t.CountLinearSplits()
	b.stats.DenseScanRounds = b.stats.Rounds
	return &Result{Tree: t, Stats: b.stats, IO: b.qsrc.Stats()}, nil
}

// newQBuilder is a quantized builder ready for its quantize step.
func newQBuilder(ctx context.Context, schema *dataset.Schema, cfg Config) (*qbuilder, error) {
	e, err := newEngine[*qnode](ctx, schema, cfg)
	if err != nil {
		return nil, err
	}
	b := &qbuilder{engine: e}
	b.k = b
	for _, a := range b.numeric {
		if b.attrAllowed(a) {
			b.cutAttrs = append(b.cutAttrs, a)
		}
	}
	b.stats.Quantized = true
	// Children of on-axis second splits inherit the axis only when no
	// allowed attribute is categorical: sticky axes breed same-scan second
	// splits, second splits cannot see categorical evidence (sliced views
	// have no categorical marginals), and on categorical-driven data that
	// trades real splits for numeric near-ties.
	b.inheritX = true
	for a := 0; a < b.na; a++ {
		if schema.Attrs[a].Kind == dataset.Categorical && b.attrAllowed(a) {
			b.inheritX = false
		}
	}
	return b, nil
}

// quantizeSource obtains the bin-coded training set: pre-quantized sources
// (CMPDQ1 stores) are used directly; raw sources are discretized and encoded
// in one extra pass each — to a temporary CMPDQ1 file when the raw records
// are disk-resident, in memory otherwise. The returned cleanup removes any
// temporary file.
func (b *qbuilder) quantizeSource(src storage.Source) (cleanup func(), err error) {
	if qs, ok := src.(storage.CodeSource); ok {
		b.qsrc = qs
		b.q = qs.Quantizer()
		return nil, nil
	}
	start := time.Now()
	// Only cutAttrs get cut points; quantTables gives the other numeric
	// attributes one bin. Validation still checks every attribute.
	disc, _, attrMax, err := b.discretize(src, b.cutAttrs, b.cfg.QuantizeBins)
	if err != nil {
		return nil, err
	}
	q, err := storage.NewQuantizer(b.schema, b.quantTables(disc, attrMax))
	if err != nil {
		return nil, err
	}
	b.q = q
	cleanup, err = b.encode(src, q)
	b.stats.QuantizeNs = time.Since(start).Nanoseconds()
	return cleanup, err
}

// quantTables assembles the code tables: for each of cutAttrs, the
// discretizer cut points plus the observed maximum as the top bin's
// representative (nudged above the last cut if the sample maximum
// coincided with it). Every other numeric attribute gets a cut-less table
// with representative 0: one bin, code 0 for every value.
func (b *qbuilder) quantTables(disc []*quantile.Discretizer, attrMax []float64) []storage.QuantAttr {
	attrs := make([]storage.QuantAttr, b.na)
	for _, a := range b.cutAttrs {
		cuts := disc[a].Cuts()
		max := attrMax[a]
		if math.IsInf(max, -1) {
			max = 0 // no valid records sampled; any finite representative works
		}
		if len(cuts) > 0 && max <= cuts[len(cuts)-1] {
			max = math.Nextafter(cuts[len(cuts)-1], posInf)
		}
		attrs[a] = storage.QuantAttr{Cuts: cuts, Max: max}
	}
	return attrs
}

// encode performs the quantization pass proper: one full scan of the raw
// source, validating and encoding every record into the bin-coded store.
// Disk-resident sources encode to a temporary CMPDQ1 file (which then serves
// the per-round scans, with the configured page cache attached); in-memory
// sources encode to a QuantMem.
func (b *qbuilder) encode(src storage.Source, q *storage.Quantizer) (cleanup func(), err error) {
	var appendCodes func(codes []uint16, label int) error
	var qw *storage.QuantWriter
	var qm *storage.QuantMem
	if _, onDisk := src.(*storage.File); onDisk {
		tmp, err := os.CreateTemp("", "cmpdt-quant-*.qrec")
		if err != nil {
			return nil, err
		}
		path := tmp.Name()
		tmp.Close()
		cleanup = func() { os.Remove(path) }
		qw, err = storage.CreateQuantFile(path, q)
		if err != nil {
			return cleanup, err
		}
		appendCodes = qw.AppendCodes
	} else {
		qm = storage.NewQuantMem(q)
		appendCodes = qm.AppendCodes
	}
	codes := make([]uint16, b.na)
	var skipped int64
	checked := 0
	err = src.Scan(func(rid int, vals []float64, label int) error {
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
		q.Encode(vals, codes)
		return appendCodes(codes, label)
	})
	if err != nil {
		if qw != nil {
			qw.Abort()
		}
		return cleanup, err
	}
	b.obs.IncScans() // the encode pass completed a full storage scan
	b.stats.Scans++
	b.stats.SkippedRecords = skipped
	if qw != nil {
		qf, err := qw.Close()
		if err != nil {
			return cleanup, err
		}
		if b.cfg.CacheBytes > 0 {
			qf.SetCacheBytes(b.cfg.CacheBytes)
		}
		b.qsrc = qf
		return cleanup, nil
	}
	b.qsrc = qm
	return cleanup, nil
}

// newRoot registers the root over every code of every attribute.
func (b *qbuilder) newRoot(x int) *qnode {
	n := &qnode{lo: make([]int, b.na), hi: make([]int, b.na)}
	for a := 0; a < b.na; a++ {
		n.hi[a] = b.q.Bins(a)
	}
	n.buffer.init(b.na)
	return b.register(n, 0, x)
}

// goesLeftCodes is tree.Split.GoesLeft over a code row: codes stand in for
// raw values directly, because the build-time numeric threshold is a global
// code boundary (code <= c exactly when value <= cuts[c]) and categorical
// codes equal the category index.
func goesLeftCodes(s *tree.Split, codes []uint16) bool {
	if s.Kind == tree.SplitCategorical {
		return s.Subset&(1<<uint(codes[s.Attr])) != 0
	}
	return float64(codes[s.Attr]) <= s.Threshold
}

// scan performs one dense pass over the code records. No per-record
// validation (records were validated at encode) and no interval search: the
// bin index is the code minus the node's window base.
func (b *qbuilder) scan() error {
	if b.cfg.Workers > 1 {
		if rs, ok := b.qsrc.(storage.CodeRangeSource); ok {
			return b.scanParallel(rs)
		}
	}
	span := b.obs.StartSpan(obs.PhaseScan)
	checked := 0
	err := b.qsrc.ScanCodes(func(rid int, codes []uint16, label int) error {
		checked++
		if checked&ctxCheckMask == 0 {
			if err := b.ctx.Err(); err != nil {
				return err
			}
		}
		b.route(nil, rid, codes, label)
		return nil
	})
	if err != nil {
		return err
	}
	b.obs.AddWorkerScan(0, int64(checked), span.End())
	b.finishScan()
	return nil
}

// qshard holds one scan worker's private accumulators by node id, merged
// in worker-index order after the pass (same contract as the raw
// scanShard).
type qshard []*qnode

func (sh qshard) nodeFor(b *qbuilder, n *qnode) *qnode {
	sn := sh[n.id]
	if sn == nil {
		sn = &qnode{}
		sn.buffer.init(b.na)
		if n.state == stBuilding {
			sn.histSet = b.makeHists(n)
		}
		sh[n.id] = sn
	}
	return sn
}

func (b *qbuilder) scanParallel(rs storage.CodeRangeSource) error {
	shards := make([]qshard, b.cfg.Workers)
	for w := range shards {
		shards[w] = make(qshard, len(b.nodes))
	}
	span := b.obs.StartSpan(obs.PhaseScan)
	var observe func(storage.WorkerScan)
	if b.obs != nil {
		observe = func(ws storage.WorkerScan) { b.obs.AddWorkerScan(ws.Worker, ws.Records, ws.Ns) }
	}
	err := storage.ParallelScanCodesObserved(b.ctx, rs, b.cfg.Workers, observe,
		func(worker, rid int, codes []uint16, label int) error {
			b.route(shards[worker], rid, codes, label)
			return nil
		})
	if err != nil {
		return err
	}
	span.End()
	for _, sh := range shards {
		b.mergeShard(sh)
	}
	b.finishScan()
	return nil
}

// route walks a code record down from its last known node to its current
// destination: a dense histogram update, a collect buffer, or a settled
// leaf. When sh is non-nil the terminal write lands in the worker's private
// shard; the walk itself only reads state frozen during the scan.
func (b *qbuilder) route(sh qshard, rid int, codes []uint16, label int) {
	n := b.nodes[b.nid[rid]]
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
				panic(fmt.Sprintf("core: resolved qnode id=%d depth=%d dead=%v children=%d split=%v",
					n.id, n.depth, n.dead, len(n.children), n.tn.Split))
			}
			if goesLeftCodes(n.tn.Split, codes) {
				n = n.children[0]
			} else {
				n = n.children[1]
			}
		case stCollect:
			buf := &n.buffer
			if sh != nil {
				buf = &sh.nodeFor(b, n).buffer
			}
			buf.add(codes, label)
			b.nid[rid] = n.id
			return
		default: // stBuilding
			if sh != nil {
				sn := sh.nodeFor(b, n)
				b.countCodes(n, &sn.histSet, codes, label)
			} else {
				b.countCodes(n, &n.histSet, codes, label)
			}
			b.nid[rid] = n.id
			return
		}
	}
}

// countCodes counts one code record into dense accumulators of node n's
// geometry (its own, or a worker shard's): bin = code - window base, no
// comparisons, no search.
func (b *qbuilder) countCodes(n *qnode, hs *histSet, codes []uint16, label int) {
	hists, mats := hs.hists, hs.mats
	if mats != nil {
		xb := int(codes[n.xAttr]) - n.lo[n.xAttr]
		for _, y := range b.numeric {
			if y == n.xAttr {
				continue
			}
			mats[y].Add(xb, int(codes[y])-n.lo[y], label)
		}
		for a, h := range hists {
			if h != nil { // categorical: code is the category index
				h.Add(int(codes[a]), label)
			}
		}
		return
	}
	for a, h := range hists {
		if h == nil {
			continue
		}
		if b.schema.Attrs[a].Kind == dataset.Categorical {
			h.Add(int(codes[a]), label)
		} else {
			h.Add(int(codes[a])-n.lo[a], label)
		}
	}
}

// qEvalNumeric is the boundary search for one numeric attribute. The split
// itself is exact — every code boundary is a real candidate and giniMin is
// the best boundary's true gini — but attribute SELECTION uses score,
// which adds the same optimistic interval-estimate lower bound the raw
// kernel computes at Config.Intervals resolution. Without it, exact
// numeric ginis would compete unhandicapped against the categorical subset
// search (whose optimum over 2^k subsets is biased low on noise attributes),
// and quantized builds would pick systematically different — and, under
// pruning, worse — splits than raw builds at low-gain nodes.
//
// It searches every code boundary exactly (bestBoundary is local: the
// global code is lo[attr] + bestBoundary), then scores groups of `group`
// consecutive code bins with the paper's interval estimate — the
// granularity a raw build's equal-depth intervals would have — clamped to
// edge − 2·nk/n exactly as evalNumeric does.
func qEvalNumeric(attr int, h *histogram.Hist1D, totals []int, group int) numEval {
	e := numEval{attr: attr, giniMin: math.Inf(1), bestBoundary: -1}
	e.cums = h.Cumulative()
	boundaryG := make([]float64, len(e.cums))
	for j, cum := range e.cums {
		g := gini.SplitBelow(cum, totals)
		boundaryG[j] = g
		if g < e.giniMin {
			e.giniMin = g
			e.bestBoundary = j
		}
	}
	e.score = e.giniMin
	e.ok = e.bestBoundary >= 0 && !math.IsInf(e.giniMin, 1)
	if !e.ok || group < 1 {
		return e
	}
	n := 0
	for _, c := range totals {
		n += c
	}
	bins := h.Bins()
	zeros := make([]int, len(totals))
	for s := 0; s < bins; s += group {
		t := s + group
		if t > bins {
			t = bins
		}
		t-- // inclusive end bin
		x := zeros
		if s > 0 {
			x = e.cums[s-1]
		}
		y := totals
		if t < bins-1 {
			y = e.cums[t]
		}
		nk := 0
		for i := range totals {
			nk += y[i] - x[i]
		}
		if nk == 0 {
			continue
		}
		edge := math.Inf(1)
		if s > 0 {
			edge = boundaryG[s-1]
		}
		if t < bins-1 && boundaryG[t] < edge {
			edge = boundaryG[t]
		}
		est := gini.EstimateInterval(x, y, totals).Est
		if n > 0 && !math.IsInf(edge, 1) {
			if floor := edge - 2*float64(nk)/float64(n); est < floor {
				est = floor
			}
		}
		if est < e.score {
			e.score = est
		}
	}
	return e
}

// estGroup is the number of consecutive code bins one raw-build interval
// spans for attribute a: scoring groups of this size reproduces the raw
// builder's estimate granularity whatever QuantizeBins is.
func (b *qbuilder) estGroup(a int) int {
	k := b.q.Bins(a) / b.cfg.Intervals
	if k < 1 {
		k = 1
	}
	return k
}

// evalOf returns qEvalNumeric over v's own marginal of a and v's totals,
// computed on the first call per view. The result is shared: callers must
// not modify it.
func (b *qbuilder) evalOf(v *view, a int) *numEval {
	if v.evals == nil {
		v.evals = make([]*numEval, b.na)
	}
	if e := v.evals[a]; e != nil {
		return e
	}
	e := qEvalNumeric(a, v.marg[a], v.totals, b.estGroup(a))
	v.evals[a] = &e
	return &e
}

func (b *qbuilder) evalNumericAttrs(_ *qnode, v *view) (best, evalX *numEval) {
	for _, a := range b.cutAttrs {
		if v.marg[a] == nil || v.marg[a].Bins() < 2 {
			continue
		}
		e := b.evalOf(v, a)
		if !e.ok {
			continue
		}
		if a == v.xAttr {
			evalX = e
		}
		if best == nil || e.score < best.score {
			best = e
		}
	}
	return best, evalX
}

// xStickiness is the axis-stickiness tolerance: when predicting a child's
// X-axis, the current axis is kept if its score is within this fraction of
// the class impurity of the best attribute's score — the same 2% nudge the
// decision gates apply when choosing the actual split. A node can split
// twice in one scan only when its split lands on its own X-axis, so between
// near-tied attributes the prediction keeps the axis the node's matrices
// are already built around rather than trading a double split for a
// statistically indistinguishable alternative.
const xStickiness = 0.02

// predictX implements predictSplit (Figure 7) over code marginals.
func (b *qbuilder) predictX(v *view, exclude int) int {
	if !b.useMats {
		return -1
	}
	bestA := -1
	bestG := math.Inf(1)
	axisG := math.Inf(1)
	for _, a := range b.cutAttrs {
		if a == exclude {
			continue
		}
		h := v.marg[a]
		if h == nil || occupiedBins(h) < 2 {
			continue
		}
		if e := b.evalOf(v, a); e.ok {
			if a == v.xAttr {
				axisG = e.score
			}
			if e.score < bestG {
				bestG, bestA = e.score, a
			}
		}
	}
	if bestA >= 0 && bestA != v.xAttr && axisG-bestG <= xStickiness*gini.Index(v.totals) {
		bestA = v.xAttr
	}
	if bestA < 0 {
		bestA = b.xDefault()
	}
	return bestA
}

// predictChildX predicts the X-axis for a child of a Y-attribute split: the
// (X, attr) matrix sliced along Y gives exact child marginals for X and the
// split attribute; every other attribute is scored from the parent's
// pre-split marginals — the paper's "crude estimate", which the parent's
// decision has already scored.
func (b *qbuilder) predictChildX(v *view, attr, binLo, binHi int) int {
	if !b.useMats {
		return -1
	}
	m := v.mats[attr]
	if m == nil || binLo >= binHi {
		return b.predictX(v, attr)
	}
	s := m.SliceY(binLo, binHi)
	childTotals := s.ClassTotals()
	bestA := -1
	bestG := math.Inf(1)
	sliced := func(a int, h *histogram.Hist1D) numEval {
		if occupiedBins(h) < 2 {
			return numEval{}
		}
		return qEvalNumeric(a, h, childTotals, b.estGroup(a))
	}
	for _, a := range b.cutAttrs {
		var e numEval
		switch a {
		case v.xAttr:
			e = sliced(a, s.MarginalX())
		case attr:
			e = sliced(a, s.MarginalY())
		default:
			if h := v.marg[a]; h != nil && occupiedBins(h) >= 2 {
				e = *b.evalOf(v, a)
			}
		}
		if e.ok && e.score < bestG {
			bestG, bestA = e.score, a
		}
	}
	if bestA < 0 {
		bestA = b.xDefault()
	}
	return bestA
}

// child registers a child of n whose windows equal v's except on attr
// (when attr >= 0), narrowed to v's local bins [binLo, binHi).
func (b *qbuilder) child(n *qnode, v *view, attr, binLo, binHi, x int, _ []int) *qnode {
	lo := append([]int(nil), v.lo...)
	hi := make([]int, b.na)
	for a := 0; a < b.na; a++ {
		hi[a] = lo[a] + b.windowWidth(v, a)
	}
	if attr >= 0 {
		hi[attr] = v.lo[attr] + binHi
		lo[attr] = v.lo[attr] + binLo
	}
	c := &qnode{lo: lo, hi: hi}
	c.buffer.init(b.na)
	return b.register(c, n.depth+1, x)
}

// windowWidth reads attribute a's window width out of a view's marginals
// and matrices (views do not carry hi; only numeric windows matter).
func (b *qbuilder) windowWidth(v *view, a int) int {
	if b.schema.Attrs[a].Kind == dataset.Categorical {
		return b.schema.Attrs[a].Cardinality()
	}
	if v.marg[a] != nil {
		return v.marg[a].Bins()
	}
	if v.mats != nil && v.mats[a] != nil {
		return v.mats[a].YBins()
	}
	return 1
}

// pend never installs a pending split: every code boundary is exact.
func (b *qbuilder) pend(*qnode, *view, *numEval, decideKind) int { return 0 }

// bestObliqueSplit is never called: code space has no line search.
func (b *qbuilder) bestObliqueSplit(*view) (obliqueLine, bool) { return obliqueLine{}, false }

// finish grows a collect node's subtree over its buffered codes
// (finishCodes). The finisher's midpoint thresholds land between integer
// codes, which translate resolves like any boundary: code <= t is
// code <= floor(t) for integer codes.
func (b *qbuilder) finish(n *qnode, cfg exact.Config) *tree.Node {
	return finishCodes(&n.buffer, b.schema, cfg)
}

// translate rewrites every numeric threshold from code space to raw feature
// units: build-time thresholds are global code boundaries c (or, from the
// code finisher, midpoints between two occupied codes — floor recovers a
// boundary, since integer codes satisfy code <= t iff code <= floor(t)),
// and the raw threshold is the breakpoint cuts[c] ("value <= cuts[c]"
// selects exactly the records with "code <= c"). Categorical subsets need
// no translation: codes are the category indices.
func (b *qbuilder) translate(tn *tree.Node) {
	if tn == nil || tn.Split == nil {
		return
	}
	if s := tn.Split; s.Kind == tree.SplitNumeric {
		c := int(math.Floor(s.Threshold))
		if c < 0 {
			c = 0
		}
		if max := b.q.Bins(s.Attr) - 2; c > max {
			c = max
		}
		s.Threshold = b.q.Threshold(s.Attr, c)
	}
	b.translate(tn.Left)
	b.translate(tn.Right)
}
