package core

// The quantized build path: instead of decoding float64 attribute vectors and
// interval-searching a discretizer for every record of every round, the build
// encodes the training set ONCE into small integer bin codes (one pass,
// reusing the same equal-depth / Greenwald-Khanna quantiling as the raw path)
// and every construction round then scans the compact code records,
// accumulating class histograms and CMP-B bivariate matrices by direct array
// indexing. Bin boundaries are exact split candidates in code space — code c
// maps to raw values in (cuts[c-1], cuts[c]] — so "code <= c" is identical to
// the raw test "value <= cuts[c]" and every boundary decision is exact: the
// alive-interval / pending-resolution machinery of the raw builder has
// nothing left to refine and is absent here. Split thresholds are carried as
// code boundaries during construction and translated back to raw feature
// units from the quantizer's breakpoint tables in one final pass, so emitted
// trees predict over raw records exactly like raw-built trees.
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
	"math/rand"
	"os"
	"time"

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

// qnode is the quantized builder's per-node state. Nodes carry per-attribute
// code windows [lo, hi) in global code space; a record reaching the node is
// guaranteed to have every code inside its windows, so dense histogram bins
// are simply code - lo. Only the split attribute's window narrows from
// parent to child — every other attribute keeps full resolution, exactly as
// the raw builder re-derives only the split attribute's discretizer.
type qnode struct {
	id    int32
	tn    *tree.Node
	depth int
	state state
	dead  bool
	succ  *qnode

	lo, hi []int // per-attr global code windows [lo, hi)
	xAttr  int   // CMP-B: predicted split attribute (matrix X-axis), -1 without matrices

	hists []*histogram.Hist1D // per-attr; with mats: categorical only
	mats  []*histogram.Matrix // CMP-B: (xAttr, y) per numeric y != xAttr

	buffer       buffer // collect rows: codes widened to float64
	collectRound int

	children []*qnode
	queued   bool
}

func (n *qnode) width(a int) int { return n.hi[a] - n.lo[a] }

func (n *qnode) histMemoryBytes() int64 {
	var total int64
	for _, h := range n.hists {
		if h != nil {
			total += h.MemoryBytes()
		}
	}
	for _, m := range n.mats {
		if m != nil {
			total += m.MemoryBytes()
		}
	}
	return total
}

// classTotals recovers a node's class distribution from whatever state it
// holds, for finalization paths that lack exact counts.
func (n *qnode) classTotals(numClasses int) []int {
	switch n.state {
	case stBuilding:
		for _, m := range n.mats {
			if m != nil {
				return m.ClassTotals()
			}
		}
		for _, h := range n.hists {
			if h != nil {
				return h.ClassTotals()
			}
		}
	case stCollect:
		t := make([]int, numClasses)
		for i := 0; i < n.buffer.Len(); i++ {
			t[n.buffer.Label(i)]++
		}
		return t
	case stResolved:
		t := make([]int, numClasses)
		for _, c := range n.children {
			for i, v := range c.classTotals(numClasses) {
				t[i] += v
			}
		}
		return t
	}
	if n.tn != nil && n.tn.ClassCounts != nil {
		return append([]int(nil), n.tn.ClassCounts...)
	}
	return make([]int, numClasses)
}

type qbuilder struct {
	ctx    context.Context
	cfg    Config
	q      *storage.Quantizer
	qsrc   storage.CodeSource
	schema *dataset.Schema
	na, nc int

	numeric []int
	allowed []bool
	useMats bool
	// inheritX: children of on-axis second splits may inherit the axis
	// (predictChildXOnAxis). Enabled only when no allowed attribute is
	// categorical — see that function for why.
	inheritX bool

	nid      []int32
	nodes    []*qnode
	all      []*qnode
	scanned  []*qnode
	collects []*qnode
	byTN     map[*tree.Node]*qnode

	root  *qnode
	round int
	stats Stats
	rng   *rand.Rand
	obs   *obs.Collector
	row   []float64 // serial-scan scratch: one code row widened to float64
}

// buildQuantized is BuildContext's bin-coded branch. cfg is already
// normalized and src validated/cached by the caller; panics unwind into the
// caller's recover.
func buildQuantized(ctx context.Context, src storage.Source, cfg Config) (*Result, error) {
	schema := src.Schema()
	b := &qbuilder{
		ctx:    ctx,
		cfg:    cfg,
		schema: schema,
		na:     schema.NumAttrs(),
		nc:     schema.NumClasses(),
		byTN:   make(map[*tree.Node]*qnode),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		obs:    cfg.Obs,
	}
	if cfg.SplitAttrs != nil {
		b.allowed = make([]bool, b.na)
		for _, a := range cfg.SplitAttrs {
			if a < 0 || a >= b.na {
				return nil, fmt.Errorf("core: SplitAttrs index %d outside [0,%d)", a, b.na)
			}
			if b.allowed[a] {
				return nil, fmt.Errorf("core: SplitAttrs lists attribute %d twice", a)
			}
			b.allowed[a] = true
		}
		if len(cfg.SplitAttrs) == 0 {
			return nil, errors.New("core: SplitAttrs allows no attribute")
		}
	}
	for a := 0; a < b.na; a++ {
		if schema.Attrs[a].Kind == dataset.Numeric {
			b.numeric = append(b.numeric, a)
		}
	}
	b.stats.RootSplitAttr = -1
	b.stats.Quantized = true
	// Linear-combination splits are not searched in code space; CMPFull
	// quantized builds behave as CMP-B (see Config.Quantize).
	b.useMats = cfg.Algorithm != CMPS && len(b.numeric) >= 2
	b.inheritX = true
	for a := 0; a < b.na; a++ {
		if schema.Attrs[a].Kind == dataset.Categorical && b.attrAllowed(a) {
			b.inheritX = false
		}
	}
	b.row = make([]float64, b.na)

	b.obs.StartRound(0) // round 0: quantization (discretize + encode)
	initSpan := b.obs.StartSpan(obs.PhaseInit)
	cleanup, err := b.quantizeSource(src)
	if cleanup != nil {
		defer cleanup()
	}
	if err != nil {
		return nil, err
	}
	initSpan.End()
	b.stats.QuantBinsPerAttr = make([]int, b.na)
	for a := 0; a < b.na; a++ {
		b.stats.QuantBinsPerAttr[a] = b.q.Bins(a)
	}
	b.stats.QuantCodeBytes = b.q.RecordBytes()
	b.nid = make([]int32, b.qsrc.NumRecords())
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
		b.snapshotMemory()
		b.finishCollects()
		b.decideScanned()
		if b.cfg.Prune {
			pruneSpan := b.obs.StartSpan(obs.PhasePrune)
			b.applyPrune(true)
			pruneSpan.End()
		}
		b.snapshotMemory()
	}
	b.finalizeRemaining()
	if b.cfg.Prune {
		pruneSpan := b.obs.StartSpan(obs.PhasePrune)
		b.applyPrune(false)
		pruneSpan.End()
	}
	b.translate(b.root.tn)
	t := &tree.Tree{Root: b.root.tn, Schema: b.schema}
	b.stats.ObliqueSplits = t.CountLinearSplits()
	b.stats.DenseScanRounds = b.stats.Rounds

	io := b.qsrc.Stats()
	if _, same := src.(storage.CodeSource); !same {
		io.Add(src.Stats())
	}
	return &Result{Tree: t, Stats: b.stats, IO: io}, nil
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
	attrs, err := b.discretize(src)
	if err != nil {
		return nil, err
	}
	q, err := storage.NewQuantizer(b.schema, attrs)
	if err != nil {
		return nil, err
	}
	b.q = q
	cleanup, err = b.encode(src, q)
	b.stats.QuantizeNs = time.Since(start).Nanoseconds()
	return cleanup, err
}

// discretize runs the raw builder's discretization pass with QuantizeBins
// resolution and returns the per-attribute code tables: equal-depth cut
// points over a record-prefix sample (or GK sketches over a full pass when
// DiscretizeSample is negative) plus a representative for the top bin.
func (b *qbuilder) discretize(src storage.Source) ([]storage.QuantAttr, error) {
	n := src.NumRecords()
	attrMax := make([]float64, b.na)
	for a := range attrMax {
		attrMax[a] = negInf
	}
	disc := make([]*quantile.Discretizer, b.na)
	if b.cfg.DiscretizeSample < 0 {
		eps := 1 / (8 * float64(b.cfg.QuantizeBins))
		if eps > 0.01 {
			eps = 0.01
		}
		sketches := make([]*quantile.GK, b.na)
		for _, a := range b.numeric {
			gk, err := quantile.NewGK(eps)
			if err != nil {
				return nil, err
			}
			sketches[a] = gk
		}
		checked := 0
		err := src.Scan(func(rid int, vals []float64, label int) error {
			checked++
			if checked&ctxCheckMask == 0 {
				if err := b.ctx.Err(); err != nil {
					return err
				}
			}
			if d := recordDefect(b.schema, vals, label); d != "" {
				if b.cfg.Validation == ValidateStrict {
					return errInvalidRecord(rid, d)
				}
				return nil
			}
			for _, a := range b.numeric {
				if v := vals[a]; v > attrMax[a] {
					attrMax[a] = v
				}
				sketches[a].Add(vals[a])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		b.obs.IncScans() // the sketch pass completed a full storage scan
		b.stats.Scans++
		for _, a := range b.numeric {
			d, err := sketches[a].Discretizer(b.cfg.QuantizeBins)
			if err != nil {
				return nil, fmt.Errorf("core: discretizing %s: %w", b.schema.Attrs[a].Name, err)
			}
			disc[a] = d
		}
		return b.quantTables(disc, attrMax), nil
	}
	sampleCap := b.cfg.DiscretizeSample
	if sampleCap == 0 || sampleCap > n {
		sampleCap = n
	}
	samples := make([][]float64, b.na)
	for _, a := range b.numeric {
		samples[a] = make([]float64, 0, sampleCap)
	}
	seen := 0
	checked := 0
	err := src.Scan(func(rid int, vals []float64, label int) error {
		checked++
		if checked&ctxCheckMask == 0 {
			if err := b.ctx.Err(); err != nil {
				return err
			}
		}
		if d := recordDefect(b.schema, vals, label); d != "" {
			if b.cfg.Validation == ValidateStrict {
				return errInvalidRecord(rid, d)
			}
			return nil // skipped: only valid records feed the sample
		}
		for _, a := range b.numeric {
			if v := vals[a]; v > attrMax[a] {
				attrMax[a] = v
			}
			samples[a] = append(samples[a], vals[a])
		}
		seen++
		if seen >= sampleCap {
			return errSampleDone
		}
		return nil
	})
	if err != nil && err != errSampleDone {
		return nil, err
	}
	if err == nil {
		// The sample never filled, so the pass ran to completion and the
		// storage layer counted a full scan; mirror it in the report.
		b.obs.IncScans()
	}
	if sampleCap >= n {
		b.stats.Scans++
	}
	for _, a := range b.numeric {
		d, err := quantile.EqualDepth(samples[a], b.cfg.QuantizeBins)
		if err != nil {
			return nil, fmt.Errorf("core: discretizing %s: %w", b.schema.Attrs[a].Name, err)
		}
		disc[a] = d
	}
	return b.quantTables(disc, attrMax), nil
}

// quantTables assembles the code tables: the discretizer cut points plus the
// observed maximum as the top bin's representative (nudged above the last
// cut if the sample maximum coincided with it).
func (b *qbuilder) quantTables(disc []*quantile.Discretizer, attrMax []float64) []storage.QuantAttr {
	attrs := make([]storage.QuantAttr, b.na)
	for _, a := range b.numeric {
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
		if d := recordDefect(b.schema, vals, label); d != "" {
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

func (b *qbuilder) attrAllowed(a int) bool {
	return b.allowed == nil || b.allowed[a]
}

func (b *qbuilder) xDefault() int {
	for _, a := range b.numeric {
		if b.attrAllowed(a) {
			return a
		}
	}
	return b.numeric[0]
}

func (b *qbuilder) makeRoot() {
	x := -1
	if b.useMats {
		// The paper selects the root's X-axis attribute randomly.
		x = b.numeric[b.rng.Intn(len(b.numeric))]
	}
	lo := make([]int, b.na)
	hi := make([]int, b.na)
	for a := 0; a < b.na; a++ {
		hi[a] = b.q.Bins(a)
	}
	b.root = b.newQNode(0, lo, hi, x)
	b.root.hists, b.root.mats = b.makeQHists(b.root)
	b.queueScanned(b.root)
}

func (b *qbuilder) newQNode(depth int, lo, hi []int, xAttr int) *qnode {
	n := &qnode{
		id:    int32(len(b.nodes)),
		tn:    &tree.Node{},
		depth: depth,
		state: stBuilding,
		lo:    lo,
		hi:    hi,
		xAttr: xAttr,
	}
	n.buffer.init(b.na)
	b.nodes = append(b.nodes, n)
	b.all = append(b.all, n)
	b.byTN[n.tn] = n
	return n
}

// makeQHists allocates a building node's dense accumulators over its code
// windows. Parallel scan workers call it again with the same geometry for
// their private shards.
func (b *qbuilder) makeQHists(n *qnode) ([]*histogram.Hist1D, []*histogram.Matrix) {
	if b.useMats {
		mats := make([]*histogram.Matrix, b.na)
		xw := n.width(n.xAttr)
		for _, y := range b.numeric {
			if y == n.xAttr {
				continue
			}
			mats[y] = histogram.NewMatrix(xw, n.width(y), b.nc)
		}
		hists := make([]*histogram.Hist1D, b.na)
		for a := 0; a < b.na; a++ {
			if b.schema.Attrs[a].Kind == dataset.Categorical {
				hists[a] = histogram.New1D(b.schema.Attrs[a].Cardinality(), b.nc)
			}
		}
		return hists, mats
	}
	hists := make([]*histogram.Hist1D, b.na)
	for a := 0; a < b.na; a++ {
		if b.schema.Attrs[a].Kind == dataset.Categorical {
			hists[a] = histogram.New1D(b.schema.Attrs[a].Cardinality(), b.nc)
		} else {
			hists[a] = histogram.New1D(n.width(a), b.nc)
		}
	}
	return hists, nil
}

func (b *qbuilder) hasWork() bool {
	return len(b.scanned) > 0 || len(b.collects) > 0
}

func (b *qbuilder) queueScanned(n *qnode) {
	if n.queued {
		return
	}
	n.queued = true
	b.scanned = append(b.scanned, n)
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

// finishScan updates the per-scan counters. SkippedRecords is not touched:
// invalid records were dropped once at encode and never reach round scans.
func (b *qbuilder) finishScan() {
	b.obs.IncScans()
	b.stats.Scans++
	b.stats.Rounds++
	b.stats.NidBytesIO += 8 * int64(len(b.nid))
}

// qshard holds one scan worker's private accumulators, merged in
// worker-index order after the pass (same contract as the raw scanShard).
type qshard struct {
	nodes []*qshardNode
	row   []float64
}

type qshardNode struct {
	hists  []*histogram.Hist1D
	mats   []*histogram.Matrix
	buffer buffer
}

func (sh *qshard) nodeFor(b *qbuilder, n *qnode) *qshardNode {
	sn := sh.nodes[n.id]
	if sn == nil {
		sn = &qshardNode{}
		sn.buffer.init(b.na)
		if n.state == stBuilding {
			sn.hists, sn.mats = b.makeQHists(n)
		}
		sh.nodes[n.id] = sn
	}
	return sn
}

func (sh *qshard) mergeInto(b *qbuilder) {
	for id, sn := range sh.nodes {
		if sn == nil {
			continue
		}
		n := b.nodes[id]
		for a, h := range sn.hists {
			if h != nil {
				n.hists[a].Merge(h)
			}
		}
		for a, m := range sn.mats {
			if m != nil {
				n.mats[a].Merge(m)
			}
		}
		n.buffer.appendFrom(&sn.buffer)
	}
}

func (b *qbuilder) scanParallel(rs storage.CodeRangeSource) error {
	shards := make([]*qshard, b.cfg.Workers)
	for w := range shards {
		shards[w] = &qshard{nodes: make([]*qshardNode, len(b.nodes)), row: make([]float64, b.na)}
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
		sh.mergeInto(b)
	}
	b.finishScan()
	return nil
}

// route walks a code record down from its last known node to its current
// destination: a dense histogram update, a collect buffer, or a settled
// leaf. When sh is non-nil the terminal write lands in the worker's private
// shard; the walk itself only reads state frozen during the scan.
func (b *qbuilder) route(sh *qshard, rid int, codes []uint16, label int) {
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
			row := b.row
			buf := &n.buffer
			if sh != nil {
				row = sh.row
				buf = &sh.nodeFor(b, n).buffer
			}
			for a, c := range codes {
				row[a] = float64(c)
			}
			buf.add(rid, row, label)
			b.nid[rid] = n.id
			return
		default: // stBuilding
			if sh != nil {
				sn := sh.nodeFor(b, n)
				b.countCodes(n, sn.hists, sn.mats, codes, label)
			} else {
				b.countCodes(n, n.hists, n.mats, codes, label)
			}
			b.nid[rid] = n.id
			return
		}
	}
}

// countCodes counts one code record into dense accumulators of node n's
// geometry (its own, or a worker shard's): bin = code - window base, no
// comparisons, no search.
func (b *qbuilder) countCodes(n *qnode, hists []*histogram.Hist1D, mats []*histogram.Matrix, codes []uint16, label int) {
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

// qview is the histogram evidence a split decision works from: per-attr
// marginals (dense over the node's windows), the matrices when present, and
// the window bases needed to map local boundaries back to global codes.
type qview struct {
	marg   []*histogram.Hist1D
	mats   []*histogram.Matrix
	lo     []int // global code base per attr (numeric)
	xAttr  int
	totals []int
	n      int
}

func (v *qview) finish(nc int) {
	v.totals = make([]int, nc)
	for _, h := range v.marg {
		if h != nil {
			for i, c := range h.ClassTotals() {
				v.totals[i] += c
			}
			break
		}
	}
	v.n = 0
	for _, c := range v.totals {
		v.n += c
	}
}

func (b *qbuilder) viewOf(n *qnode) *qview {
	v := &qview{xAttr: n.xAttr, lo: n.lo, marg: make([]*histogram.Hist1D, b.na)}
	if n.mats != nil {
		v.mats = n.mats
		var first *histogram.Matrix
		for _, y := range b.numeric {
			if y != n.xAttr && n.mats[y] != nil {
				first = n.mats[y]
				break
			}
		}
		if first != nil {
			v.marg[n.xAttr] = first.MarginalX()
		}
		for _, y := range b.numeric {
			if m := n.mats[y]; m != nil {
				v.marg[y] = m.MarginalY()
			}
		}
	}
	for a := 0; a < b.na; a++ {
		if n.hists != nil && n.hists[a] != nil {
			v.marg[a] = n.hists[a]
		}
	}
	v.finish(b.nc)
	return v
}

// sliceViewX restricts a matrix-bearing view to X bins [lo, hi) local to the
// view — the shaded/unshaded sub-matrices of Figure 6. Categorical marginals
// are not sliceable (no (X, cat) matrix feeds decisions) and are absent from
// the result.
func (b *qbuilder) sliceViewX(v *qview, lo, hi int) *qview {
	if v.mats == nil || lo >= hi {
		return nil
	}
	sv := &qview{
		xAttr: v.xAttr,
		marg:  make([]*histogram.Hist1D, b.na),
		mats:  make([]*histogram.Matrix, b.na),
		lo:    append([]int(nil), v.lo...),
	}
	sv.lo[v.xAttr] = v.lo[v.xAttr] + lo
	var first *histogram.Matrix
	for _, y := range b.numeric {
		if m := v.mats[y]; m != nil {
			s := m.SliceX(lo, hi)
			sv.mats[y] = s
			if first == nil {
				first = s
			}
			sv.marg[y] = s.MarginalY()
		}
	}
	if first == nil {
		return nil
	}
	sv.marg[v.xAttr] = first.MarginalX()
	sv.finish(b.nc)
	return sv
}

// qEval is the outcome of the boundary search for one numeric attribute.
// The split itself is exact — every code boundary is a real candidate and g
// is the best boundary's true gini — but attribute SELECTION uses score,
// which adds the same optimistic interval-estimate lower bound the raw
// builder computes at Config.Intervals resolution. Without it, exact
// numeric ginis would compete unhandicapped against the categorical subset
// search (whose optimum over 2^k subsets is biased low on noise attributes),
// and quantized builds would pick systematically different — and, under
// pruning, worse — splits than raw builds at low-gain nodes.
type qEval struct {
	attr     int
	ok       bool
	g        float64 // exact gini of the best code boundary
	score    float64 // min(g, interval-estimate lower bound); selection only
	boundary int     // local boundary index; global code = lo[attr] + boundary
	cums     [][]int
}

// qEvalNumeric searches every code boundary exactly, then scores groups of
// `group` consecutive code bins with the paper's interval estimate — the
// granularity a raw build's equal-depth intervals would have — clamped to
// edge − 2·nk/n exactly as evalNumeric does.
func qEvalNumeric(attr int, h *histogram.Hist1D, totals []int, group int) qEval {
	e := qEval{attr: attr, g: math.Inf(1), boundary: -1}
	e.cums = h.Cumulative()
	boundaryG := make([]float64, len(e.cums))
	for j, cum := range e.cums {
		g := gini.SplitBelow(cum, totals)
		boundaryG[j] = g
		if g < e.g {
			e.g = g
			e.boundary = j
		}
	}
	e.score = e.g
	e.ok = e.boundary >= 0 && !math.IsInf(e.g, 1)
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

func (b *qbuilder) evalNumericAttrs(v *qview) (best, evalX *qEval) {
	for _, a := range b.numeric {
		if !b.attrAllowed(a) {
			continue
		}
		if v.marg[a] == nil || v.marg[a].Bins() < 2 {
			continue
		}
		e := qEvalNumeric(a, v.marg[a], v.totals, b.estGroup(a))
		if !e.ok {
			continue
		}
		if a == v.xAttr {
			cp := e
			evalX = &cp
		}
		if best == nil || e.score < best.score {
			cp := e
			best = &cp
		}
	}
	return best, evalX
}

func (b *qbuilder) evalCategoricalAttrs(v *qview) (attr int, mask uint64, g float64) {
	attr, g = -1, math.Inf(1)
	for a := 0; a < b.na; a++ {
		if b.schema.Attrs[a].Kind != dataset.Categorical || v.marg[a] == nil || !b.attrAllowed(a) {
			continue
		}
		h := v.marg[a]
		counts := make([][]int, h.Bins())
		for bin := range counts {
			counts[bin] = h.Bin(bin)
		}
		if m, gg, ok := gini.BestSubsetSplit(counts); ok && gg < g {
			g, attr, mask = gg, a, m
		}
	}
	return attr, mask, g
}

func (b *qbuilder) decideScanned() {
	span := b.obs.StartSpan(obs.PhaseDecide)
	defer span.End()
	toDecide := b.scanned
	b.scanned = nil
	for _, n := range toDecide {
		n.queued = false
	}
	for _, n := range toDecide {
		if n.dead || n.state != stBuilding {
			continue
		}
		b.decideNode(n, b.viewOf(n), decidePrimary)
	}
}

// decideNode runs Part II over dense code histograms. The gates — leaf
// conditions, collect threshold, X-axis preference, MinGiniGain — mirror the
// raw builder's decideNodeFrom; the numeric search differs only in being
// exact at every boundary, so no node ever goes pending.
func (b *qbuilder) decideNode(n *qnode, v *qview, kind decideKind) {
	secondary := kind != decidePrimary
	n.tn.SetCounts(v.totals)

	if n.tn.Gini == 0 || n.tn.N < b.cfg.MinSplitRecords || n.depth >= b.cfg.MaxDepth ||
		(b.cfg.PurityStop > 0 &&
			float64(n.tn.ClassCounts[n.tn.Class]) >= b.cfg.PurityStop*float64(n.tn.N)) {
		if !secondary {
			b.finalizeAsLeaf(n, v.totals)
		}
		return
	}
	if !secondary && b.cfg.InMemoryNodeRecords > 0 &&
		n.tn.N <= b.cfg.InMemoryNodeRecords && n.depth > 0 {
		b.markCollect(n)
		return
	}

	best, evalX := b.evalNumericAttrs(v)
	// Prefer the predicted X-axis when statistically indistinguishable from
	// the best attribute: the split stays exact and the matrices become
	// partitionable (same 2% Gini tolerance as the raw builder).
	if v.mats != nil && best != nil && evalX != nil && best.attr != v.xAttr &&
		evalX.score-best.score <= 0.02*n.tn.Gini {
		best = evalX
	}

	var catAttr = -1
	var catMask uint64
	catG := math.Inf(1)
	if !secondary {
		catAttr, catMask, catG = b.evalCategoricalAttrs(v)
	}

	bestScore := math.Inf(1)
	if best != nil {
		bestScore = best.score
	}
	useCat := catAttr >= 0 && catG < bestScore
	if useCat {
		bestScore = catG
	}

	if math.IsInf(bestScore, 1) || n.tn.Gini-bestScore < b.cfg.MinGiniGain {
		if !secondary {
			b.finalizeAsLeaf(n, v.totals)
		}
		return
	}

	if v.mats != nil && !secondary {
		b.stats.PredictionTotal++
		if !useCat && best.attr == v.xAttr {
			b.stats.PredictionHits++
		}
	}

	if useCat {
		if n.depth == 0 {
			b.stats.RootSplitAttr = catAttr
			b.stats.RootAliveIntervals = 0
			b.stats.RootSplitGini = catG
		}
		b.makeResolvedCategorical(n, v, catAttr, catMask)
		return
	}

	if n.depth == 0 {
		b.stats.RootSplitAttr = best.attr
		b.stats.RootAliveIntervals = 0
		b.stats.RootSplitGini = best.g
	}
	b.makeResolvedNumeric(n, v, best, kind)
}

func (b *qbuilder) markCollect(n *qnode) {
	n.state = stCollect
	n.collectRound = b.round
	n.hists, n.mats = nil, nil
	b.collects = append(b.collects, n)
}

// xStickiness is the axis-stickiness tolerance: when predicting a child's
// X-axis, the current axis is kept if its score is within this fraction of
// the class impurity of the best attribute's score — the same 2% nudge
// decideNode applies when choosing the actual split. A node can split twice
// in one scan only when its split lands on its own X-axis, so between
// near-tied attributes the prediction keeps the axis the node's matrices
// are already built around rather than trading a double split for a
// statistically indistinguishable alternative.
const xStickiness = 0.02

// predictX implements predictSplit (Figure 7) over code marginals.
func (b *qbuilder) predictX(v *qview, exclude int) int {
	if !b.useMats {
		return -1
	}
	bestA := -1
	bestG := math.Inf(1)
	axisG := math.Inf(1)
	for _, a := range b.numeric {
		if a == exclude || !b.attrAllowed(a) {
			continue
		}
		h := v.marg[a]
		if h == nil || occupiedBins(h) < 2 {
			continue
		}
		if e := qEvalNumeric(a, h, v.totals, b.estGroup(a)); e.ok {
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
// pre-split marginals — the paper's "crude estimate".
func (b *qbuilder) predictChildX(v *qview, attr, binLo, binHi int) int {
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
	score := func(a int, h *histogram.Hist1D, totals []int) {
		if h == nil || occupiedBins(h) < 2 {
			return
		}
		if e := qEvalNumeric(a, h, totals, b.estGroup(a)); e.ok && e.score < bestG {
			bestG, bestA = e.score, a
		}
	}
	for _, a := range b.numeric {
		if !b.attrAllowed(a) {
			continue
		}
		switch a {
		case v.xAttr:
			score(a, s.MarginalX(), childTotals)
		case attr:
			score(a, s.MarginalY(), childTotals)
		default:
			score(a, v.marg[a], v.totals)
		}
	}
	if bestA < 0 {
		bestA = b.xDefault()
	}
	return bestA
}

// predictChildXOnAxis predicts the X-axis for a child of a second-level
// split that landed on the view's own X-axis (the first-level split already
// consumed its sliced views, so this child has none of its own). When every
// allowed attribute is numeric, an X-axis split restricts every matrix
// exactly, so the child gets the same fully-exact predictX the first-level
// children get, stickiness included: on axis-coherent data the child keeps
// splitting along the axis and keeps earning same-scan double splits. When
// categorical attributes are in play the axis is excluded instead: sticky
// axes breed same-scan second splits, second splits cannot see categorical
// evidence (sliced views have no categorical marginals), and on
// categorical-driven data that trades real splits for numeric near-ties.
func (b *qbuilder) predictChildXOnAxis(v *qview, binLo, binHi int) int {
	if b.inheritX {
		if sv := b.sliceViewX(v, binLo, binHi); sv != nil {
			return b.predictX(sv, -1)
		}
	}
	return b.predictX(v, v.xAttr)
}

// newChild creates a building child whose windows equal the parent's except
// on the split attribute, narrowed to local bins [binLo, binHi). Children
// small enough go straight to record collection.
func (b *qbuilder) newChild(depth int, v *qview, splitAttr, binLo, binHi, x int, counts []int) *qnode {
	lo := append([]int(nil), v.lo...)
	hi := make([]int, b.na)
	for a := 0; a < b.na; a++ {
		hi[a] = lo[a] + b.windowWidth(v, a)
	}
	if splitAttr >= 0 {
		hi[splitAttr] = v.lo[splitAttr] + binHi
		lo[splitAttr] = v.lo[splitAttr] + binLo
	}
	if b.useMats && x < 0 {
		x = b.xDefault()
	}
	c := b.newQNode(depth, lo, hi, x)
	if counts != nil {
		c.tn.SetCounts(counts)
	}
	if b.cfg.InMemoryNodeRecords > 0 && depth > 0 && counts != nil &&
		c.tn.N > 0 && c.tn.N <= b.cfg.InMemoryNodeRecords {
		b.markCollect(c)
		return c
	}
	c.hists, c.mats = b.makeQHists(c)
	b.queueScanned(c)
	return c
}

// windowWidth reads attribute a's window width out of a view's marginals
// and matrices (views do not carry hi; only numeric windows matter).
func (b *qbuilder) windowWidth(v *qview, a int) int {
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

// makeResolvedNumeric installs the exact boundary split. With matrices and
// the split on the X-axis, the children's sub-matrices are exact and a
// same-scan second split is attempted — CMP-B's prediction payoff.
func (b *qbuilder) makeResolvedNumeric(n *qnode, v *qview, e *qEval, kind decideKind) {
	leftCounts := append([]int(nil), e.cums[e.boundary]...)
	rightCounts := make([]int, b.nc)
	for i := range rightCounts {
		rightCounts[i] = v.totals[i] - leftCounts[i]
	}
	bins := v.marg[e.attr].Bins()

	var lview, rview *qview
	doubleSplit := kind == decidePrimary && v.mats != nil && e.attr == v.xAttr
	if doubleSplit {
		lview = b.sliceViewX(v, 0, e.boundary+1)
		rview = b.sliceViewX(v, e.boundary+1, bins)
	}

	var lx, rx int
	switch {
	case lview != nil:
		lx = b.predictX(lview, -1)
	case v.mats != nil && e.attr != v.xAttr:
		lx = b.predictChildX(v, e.attr, 0, e.boundary+1)
	case v.mats != nil:
		lx = b.predictChildXOnAxis(v, 0, e.boundary+1)
	default:
		lx = b.predictX(v, e.attr)
	}
	switch {
	case rview != nil:
		rx = b.predictX(rview, -1)
	case v.mats != nil && e.attr != v.xAttr:
		rx = b.predictChildX(v, e.attr, e.boundary+1, bins)
	case v.mats != nil:
		rx = b.predictChildXOnAxis(v, e.boundary+1, bins)
	default:
		rx = b.predictX(v, e.attr)
	}
	left := b.newChild(n.depth+1, v, e.attr, 0, e.boundary+1, lx, leftCounts)
	right := b.newChild(n.depth+1, v, e.attr, e.boundary+1, bins, rx, rightCounts)

	// Build-time threshold: the GLOBAL code of the boundary. goesLeftCodes
	// routes on it during construction; translate rewrites it to the raw
	// breakpoint value once the tree is final.
	n.tn.Split = &tree.Split{Kind: tree.SplitNumeric, Attr: e.attr,
		Threshold: float64(v.lo[e.attr] + e.boundary)}
	n.tn.Left, n.tn.Right = left.tn, right.tn
	n.children = []*qnode{left, right}
	n.state = stResolved
	n.hists, n.mats = nil, nil

	if doubleSplit {
		grew := false
		if lview != nil {
			b.decideNode(left, lview, decideUnderResolved)
			grew = grew || left.state != stBuilding
		}
		if rview != nil {
			b.decideNode(right, rview, decideUnderResolved)
			grew = grew || right.state != stBuilding
		}
		if grew {
			b.stats.DoubleSplits++
		}
	}
}

func (b *qbuilder) makeResolvedCategorical(n *qnode, v *qview, attr int, mask uint64) {
	h := v.marg[attr]
	leftCounts := make([]int, b.nc)
	for val := 0; val < h.Bins(); val++ {
		if mask&(1<<uint(val)) == 0 {
			continue
		}
		for c, k := range h.Bin(val) {
			leftCounts[c] += k
		}
	}
	rightCounts := make([]int, b.nc)
	for i := range rightCounts {
		rightCounts[i] = v.totals[i] - leftCounts[i]
	}
	x := b.predictX(v, -1)
	left := b.newChild(n.depth+1, v, -1, 0, 0, x, leftCounts)
	right := b.newChild(n.depth+1, v, -1, 0, 0, x, rightCounts)

	n.tn.Split = &tree.Split{Kind: tree.SplitCategorical, Attr: attr, Subset: mask}
	n.tn.Left, n.tn.Right = left.tn, right.tn
	n.children = []*qnode{left, right}
	n.state = stResolved
	n.hists, n.mats = nil, nil
}

func (b *qbuilder) finalizeAsLeaf(n *qnode, counts []int) {
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
	n.buffer.reset()
	n.hists, n.mats = nil, nil
	n.state = stLeaf
}

func (b *qbuilder) retire(n *qnode, to *qnode) {
	if n == nil || n.dead {
		return
	}
	n.dead = true
	n.succ = to
	n.hists, n.mats = nil, nil
	n.buffer.reset()
	delete(b.byTN, n.tn)
	for _, c := range n.children {
		b.retire(c, to)
	}
	n.children = nil
}

// finishCollects builds each filled collect node's subtree in memory with
// the exact algorithm, over code rows. The exact finisher's midpoint
// thresholds land between integer codes, which translate resolves like any
// boundary: code <= t is code <= floor(t) for integer codes.
func (b *qbuilder) finishCollects() {
	span := b.obs.StartSpan(obs.PhaseCollect)
	defer span.End()
	var remaining, ready []*qnode
	for _, c := range b.collects {
		if c.dead || c.state != stCollect {
			continue
		}
		if c.collectRound >= b.round {
			remaining = append(remaining, c)
			continue
		}
		ready = append(ready, c)
	}
	doParallel(b.cfg.Workers, len(ready), func(i int) {
		c := ready[i]
		sub := exact.BuildSubtree(&c.buffer, b.schema, exact.Config{
			MinSplitRecords: b.cfg.MinSplitRecords,
			MaxDepth:        b.cfg.MaxDepth - c.depth,
			MinGiniGain:     b.cfg.MinGiniGain,
			PurityStop:      b.cfg.PurityStop,
			AllowedAttrs:    b.allowed,
		})
		// Graft in place so the parent's pointer to c.tn stays valid.
		*c.tn = *sub
		c.buffer.reset()
		c.state = stDone
	})
	b.collects = remaining
}

func (b *qbuilder) applyPrune(during bool) {
	var expandable map[*tree.Node]bool
	if during {
		expandable = make(map[*tree.Node]bool)
		for _, n := range b.all {
			if n.dead {
				continue
			}
			switch n.state {
			case stBuilding, stCollect:
				expandable[n.tn] = true
			}
		}
	}
	t := &tree.Tree{Root: b.root.tn, Schema: b.schema}
	res := prune.PUBLIC1(t, expandable)
	for tn := range res.Finalized {
		if qn := b.byTN[tn]; qn != nil && !qn.dead {
			b.finalizeAsLeaf(qn, nil)
		}
	}
	for tn := range res.Collapsed {
		if qn := b.byTN[tn]; qn != nil && !qn.dead {
			b.finalizeAsLeaf(qn, nil)
		}
	}
}

func (b *qbuilder) finalizeRemaining() {
	for _, n := range b.all {
		if n.dead {
			continue
		}
		switch n.state {
		case stBuilding, stCollect:
			b.finalizeAsLeaf(n, nil)
		}
	}
	b.scanned = nil
	b.collects = nil
}

func (b *qbuilder) snapshotMemory() {
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

// translate rewrites every numeric threshold from code space to raw feature
// units: build-time thresholds are global code boundaries c (possibly
// half-integer midpoints from the exact finisher — floor recovers the
// boundary, since integer codes satisfy code <= t iff code <= floor(t)), and
// the raw threshold is the breakpoint cuts[c] ("value <= cuts[c]" selects
// exactly the records with "code <= c"). Categorical subsets need no
// translation: codes are the category indices.
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
