package core

// The round engine. Both builders — the raw one (builder.go, phase2.go,
// bnode.go), which scans float records and interval-searches discretizers,
// and the quantized one (qbuild.go), which scans bin codes and indexes dense
// histograms — run the paper's level-synchronous loop here: each
// construction round makes one scan, then decides (Figures 4 and 10). The
// engine owns everything the two do identically: the frontier and its node
// lifecycle, the round loop with its cancel checks and obs spans, the
// worker-index-order shard merge, the in-memory finishing of collect nodes,
// PUBLIC(1) pruning, the discretization pass, and (decide.go) the decision
// gates and the installation of resolved splits, CMP-B's child-axis choice
// and same-scan double split included. A scan kernel (the kernel interface)
// supplies what differs: record routing and counting, numeric evaluation,
// X-axis prediction, child geometry, the finisher, and the raw kernel's
// pending splits and oblique search. The per-record scan loops live in the
// kernels, over their concrete node types, so the engine adds no call to
// them.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/histogram"
	"cmpdt/internal/obs"
	"cmpdt/internal/prune"
	"cmpdt/internal/quantile"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// state of a builder node.
type state int

const (
	// stBuilding: histograms are being (or about to be) filled by a scan.
	stBuilding state = iota
	// stPending: a provisional split is in place; alive-interval records
	// are buffered during the next scan while region children collect the
	// rest (Figure 3 of the paper). Raw kernel only.
	stPending
	// stResolved: the final split is known; children route records.
	stResolved
	// stCollect: the node is small enough to finish in memory; the next
	// scan gathers all its records into the buffer.
	stCollect
	// stLeaf: a finished leaf.
	stLeaf
	// stDone: an in-memory-finished subtree hangs off the tree node;
	// nothing further routes through the builder.
	stDone
)

// nodeBase is the part of a builder node the engine owns, whatever kernel
// scans for it; N is the kernel's node type, which embeds it.
type nodeBase[N any] struct {
	id    int32
	tn    *tree.Node
	depth int
	state state
	dead  bool // merged away, reverted or pruned out
	// succ is the surviving node a dead node's records belong to; stale
	// nid entries resolve through the succ chain.
	succ N
	// children: for stPending, the region children in value order; for
	// stResolved, exactly {left, right}.
	children []N

	xAttr   int // CMP-B/CMP predicted X-axis; -1 without matrices
	histSet     // stBuilding: the histograms the next scan fills

	// collectRound records when the node entered stCollect; its buffer is
	// complete after the following round's scan and distributions.
	collectRound int
	// collectListed marks membership in the engine's collects list. A
	// collect child that a same-scan secondary split turns pending keeps
	// its stale entry there; if that pending split fails and the re-decided
	// node is collected again in the same round, a second entry would have
	// two workers finish one buffer concurrently (and, serially, graft an
	// empty subtree over the real one).
	collectListed bool
	// notBefore delays the node's split decision until the given round:
	// a node's histograms are filled by the scan after the one that
	// created or reverted it.
	notBefore int
	// queued marks membership in the scanned list, so a node re-queued by
	// a revert while it still sits in the list (a new child whose same-scan
	// secondary split went pending and then failed) is not entered twice —
	// a duplicate entry would be decided twice in one round, and the
	// second decision corrupts the first's split.
	queued bool
}

func (b *nodeBase[N]) base() *nodeBase[N] { return b }

// node is what the engine needs of a kernel's node type N beyond its
// nodeBase.
type node[N any] interface {
	comparable
	base() *nodeBase[N]
	// bins is the histogram bin count of numeric attribute a.
	bins(a int) int
	// frame gives a view of the node's histograms the node's bin-to-value
	// mapping: discretizers (raw) or global code bases (quantized).
	frame(v *view)
	// countBuffered adds the class counts of the node's buffered records
	// to counts.
	countBuffered(counts []int)
	// bufferBytes is the buffer's footprint, charged per record.
	bufferBytes() int64
	// absorb appends a scan worker's shard of the node's buffer.
	absorb(shard N)
	// release drops the node's histograms, buffered records and any
	// pending split.
	release()
}

// kernel is what a scan kernel supplies to the engine.
type kernel[N any] interface {
	// scan makes one construction round's pass, routing every record to a
	// histogram, a buffer or a settled leaf (merging worker shards with
	// mergeShard and counting the pass with finishScan); the raw kernel
	// then resolves the pending splits the pass completed.
	scan() error
	// evalNumericAttrs scores every numeric attribute that may split n
	// from v: the best one, and the X-axis's own score when it has one.
	evalNumericAttrs(n N, v *view) (best, evalX *numEval)
	// predictX picks the X-axis for a child from v's marginals
	// (predictSplit, Figure 7), never exclude.
	predictX(v *view, exclude int) int
	// predictChildX picks the X-axis for a child of a split on the Y-axis
	// attribute attr covering v's bins [lo, hi) of it.
	predictChildX(v *view, attr, lo, hi int) int
	// child registers a node one level below n with n's geometry, except on
	// attr (-1: none), whose range narrows to v's bins [lo, hi); counts are
	// its records' classes.
	child(n N, v *view, attr, lo, hi, x int, counts []int) N
	// pend installs a pending split of n on e's attribute when its interval
	// estimates leave alive intervals, returning their number; zero means
	// the best boundary is exact and nothing was installed.
	pend(n N, v *view, e *numEval, kind decideKind) (alive int)
	// bestObliqueSplit searches v's matrices for a linear-combination
	// split (called only when engine.oblique is set).
	bestObliqueSplit(v *view) (obliqueLine, bool)
	// finish grows the subtree of a collect node over its buffer.
	finish(n N, cfg exact.Config) *tree.Node
}

// engine is the round loop and the frontier it grows.
type engine[N node[N]] struct {
	k      kernel[N]
	ctx    context.Context
	cfg    Config
	schema *dataset.Schema
	na, nc int

	numeric []int  // numeric attribute indices
	allowed []bool // split-candidate attributes (nil = all; Config.SplitAttrs)
	useMats bool   // CMP-B / CMP with >= 2 numeric attributes
	// oblique: the kernel searches linear-combination splits (raw full CMP).
	oblique bool
	pairs   [][2]int // ObliqueAllPairs extension: all numeric pairs
	// inheritX: children of on-axis second splits predict their X-axis from
	// the exact X-sliced view (quantized kernel; see childX).
	inheritX bool

	nid      []int32 // record id -> node id ("swapped to disk")
	nodes    []N     // node id -> node
	all      []N     // every node ever created, for accounting
	scanned  []N     // building nodes the next scan fills
	pendings []N     // pending nodes with no pending ancestor
	collects []N
	byTN     map[*tree.Node]N

	// records is the number of records a scan passes over: len(nid), or
	// more when the kernel's store holds weighted rows (a row per distinct
	// bootstrap draw), where every draw counts.
	records int64

	root  N
	round int
	stats Stats
	rng   *rand.Rand
	obs   *obs.Collector // nil when observability is off; all methods nil-safe
}

// newEngine is an engine for a normalized cfg over schema; the caller sets
// k.
func newEngine[N node[N]](ctx context.Context, schema *dataset.Schema, cfg Config) (engine[N], error) {
	e := engine[N]{
		ctx:     ctx,
		cfg:     cfg,
		schema:  schema,
		na:      schema.NumAttrs(),
		nc:      schema.NumClasses(),
		numeric: schema.NumericAttrs(),
		byTN:    make(map[*tree.Node]N),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		obs:     cfg.Obs,
	}
	var err error
	e.allowed, err = SplitAttrMask(cfg.SplitAttrs, e.na)
	e.stats.RootSplitAttr = -1
	e.useMats = cfg.Algorithm.matrices() && len(e.numeric) >= 2
	return e, err
}

// attrAllowed reports whether attribute a may appear in a split test (see
// Config.SplitAttrs).
func (e *engine[N]) attrAllowed(a int) bool {
	return e.allowed == nil || e.allowed[a]
}

// xDefault is the fallback X-axis when no candidate scored: the first
// allowed numeric attribute, or the first numeric attribute outright when
// the subsample excludes them all (the matrix is then wasted but harmless —
// no split path consults disallowed attributes).
func (e *engine[N]) xDefault() int {
	for _, a := range e.numeric {
		if e.attrAllowed(a) {
			return a
		}
	}
	return e.numeric[0]
}

// ctxCheckMask throttles context polling in the whole-source passes
// (discretization, encode, index walk) that run outside the storage range
// driver: the context is checked every 1024 records, cheap against the
// per-record work yet frequent enough that cancellation lands well inside
// one pass.
const ctxCheckMask = 1023

// errInvalidRecord builds the ValidateStrict abort error.
func errInvalidRecord(rid int, defect string) error {
	return fmt.Errorf("core: record %d invalid: %s (set Config.Validation = ValidateSkip to drop such records)", rid, defect)
}

// checkCountRange rejects, before any scan, a training set of n records
// (what names how they are counted) that a 32-bit histogram count cannot
// hold: every count the build makes is at most n.
func checkCountRange(what string, n int64) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("core: %s %d exceeds %d, the most a 32-bit histogram count holds", what, n, math.MaxInt32)
	}
	return nil
}

// errSampleDone ends the discretization pass once a prefix sample is full.
var errSampleDone = errors.New("core: sample complete")

// gkEpsilon is the rank error of the Greenwald-Khanna sketches that
// replace the sample when DiscretizeSample is negative.
func gkEpsilon(bins int) float64 {
	return math.Min(1/(8*float64(bins)), 0.01)
}

// discretize is the discretization pass over src: bins equal-depth
// intervals per attribute of attrs, cut from a prefix sample of
// DiscretizeSample valid records, or — DiscretizeSample negative — from
// bounded-memory Greenwald-Khanna sketches over a full pass, the classic
// one-pass quantiling for disk-resident data. The benchmark generators emit
// i.i.d. records, so a prefix is a uniform sample, and the scan cost model
// charges only the bytes actually read (the papers likewise compute
// quantiles from a sample rather than a full pass). lo and hi are the
// observed domains; invalid records are skipped or abort per Validation.
func (e *engine[N]) discretize(src storage.Source, attrs []int, bins int) (disc []*quantile.Discretizer, lo, hi []float64, err error) {
	n := src.NumRecords()
	lo, hi = make([]float64, e.na), make([]float64, e.na)
	for a := range lo {
		lo[a], hi[a] = posInf, negInf
	}
	sampleCap := n
	var samples [][]float64
	var sketches []*quantile.GK
	if e.cfg.DiscretizeSample < 0 {
		sketches = make([]*quantile.GK, e.na)
		for _, a := range attrs {
			if sketches[a], err = quantile.NewGK(gkEpsilon(bins)); err != nil {
				return nil, nil, nil, err
			}
		}
	} else {
		if c := e.cfg.DiscretizeSample; c > 0 && c < n {
			sampleCap = c
		}
		samples = make([][]float64, e.na)
		for _, a := range attrs {
			samples[a] = make([]float64, 0, sampleCap)
		}
	}
	seen, checked := 0, 0
	err = src.Scan(func(rid int, vals []float64, label int) error {
		checked++
		if checked&ctxCheckMask == 0 {
			if err := e.ctx.Err(); err != nil {
				return err
			}
		}
		if d := e.schema.RecordDefect(vals, label); d != "" {
			if e.cfg.Validation == ValidateStrict {
				return errInvalidRecord(rid, d)
			}
			return nil // skipped: only valid records feed the sample
		}
		for _, a := range attrs {
			v := vals[a]
			if v < lo[a] {
				lo[a] = v
			}
			if v > hi[a] {
				hi[a] = v
			}
			if sketches != nil {
				sketches[a].Add(v)
			} else {
				samples[a] = append(samples[a], v)
			}
		}
		// A prefix sample ends the pass early; a sample covering the
		// store reads it to the end, so the pass counts as a scan.
		if sketches == nil && sampleCap < n {
			if seen++; seen >= sampleCap {
				return errSampleDone
			}
		}
		return nil
	})
	if err != nil && err != errSampleDone {
		return nil, nil, nil, err
	}
	if err == nil {
		// The pass ran to completion (a sketch pass, or a sample that
		// covers the store or never filled), so the storage layer counted
		// a full scan; count it here too, so Stats.Scans and the report's
		// per-round scan totals match storage.Stats exactly.
		e.stats.Scans++
		e.obs.IncScans()
	}
	// The attributes are independent, so their discretizers are built
	// concurrently. Each sample belongs to this pass and is sorted in
	// place, through one radix scratch buffer per worker.
	disc = make([]*quantile.Discretizer, e.na)
	errs := make([]error, len(attrs))
	workers := min(e.cfg.Workers, len(attrs))
	scratch := make(chan []float64, max(workers, 1))
	for w := 0; w < cap(scratch); w++ {
		scratch <- nil
	}
	doParallel(workers, len(attrs), func(i int) {
		a := attrs[i]
		if sketches != nil {
			disc[a], errs[i] = sketches[a].Discretizer(bins)
			return
		}
		buf := <-scratch
		if len(buf) < len(samples[a]) {
			buf = make([]float64, len(samples[a]))
		}
		quantile.SortFloat64s(samples[a], buf)
		scratch <- buf
		disc[a], errs[i] = quantile.EqualDepthSorted(samples[a], bins)
	})
	for i, err := range errs {
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: discretizing %s: %w", e.schema.Attrs[attrs[i]].Name, err)
		}
	}
	return disc, lo, hi, nil
}

// build runs round 0 — init, the discretization or quantization pass —
// under the init span, plants root(x) with the paper's random X-axis, and
// grows the tree one round (one scan) at a time until no node is left to
// build or MaxRounds is spent; then closes the frontier and prunes.
func (e *engine[N]) build(init func() error, root func(x int) N) error {
	e.obs.StartRound(0)
	initSpan := e.obs.StartSpan(obs.PhaseInit)
	if err := init(); err != nil {
		return err
	}
	initSpan.End()
	x := -1
	if e.useMats {
		// The paper selects the root's X-axis attribute randomly.
		x = e.numeric[e.rng.Intn(len(e.numeric))]
	}
	e.root = e.admit(root(x), nil, false)

	for e.round = 1; e.hasWork(); e.round++ {
		if e.round > MaxRounds {
			break
		}
		if err := e.ctx.Err(); err != nil {
			return err
		}
		e.obs.StartRound(e.round)
		if err := e.k.scan(); err != nil {
			return err
		}
		e.snapshotMemory()
		e.finishCollects()
		e.decideScanned()
		e.applyPrune(true)
		e.snapshotMemory()
		if debugValidate {
			e.validate("end of round")
		}
	}
	e.finalizeRemaining()
	e.applyPrune(false)
	return nil
}

// register enters a new building node at the given depth with X-axis x
// (the allowed default when x < 0 and matrices are in use).
func (e *engine[N]) register(n N, depth, x int) N {
	if e.useMats && x < 0 {
		x = e.xDefault()
	}
	c := n.base()
	c.id = int32(len(e.nodes))
	c.tn = &tree.Node{}
	c.depth = depth
	c.state = stBuilding
	c.xAttr = x
	e.nodes = append(e.nodes, n)
	e.all = append(e.all, n)
	e.byTN[c.tn] = n
	return n
}

// admit schedules a registered node: nodes known to be small (counts, when
// given, are their classes) skip the histogram round and go straight to
// record collection — unless allowCollect is false, as for multi-region
// pending children, which must stay histogram-mergeable; every other node
// gets its histograms, filled by the NEXT scan. It must not be decided in
// the round that created it (which can otherwise happen when a failed
// resolution re-decides a node while the current round's decision list is
// already snapshotted).
func (e *engine[N]) admit(n N, counts []int, allowCollect bool) N {
	c := n.base()
	if counts != nil {
		c.tn.SetCounts(counts)
	}
	if allowCollect && e.cfg.InMemoryNodeRecords > 0 && c.depth > 0 && counts != nil &&
		c.tn.N > 0 && c.tn.N <= e.cfg.InMemoryNodeRecords {
		e.markCollect(n)
		return n
	}
	c.histSet = e.makeHists(n)
	c.notBefore = e.round + 1
	e.queueScanned(n)
	return n
}

// makeHists allocates the empty histogram set a building node of n's
// geometry fills during a scan. Parallel scan workers call it again for
// their private shards. CMP-S gets one histogram per attribute; CMP-B/CMP
// get matrices for the numeric attributes (all sharing the node's X-axis)
// and histograms for categorical ones only.
func (e *engine[N]) makeHists(n N) histSet {
	var hs histSet
	hs.hists = make([]*histogram.Hist1D, e.na)
	for a := 0; a < e.na; a++ {
		if e.schema.Attrs[a].Kind == dataset.Categorical {
			hs.hists[a] = histogram.New1D(e.schema.Attrs[a].Cardinality(), e.nc)
		} else if !e.useMats {
			hs.hists[a] = histogram.New1D(n.bins(a), e.nc)
		}
	}
	if !e.useMats {
		return hs
	}
	x := n.base().xAttr
	hs.mats = make([]*histogram.Matrix, e.na)
	for _, y := range e.numeric {
		if y != x {
			hs.mats[y] = histogram.NewMatrix(n.bins(x), n.bins(y), e.nc)
		}
	}
	if e.pairs != nil {
		// Pair matrices feed the oblique line search; the refinement step
		// needs full discretizer resolution or the fitted line's offset
		// error leaves impure children behind.
		hs.pairMats = make([]*histogram.Matrix, len(e.pairs))
		for pi, pr := range e.pairs {
			if pr[0] != x && pr[1] != x { // else already covered by mats
				hs.pairMats[pi] = histogram.NewMatrix(n.bins(pr[0]), n.bins(pr[1]), e.nc)
			}
		}
	}
	return hs
}

func (e *engine[N]) hasWork() bool {
	return len(e.scanned) > 0 || len(e.pendings) > 0 || len(e.collects) > 0
}

// queueScanned enters n into the scanned list exactly once.
func (e *engine[N]) queueScanned(n N) {
	if c := n.base(); !c.queued {
		c.queued = true
		e.scanned = append(e.scanned, n)
	}
}

// markCollect schedules a small node to be finished in memory.
func (e *engine[N]) markCollect(n N) {
	c := n.base()
	c.state = stCollect
	c.collectRound = e.round
	c.dropHists()
	if !c.collectListed {
		c.collectListed = true
		e.collects = append(e.collects, n)
	}
}

// finishScan updates the per-scan counters shared by both kernels' passes.
func (e *engine[N]) finishScan() {
	e.obs.IncScans() // one completed full storage pass
	e.stats.Scans++
	e.stats.Rounds++
	// The paper swaps the nid array to disk: one read and one write of
	// 4 bytes per record per scan.
	e.stats.NidBytesIO += 8 * e.records
}

// observeWorker reports one scan worker's share of a pass to the collector.
func (e *engine[N]) observeWorker(ws storage.WorkerScan) {
	e.obs.AddWorkerScan(ws.Worker, ws.Records, ws.Ns)
}

// mergeShard folds one scan worker's private shard (a node of each touched
// id carrying only histograms and buffer) into the frontier. Callers merge
// shards in worker-index order: histogram merges are commutative sums, and
// buffer appends of contiguous ascending record ranges reproduce the exact
// record order a one-worker pass would have produced.
func (e *engine[N]) mergeShard(shard []N) {
	var none N
	for id, sn := range shard {
		if sn == none {
			continue
		}
		n := e.nodes[id]
		n.base().histSet.merge(&sn.base().histSet)
		n.absorb(sn)
	}
}

// finishCollects completes every collect node whose buffer a scan (and any
// subsequent distribution) has filled, growing the rest of its subtree in
// memory with the kernel's finisher. Each subtree is a pure function of its
// own buffer and writes only node-local state, so ready nodes fan across
// the worker pool.
func (e *engine[N]) finishCollects() {
	span := e.obs.StartSpan(obs.PhaseCollect)
	defer span.End()
	var remaining, ready []N
	for _, n := range e.collects {
		c := n.base()
		if c.dead || c.state != stCollect {
			c.collectListed = false
			continue
		}
		if c.collectRound >= e.round {
			remaining = append(remaining, n)
			continue
		}
		c.collectListed = false
		ready = append(ready, n)
	}
	doParallel(e.cfg.Workers, len(ready), func(i int) {
		n := ready[i]
		c := n.base()
		sub := e.k.finish(n, exact.Config{
			MinSplitRecords: exact.MinSplitRecords,
			MaxDepth:        e.cfg.MaxDepth - c.depth,
			MinGiniGain:     exact.MinGiniGain,
			PurityStop:      e.cfg.PurityStop,
			AllowedAttrs:    e.allowed,
			Prune:           !e.cfg.DisablePruning,
		})
		// Graft in place so the parent's pointer to c.tn stays valid.
		*c.tn = *sub
		n.release()
		c.state = stDone
	})
	e.collects = remaining
}

// finalizeAsLeaf turns a node (in any builder state) into a finished leaf,
// discarding pending machinery and re-aiming descendant node ids so stale
// nid entries still route here. counts, when non-nil, replaces the tree
// node's class distribution.
func (e *engine[N]) finalizeAsLeaf(n N, counts []int) {
	c := n.base()
	if counts != nil {
		c.tn.SetCounts(counts)
	} else if c.tn.ClassCounts == nil {
		c.tn.SetCounts(e.classTotals(n))
	}
	c.tn.Split = nil
	c.tn.Left, c.tn.Right = nil, nil
	for _, ch := range c.children {
		e.retire(ch, n)
	}
	c.children = nil
	n.release()
	c.state = stLeaf
}

// retire marks a subtree of builder nodes dead and re-aims their ids at the
// surviving ancestor.
func (e *engine[N]) retire(n, to N) {
	c := n.base()
	if c.dead {
		return
	}
	c.dead = true
	c.succ = to
	n.release()
	delete(e.byTN, c.tn)
	for _, ch := range c.children {
		e.retire(ch, to)
	}
	c.children = nil
}

// classTotals returns the per-class record counts currently accounted to
// a node: its own histograms if building, its buffer if collecting, or
// (recursively) its children plus its buffer if pending or resolved.
func (e *engine[N]) classTotals(n N) []int {
	c := n.base()
	t := make([]int, e.nc)
	switch c.state {
	case stBuilding:
		for _, m := range c.mats {
			if m != nil {
				return m.ClassTotals()
			}
		}
		for _, h := range c.hists {
			if h != nil {
				return h.ClassTotals()
			}
		}
	case stPending, stResolved:
		for _, ch := range c.children {
			for i, v := range e.classTotals(ch) {
				t[i] += v
			}
		}
		fallthrough
	case stCollect:
		n.countBuffered(t)
		return t
	}
	if c.tn != nil && c.tn.ClassCounts != nil {
		return append([]int(nil), c.tn.ClassCounts...)
	}
	return t
}

// applyPrune runs PUBLIC(1) over the tree built so far, under the prune
// span.
// During construction, frontier nodes (building, pending, collecting) are
// expandable and may be finalized by the lower bound; afterwards a plain
// bottom-up MDL prune runs.
func (e *engine[N]) applyPrune(during bool) {
	if e.cfg.DisablePruning {
		return
	}
	span := e.obs.StartSpan(obs.PhasePrune)
	defer span.End()
	var expandable map[*tree.Node]bool
	if during {
		expandable = make(map[*tree.Node]bool)
		for _, n := range e.all {
			if c := n.base(); !c.dead && (c.state == stBuilding || c.state == stPending || c.state == stCollect) {
				expandable[c.tn] = true
			}
		}
	}
	res := prune.PUBLIC1(&tree.Tree{Root: e.root.base().tn, Schema: e.schema}, expandable)
	for _, set := range []map[*tree.Node]bool{res.Finalized, res.Collapsed} {
		for tn := range set {
			if n, ok := e.byTN[tn]; ok && !n.base().dead {
				e.finalizeAsLeaf(n, nil)
			}
		}
	}
}

// finalizeRemaining closes out any in-flight nodes when the round budget is
// exhausted.
func (e *engine[N]) finalizeRemaining() {
	for _, n := range e.all {
		if c := n.base(); !c.dead && (c.state == stBuilding || c.state == stPending || c.state == stCollect) {
			e.finalizeAsLeaf(n, nil)
		}
	}
	e.scanned, e.pendings, e.collects = nil, nil, nil
}

// snapshotMemory records peak histogram and buffer footprints — the
// quantities Figure 19 charts for CMP.
func (e *engine[N]) snapshotMemory() {
	var hist, buf int64
	for _, n := range e.all {
		if c := n.base(); !c.dead {
			hist += c.histSet.memoryBytes()
			buf += n.bufferBytes()
		}
	}
	e.stats.PeakHistogramBytes = max(e.stats.PeakHistogramBytes, hist)
	e.stats.PeakBufferBytes = max(e.stats.PeakBufferBytes, buf)
	e.stats.PeakMemoryBytes = max(e.stats.PeakMemoryBytes, hist+buf)
}

// debugValidate enables per-round structural invariant checks (tests).
var debugValidate bool

// validate panics when a live node references a dead child or a resolved
// node lacks exactly two children.
func (e *engine[N]) validate(when string) {
	var walk func(n N, path string)
	walk = func(n N, path string) {
		c := n.base()
		if c.dead {
			panic(fmt.Sprintf("core: %s (round %d): dead node id=%d state=%d reachable via %s",
				when, e.round, c.id, c.state, path))
		}
		if c.state == stResolved && (len(c.children) != 2 || c.tn.Split == nil) {
			panic(fmt.Sprintf("core: %s (round %d): resolved node id=%d children=%d split=%v via %s",
				when, e.round, c.id, len(c.children), c.tn.Split, path))
		}
		for i, ch := range c.children {
			walk(ch, fmt.Sprintf("%s->%d[%d]", path, c.id, i))
		}
	}
	walk(e.root, "root")
}
