package attrlist

// The builders Build replaced, kept as oracles: SPRINT and SLIQ grow their
// trees from materialized, presorted attribute lists, RainForest from
// AVC-groups filled by scans of the source, and each meters its traffic
// as it goes, so they check both Build's trees and its cost walks.

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/gini"
	"cmpdt/internal/prune"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// oracleConfig holds the stopping rules every oracle reads.
type oracleConfig struct {
	MinSplitRecords int
	MaxDepth        int
	MinGiniGain     float64
	PurityStop      float64
	Prune           bool
}

// oracleResult is a finished oracle build.
type oracleResult struct {
	Tree                               *tree.Tree
	Scans, AuxBytesIO, PeakMemoryBytes int64
	// EmptyChild is set when SLIQ or RainForest split a node whose
	// records all went one way, growing a child with no records, where
	// the exact tree keeps a leaf.
	EmptyChild bool
	// Rerouted is set when RainForest split a node at a midpoint that
	// overflowed or rounded onto the upper of its two values, so a child
	// got other records than the AVC counts the split was chosen from gave
	// it. The child's AVC estimate, made from those counts, then differs
	// from Build's, made from the records the midpoint sends there.
	Rerouted bool
}

// ---- SPRINT: every list partitioned and rewritten at each split.

// sprintListEntry models an attribute-list entry on disk: 8-byte value,
// 4-byte rid, 4-byte class label.
const sprintListEntry = 16

// sprintStats is what a SPRINT build metered.
type sprintStats struct {
	// ListBytesIO counts attribute-list bytes read plus written: each level
	// reads every list once and writes the partitioned lists back.
	ListBytesIO int64
	// HashBytesPeak is the largest rid hash table used during a partition
	// (SPRINT keeps it in memory).
	HashBytesPeak int64
}

// sprintList is one node's list for one attribute: values in sorted
// order (numeric) or arrival order (categorical), with parallel rids.
type sprintList struct {
	vals []float64
	rids []int32
}

func (l *sprintList) len() int { return len(l.rids) }

func (l *sprintList) bytes() int64 { return int64(l.len()) * sprintListEntry }

// sprintNode is a work item: one tree node plus its attribute lists.
type sprintNode struct {
	tn    *tree.Node
	depth int
	lists []sprintList
}

// oracleSPRINT trains a SPRINT tree over src. The source is scanned once
// to load and presort the attribute lists; everything after is list
// traffic, metered in sprintStats.
func oracleSPRINT(src storage.Source, cfg oracleConfig) (*oracleResult, error) {
	schema := src.Schema()
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	n := src.NumRecords()
	if n == 0 {
		return nil, errors.New("sprint: empty training set")
	}
	na := schema.NumAttrs()
	nc := schema.NumClasses()

	labels := make([]int32, n)
	root := sprintNode{tn: &tree.Node{}, lists: make([]sprintList, na)}
	for a := 0; a < na; a++ {
		root.lists[a] = sprintList{
			vals: make([]float64, 0, n),
			rids: make([]int32, 0, n),
		}
	}
	err := src.Scan(func(rid int, vals []float64, label int) error {
		labels[rid] = int32(label)
		for a := 0; a < na; a++ {
			root.lists[a].vals = append(root.lists[a].vals, vals[a])
			root.lists[a].rids = append(root.lists[a].rids, int32(rid))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var st sprintStats
	// Presort the continuous attribute lists once.
	for a := 0; a < na; a++ {
		if schema.Attrs[a].Kind != dataset.Numeric {
			continue
		}
		l := &root.lists[a]
		sort.Stable(&sprintSorter{l})
		st.ListBytesIO += 2 * l.bytes() // read unsorted, write sorted runs
	}

	counts := make([]int, nc)
	for _, l := range labels {
		counts[l]++
	}
	root.tn.SetCounts(append([]int(nil), counts...))

	b := &sprintBuilder{schema: schema, labels: labels, cfg: cfg, nc: nc, st: &st}
	queue := []sprintNode{root}
	for len(queue) > 0 {
		var next []sprintNode
		for _, nd := range queue {
			next = append(next, b.process(nd)...)
		}
		queue = next
	}

	t := &tree.Tree{Root: root.tn, Schema: schema}
	if cfg.Prune {
		prune.PUBLIC1(t, nil)
	}
	mem := st.HashBytesPeak + int64(na)*4*storage.PageSize
	return &oracleResult{Tree: t, Scans: 1, AuxBytesIO: st.ListBytesIO, PeakMemoryBytes: mem}, nil
}

type sprintSorter struct{ l *sprintList }

func (s *sprintSorter) Len() int           { return s.l.len() }
func (s *sprintSorter) Less(i, j int) bool { return s.l.vals[i] < s.l.vals[j] }
func (s *sprintSorter) Swap(i, j int) {
	s.l.vals[i], s.l.vals[j] = s.l.vals[j], s.l.vals[i]
	s.l.rids[i], s.l.rids[j] = s.l.rids[j], s.l.rids[i]
}

type sprintBuilder struct {
	schema *dataset.Schema
	labels []int32
	cfg    oracleConfig
	nc     int
	st     *sprintStats
}

// process evaluates one node, splits it if worthwhile, and returns the
// child work items.
func (b *sprintBuilder) process(nd sprintNode) []sprintNode {
	tn := nd.tn
	if tn.Gini == 0 || tn.N < b.cfg.MinSplitRecords || nd.depth >= b.cfg.MaxDepth ||
		(b.cfg.PurityStop > 0 &&
			float64(tn.ClassCounts[tn.Class]) >= b.cfg.PurityStop*float64(tn.N)) {
		return nil
	}

	split, g, ok := b.bestSplit(&nd)
	if !ok || tn.Gini-g < b.cfg.MinGiniGain {
		return nil
	}

	// Build the rid hash for the splitting attribute's list, then partition
	// every attribute list by probing it.
	goesLeft := make(map[int32]bool, tn.N)
	b.st.HashBytesPeak = max(b.st.HashBytesPeak, int64(tn.N)*9) // rid + flag
	sl := &nd.lists[split.Attr]
	for i := 0; i < sl.len(); i++ {
		v := sl.vals[i]
		var left bool
		if split.Kind == tree.SplitNumeric {
			left = v <= split.Threshold
		} else {
			left = split.Subset&(1<<uint(int(v))) != 0
		}
		if left {
			goesLeft[sl.rids[i]] = true
		}
	}

	na := len(nd.lists)
	leftN := len(goesLeft)
	rightN := tn.N - leftN
	if leftN == 0 || rightN == 0 {
		return nil
	}
	left := sprintNode{tn: &tree.Node{}, depth: nd.depth + 1, lists: make([]sprintList, na)}
	right := sprintNode{tn: &tree.Node{}, depth: nd.depth + 1, lists: make([]sprintList, na)}
	for a := 0; a < na; a++ {
		src := &nd.lists[a]
		b.st.ListBytesIO += 2 * src.bytes() // read the list, write both halves
		l := sprintList{vals: make([]float64, 0, leftN), rids: make([]int32, 0, leftN)}
		r := sprintList{vals: make([]float64, 0, rightN), rids: make([]int32, 0, rightN)}
		for i := 0; i < src.len(); i++ {
			if goesLeft[src.rids[i]] {
				l.vals = append(l.vals, src.vals[i])
				l.rids = append(l.rids, src.rids[i])
			} else {
				r.vals = append(r.vals, src.vals[i])
				r.rids = append(r.rids, src.rids[i])
			}
		}
		left.lists[a] = l
		right.lists[a] = r
	}
	nd.lists = nil

	lc := make([]int, b.nc)
	for _, rid := range left.lists[0].rids {
		lc[b.labels[rid]]++
	}
	rc := make([]int, b.nc)
	for i := range tn.ClassCounts {
		rc[i] = tn.ClassCounts[i] - lc[i]
	}
	left.tn.SetCounts(lc)
	right.tn.SetCounts(rc)
	sp := split
	tn.Split = &sp
	tn.Left, tn.Right = left.tn, right.tn
	return []sprintNode{left, right}
}

// bestThreshold scans numeric attribute list l, sorted by value, for its
// best split: candidates lie between adjacent distinct values, and the
// threshold is their midpoint.
func (b *sprintBuilder) bestThreshold(l *sprintList, total []int) (thresh, best float64, ok bool) {
	cum := make([]int, len(total))
	best = 2.0
	for i := 0; i+1 < l.len(); i++ {
		cum[b.labels[l.rids[i]]]++
		if l.vals[i+1] == l.vals[i] {
			continue
		}
		if g := gini.SplitBelow(cum, total); g < best {
			thresh, best, ok = l.vals[i]+(l.vals[i+1]-l.vals[i])/2, g, true
		}
	}
	return thresh, best, ok
}

// bestSplit evaluates every attribute list of the node exactly.
func (b *sprintBuilder) bestSplit(nd *sprintNode) (tree.Split, float64, bool) {
	var best tree.Split
	bestG := 2.0
	found := false
	total := nd.tn.ClassCounts

	for a := range nd.lists {
		l := &nd.lists[a]
		b.st.ListBytesIO += l.bytes() // evaluation pass reads the list
		if b.schema.Attrs[a].Kind == dataset.Categorical {
			card := b.schema.Attrs[a].Cardinality()
			counts := make([][]int, card)
			for v := range counts {
				counts[v] = make([]int, b.nc)
			}
			for i := 0; i < l.len(); i++ {
				counts[int(l.vals[i])][b.labels[l.rids[i]]]++
			}
			if mask, g, ok := gini.BestSubsetSplit(counts); ok && g < bestG {
				bestG = g
				best = tree.Split{Kind: tree.SplitCategorical, Attr: a, Subset: mask}
				found = true
			}
			continue
		}
		if th, g, ok := b.bestThreshold(l, total); ok && g < bestG {
			bestG = g
			best = tree.Split{Kind: tree.SplitNumeric, Attr: a, Threshold: th}
			found = true
		}
	}
	return best, bestG, found
}

// ---- SLIQ: lists read per level, records tracked in a class list.

// sliqListEntry models an attribute-list entry on disk: 8-byte value plus
// 4-byte rid.
const sliqListEntry = 12

// sliqStats is what a SLIQ build metered.
type sliqStats struct {
	// ListBytesIO counts attribute-list bytes read (evaluation passes plus
	// class-list update passes). SLIQ never writes lists back.
	ListBytesIO int64
}

// sliqList is one attribute's pre-sorted list.
type sliqList struct {
	vals []float64
	rids []int32
}

// sliqLeafState is the per-leaf evaluation state while one attribute list
// streams by.
type sliqLeafState struct {
	cum     []int
	prev    float64
	started bool
	bestG   float64
	bestTh  float64
	found   bool
}

// sliqNode is one tree node plus SLIQ bookkeeping.
type sliqNode struct {
	tn     *tree.Node
	depth  int
	active bool
	// chosen split for this level, applied during the update pass.
	split     *tree.Split
	leftLeaf  int32
	rightLeaf int32
	// per-level best across attributes.
	bestG     float64
	bestSplit tree.Split
	bestFound bool
}

// oracleSLIQ trains a SLIQ tree over src.
func oracleSLIQ(src storage.Source, cfg oracleConfig) (*oracleResult, error) {
	schema := src.Schema()
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	n := src.NumRecords()
	if n == 0 {
		return nil, errors.New("sliq: empty training set")
	}
	na := schema.NumAttrs()
	nc := schema.NumClasses()

	labels := make([]int32, n)
	leafOf := make([]int32, n)
	lists := make([]sliqList, na)
	for a := 0; a < na; a++ {
		lists[a] = sliqList{vals: make([]float64, 0, n), rids: make([]int32, 0, n)}
	}
	err := src.Scan(func(rid int, vals []float64, label int) error {
		labels[rid] = int32(label)
		for a := 0; a < na; a++ {
			lists[a].vals = append(lists[a].vals, vals[a])
			lists[a].rids = append(lists[a].rids, int32(rid))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var st sliqStats
	for a := 0; a < na; a++ {
		if schema.Attrs[a].Kind != dataset.Numeric {
			continue
		}
		l := &lists[a]
		sort.Stable(&sliqSorter{l})
		st.ListBytesIO += 2 * int64(n) * sliqListEntry // read raw, write sorted
	}

	b := &sliqBuilder{
		schema: schema, cfg: cfg, nc: nc,
		labels: labels, leafOf: leafOf, lists: lists, st: &st,
	}
	rootCounts := make([]int, nc)
	for _, l := range labels {
		rootCounts[l]++
	}
	root := b.newNode(0)
	root.tn.SetCounts(rootCounts)

	for level := 0; level < cfg.MaxDepth; level++ {
		if !b.anyActive() {
			break
		}
		b.evaluateLevel()
		if !b.applySplits() {
			break
		}
	}
	for _, nd := range b.nodes {
		nd.active = false
	}

	t := &tree.Tree{Root: root.tn, Schema: schema}
	if cfg.Prune {
		prune.PUBLIC1(t, nil)
	}
	// The class list, 8 bytes per record, plus per-leaf evaluation state.
	mem := int64(n)*8 + int64(len(b.nodes))*int64(nc)*16
	return &oracleResult{Tree: t, Scans: 1, AuxBytesIO: st.ListBytesIO, PeakMemoryBytes: mem, EmptyChild: b.emptyChild}, nil
}

type sliqSorter struct{ l *sliqList }

func (s *sliqSorter) Len() int           { return len(s.l.rids) }
func (s *sliqSorter) Less(i, j int) bool { return s.l.vals[i] < s.l.vals[j] }
func (s *sliqSorter) Swap(i, j int) {
	s.l.vals[i], s.l.vals[j] = s.l.vals[j], s.l.vals[i]
	s.l.rids[i], s.l.rids[j] = s.l.rids[j], s.l.rids[i]
}

type sliqBuilder struct {
	schema *dataset.Schema
	cfg    oracleConfig
	nc     int
	labels []int32
	leafOf []int32
	lists  []sliqList
	nodes  []*sliqNode
	st     *sliqStats
	// emptyChild is set once a split sends every record one way.
	emptyChild bool
}

func (b *sliqBuilder) newNode(depth int) *sliqNode {
	nd := &sliqNode{tn: &tree.Node{}, depth: depth, active: true}
	b.nodes = append(b.nodes, nd)
	return nd
}

func (b *sliqBuilder) anyActive() bool {
	for _, nd := range b.nodes {
		if nd.active {
			return true
		}
	}
	return false
}

// evaluateLevel streams every attribute list once, maintaining per-leaf
// cumulative histograms and candidate splits for all active leaves at once
// — SLIQ's breadth-first trick.
func (b *sliqBuilder) evaluateLevel() {
	for _, nd := range b.nodes {
		if nd.active {
			nd.bestG = 2.0
			nd.bestFound = false
		}
	}
	for a := range b.lists {
		b.st.ListBytesIO += int64(len(b.lists[a].rids)) * sliqListEntry
		if b.schema.Attrs[a].Kind == dataset.Categorical {
			b.evaluateCategorical(a)
		} else {
			b.evaluateNumeric(a)
		}
	}
}

func (b *sliqBuilder) evaluateNumeric(a int) {
	l := &b.lists[a]
	states := make(map[int32]*sliqLeafState)
	state := func(leaf int32) *sliqLeafState {
		s := states[leaf]
		if s == nil {
			s = &sliqLeafState{cum: make([]int, b.nc), bestG: 2.0}
			states[leaf] = s
		}
		return s
	}
	for i := range l.rids {
		rid := l.rids[i]
		leaf := b.leafOf[rid]
		nd := b.nodes[leaf]
		if !nd.active {
			continue
		}
		v := l.vals[i]
		s := state(leaf)
		if s.started && v != s.prev {
			// A candidate position between the previous distinct value and
			// this one.
			if g := gini.SplitBelow(s.cum, nd.tn.ClassCounts); g < s.bestG {
				s.bestG = g
				s.bestTh = s.prev + (v-s.prev)/2
				s.found = true
			}
		}
		s.cum[b.labels[rid]]++
		s.prev = v
		s.started = true
	}
	for leaf, s := range states {
		nd := b.nodes[leaf]
		if !s.found {
			continue
		}
		if s.bestG < nd.bestG {
			nd.bestG = s.bestG
			nd.bestSplit = tree.Split{Kind: tree.SplitNumeric, Attr: a, Threshold: s.bestTh}
			nd.bestFound = true
		}
	}
}

func (b *sliqBuilder) evaluateCategorical(a int) {
	l := &b.lists[a]
	card := b.schema.Attrs[a].Cardinality()
	counts := make(map[int32][][]int)
	for i := range l.rids {
		rid := l.rids[i]
		leaf := b.leafOf[rid]
		nd := b.nodes[leaf]
		if !nd.active {
			continue
		}
		m := counts[leaf]
		if m == nil {
			m = make([][]int, card)
			for v := range m {
				m[v] = make([]int, b.nc)
			}
			counts[leaf] = m
		}
		m[int(l.vals[i])][b.labels[rid]]++
	}
	for leaf, m := range counts {
		nd := b.nodes[leaf]
		if mask, g, ok := gini.BestSubsetSplit(m); ok && g < nd.bestG {
			nd.bestG = g
			nd.bestSplit = tree.Split{Kind: tree.SplitCategorical, Attr: a, Subset: mask}
			nd.bestFound = true
		}
	}
}

// applySplits installs each active leaf's best split (subject to the
// stopping rules) and updates the class list with one pass over the chosen
// attributes' lists. Returns false if nothing split.
func (b *sliqBuilder) applySplits() bool {
	splitAttrs := make(map[int]bool)
	anySplit := false
	for _, nd := range b.nodes {
		if !nd.active {
			continue
		}
		tn := nd.tn
		stop := tn.Gini == 0 || tn.N < b.cfg.MinSplitRecords || nd.depth >= b.cfg.MaxDepth ||
			(b.cfg.PurityStop > 0 &&
				float64(tn.ClassCounts[tn.Class]) >= b.cfg.PurityStop*float64(tn.N))
		if stop || !nd.bestFound || tn.Gini-nd.bestG < b.cfg.MinGiniGain {
			nd.active = false
			continue
		}
		left := b.newNode(nd.depth + 1)
		right := b.newNode(nd.depth + 1)
		sp := nd.bestSplit
		nd.split = &sp
		nd.leftLeaf = int32(len(b.nodes) - 2)
		nd.rightLeaf = int32(len(b.nodes) - 1)
		tn.Split = &sp
		tn.Left, tn.Right = left.tn, right.tn
		nd.active = false
		splitAttrs[sp.Attr] = true
		anySplit = true
	}
	if !anySplit {
		return false
	}

	// Update pass: re-read the splitting attributes' lists and move each
	// record to its child leaf.
	leftCounts := make(map[int32][]int)
	for a := range splitAttrs {
		b.st.ListBytesIO += int64(len(b.lists[a].rids)) * sliqListEntry
		l := &b.lists[a]
		for i := range l.rids {
			rid := l.rids[i]
			nd := b.nodes[b.leafOf[rid]]
			if nd.split == nil || nd.split.Attr != a {
				continue
			}
			v, sp := l.vals[i], nd.split
			left := v <= sp.Threshold
			if sp.Kind == tree.SplitCategorical {
				left = sp.Subset&(1<<uint(int(v))) != 0
			}
			child := nd.rightLeaf
			if left {
				child = nd.leftLeaf
			}
			b.leafOf[rid] = child
			lc := leftCounts[child]
			if lc == nil {
				lc = make([]int, b.nc)
				leftCounts[child] = lc
			}
			lc[b.labels[rid]]++
		}
	}
	for leaf, counts := range leftCounts {
		b.nodes[leaf].tn.SetCounts(counts)
	}
	for _, nd := range b.nodes {
		if nd.split != nil && (leftCounts[nd.leftLeaf] == nil || leftCounts[nd.rightLeaf] == nil) {
			b.emptyChild = true
		}
	}
	// Clear the applied splits so later update passes don't re-route.
	for _, nd := range b.nodes {
		nd.split = nil
	}
	return true
}

// ---- RainForest: AVC-groups filled level by level into a fixed buffer.

type avcState int

const (
	avcWaiting avcState = iota // needs an AVC-group fill
	avcFilling                 // scheduled in the current pass
	avcCollect                 // gathering records for in-memory finishing
	avcResolved
	avcLeaf
	avcDone
)

// avcNumeric is the AVC-set of one numeric attribute: class counts per
// distinct value.
type avcNumeric map[float64][]int

type avcNode struct {
	id    int32
	tn    *tree.Node
	depth int
	state avcState

	avcNum  []avcNumeric // per attribute (nil for categorical)
	avcCat  [][][]int    // per attribute: value -> class counts
	entries int64

	estEntries int64 // scheduling estimate before filling

	children []*avcNode

	buf struct {
		vals   []float64
		labels []int32
	}
	collectLevel int
}

func (n *avcNode) bufLen() int               { return len(n.buf.labels) }
func (n *avcNode) bufRow(k, i int) []float64 { return n.buf.vals[i*k : (i+1)*k] }

// rows adapts the collect buffer to exact.Rows.
type avcRows struct {
	n *avcNode
	k int
}

func (r avcRows) Len() int            { return r.n.bufLen() }
func (r avcRows) Row(i int) []float64 { return r.n.bufRow(r.k, i) }
func (r avcRows) Label(i int) int     { return int(r.n.buf.labels[i]) }

// oracleRainForest trains an RF-Hybrid tree over src with a buffer of
// bufferEntries AVC entries, collecting nodes of at most inMemory records
// below the root for in-memory finishing.
func oracleRainForest(src storage.Source, cfg oracleConfig, bufferEntries, inMemory int) (*oracleResult, error) {
	schema := src.Schema()
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if src.NumRecords() == 0 {
		return nil, errors.New("rainforest: empty training set")
	}
	b := &avcBuilder{
		cfg:      cfg,
		buffer:   bufferEntries,
		inMemory: inMemory,
		src:      src,
		schema:   schema,
		na:       schema.NumAttrs(),
		nc:       schema.NumClasses(),
		nid:      make([]int32, src.NumRecords()),
	}
	b.root = b.newNode(0)
	b.root.estEntries = int64(src.NumRecords()) * int64(b.na)
	if err := b.run(); err != nil {
		return nil, err
	}
	t := &tree.Tree{Root: b.root.tn, Schema: schema}
	if cfg.Prune {
		prune.PUBLIC1(t, nil)
	}
	return &oracleResult{
		Tree: t, Scans: src.Stats().Scans, AuxBytesIO: b.nidBytesIO,
		PeakMemoryBytes: int64(bufferEntries) * int64(b.nc) * 4, Rerouted: b.rerouted, EmptyChild: b.emptyChild,
	}, nil
}

type avcBuilder struct {
	cfg      oracleConfig
	buffer   int
	inMemory int
	src      storage.Source
	schema   *dataset.Schema
	na, nc   int

	nid      []int32
	nodes    []*avcNode
	all      []*avcNode
	collects []*avcNode
	root     *avcNode
	level    int
	// nidBytesIO models the disk-swapped node-id array.
	nidBytesIO int64
	// rerouted is set when a node's records differ from the AVC counts
	// its parent's split was chosen from, emptyChild when it has none.
	rerouted, emptyChild bool
	// checked is set once a pass has validated every record.
	checked bool
}

func (b *avcBuilder) newNode(depth int) *avcNode {
	n := &avcNode{id: int32(len(b.nodes)), tn: &tree.Node{}, depth: depth, state: avcWaiting}
	b.nodes = append(b.nodes, n)
	b.all = append(b.all, n)
	return n
}

func (b *avcBuilder) run() error {
	frontier := []*avcNode{b.root}
	for iter := 0; iter <= b.cfg.MaxDepth+2 && (len(frontier) > 0 || len(b.collects) > 0); iter++ {
		b.level++

		// Schedule waiting nodes into buffer-sized batches; each batch is
		// one scan. Collect nodes ride along with the first batch.
		waiting := frontier
		frontier = nil
		first := true
		for len(waiting) > 0 || first {
			var batch []*avcNode
			var used int64
			rest := waiting[:0]
			for _, n := range waiting {
				if n.state != avcWaiting {
					continue
				}
				if len(batch) > 0 && used+n.estEntries > int64(b.buffer) {
					rest = append(rest, n)
					continue
				}
				n.state = avcFilling
				b.allocAVC(n)
				batch = append(batch, n)
				used += n.estEntries
			}
			waiting = rest
			if len(batch) == 0 && !first {
				break
			}
			if err := b.fillPass(); err != nil {
				return err
			}
			first = false
			if b.level > 1 {
				b.finishCollects()
			}
			for _, n := range batch {
				frontier = append(frontier, b.decide(n)...)
			}
		}
	}
	for _, n := range b.all {
		switch n.state {
		case avcWaiting, avcFilling, avcCollect:
			if n.tn.ClassCounts == nil {
				n.tn.SetCounts(make([]int, b.nc))
			}
			n.state = avcLeaf
			n.avcNum, n.avcCat = nil, nil
		}
	}
	return nil
}

func (b *avcBuilder) allocAVC(n *avcNode) {
	n.avcNum = make([]avcNumeric, b.na)
	n.avcCat = make([][][]int, b.na)
	for a := 0; a < b.na; a++ {
		if b.schema.Attrs[a].Kind == dataset.Categorical {
			vals := make([][]int, b.schema.Attrs[a].Cardinality())
			for v := range vals {
				vals[v] = make([]int, b.nc)
			}
			n.avcCat[a] = vals
			n.entries += int64(len(vals))
		} else {
			n.avcNum[a] = make(avcNumeric)
		}
	}
}

// fillPass scans the source, accumulating AVC-groups for avcFilling nodes
// and buffering records for the avcCollect nodes of earlier levels. The
// first pass rejects the first record Schema.RecordDefect flags; the later
// ones read the same records.
func (b *avcBuilder) fillPass() error {
	err := b.src.Scan(func(rid int, vals []float64, label int) error {
		if !b.checked {
			if d := b.schema.RecordDefect(vals, label); d != "" {
				return fmt.Errorf("rainforest: record %d invalid: %s", rid, d)
			}
		}
		n := b.nodes[b.nid[rid]]
		for n.state == avcResolved {
			if n.tn.Split.GoesLeft(vals) {
				n = n.children[0]
			} else {
				n = n.children[1]
			}
		}
		b.nid[rid] = n.id
		switch n.state {
		case avcFilling:
			for a := 0; a < b.na; a++ {
				if cat := n.avcCat[a]; cat != nil {
					cat[int(vals[a])][label]++
					continue
				}
				counts := n.avcNum[a][vals[a]]
				if counts == nil {
					counts = make([]int, b.nc)
					n.avcNum[a][vals[a]] = counts
					n.entries++
				}
				counts[label]++
			}
		case avcCollect:
			// A node collected after an earlier scan of this level waits
			// for the next level's first scan: buffering it in this one
			// too would hand its finisher every record twice.
			if n.collectLevel == b.level {
				break
			}
			n.buf.vals = append(n.buf.vals, vals...)
			n.buf.labels = append(n.buf.labels, int32(label))
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.checked = true
	b.nidBytesIO += 8 * int64(len(b.nid))
	return nil
}

func (b *avcBuilder) finishCollects() {
	var remaining []*avcNode
	for _, c := range b.collects {
		if c.state != avcCollect {
			continue
		}
		if c.collectLevel >= b.level {
			remaining = append(remaining, c)
			continue
		}
		sub := exact.BuildSubtree(avcRows{n: c, k: b.na}, b.schema, exact.Config{
			MinSplitRecords: b.cfg.MinSplitRecords,
			MaxDepth:        b.cfg.MaxDepth - c.depth,
			MinGiniGain:     b.cfg.MinGiniGain,
			PurityStop:      b.cfg.PurityStop,
		})
		*c.tn = *sub
		c.buf.vals, c.buf.labels = nil, nil
		c.state = avcDone
	}
	b.collects = remaining
}

// decide evaluates one filled node from its AVC-group and splits it.
func (b *avcBuilder) decide(n *avcNode) []*avcNode {
	totals := make([]int, b.nc)
	for a := 0; a < b.na; a++ {
		if cat := n.avcCat[a]; cat != nil {
			for _, counts := range cat {
				for c, k := range counts {
					totals[c] += k
				}
			}
		} else {
			for _, counts := range n.avcNum[a] {
				for c, k := range counts {
					totals[c] += k
				}
			}
		}
		break
	}
	if n != b.root && !slices.Equal(n.tn.ClassCounts, totals) {
		b.rerouted = true
	}
	n.tn.SetCounts(totals)
	if n.tn.N == 0 {
		b.emptyChild = true
	}
	release := func() { n.avcNum, n.avcCat = nil, nil }

	if n.tn.Gini == 0 || n.tn.N < b.cfg.MinSplitRecords || n.depth >= b.cfg.MaxDepth ||
		(b.cfg.PurityStop > 0 &&
			float64(n.tn.ClassCounts[n.tn.Class]) >= b.cfg.PurityStop*float64(n.tn.N)) {
		n.state = avcLeaf
		release()
		return nil
	}
	if b.inMemory > 0 && n.tn.N <= b.inMemory && n.depth > 0 {
		n.state = avcCollect
		n.collectLevel = b.level
		b.collects = append(b.collects, n)
		release()
		return []*avcNode{n}
	}

	var best tree.Split
	bestG := 2.0
	var bestLeft []int
	found := false
	for a := 0; a < b.na; a++ {
		if cat := n.avcCat[a]; cat != nil {
			if mask, g, ok := gini.BestSubsetSplit(cat); ok && g < bestG {
				bestG = g
				best = tree.Split{Kind: tree.SplitCategorical, Attr: a, Subset: mask}
				lc := make([]int, b.nc)
				for v, counts := range cat {
					if mask&(1<<uint(v)) != 0 {
						for c, k := range counts {
							lc[c] += k
						}
					}
				}
				bestLeft = lc
				found = true
			}
			continue
		}
		avc := n.avcNum[a]
		if len(avc) < 2 {
			continue
		}
		vals := make([]float64, 0, len(avc))
		for v := range avc {
			vals = append(vals, v)
		}
		sort.Float64s(vals)
		cum := make([]int, b.nc)
		cn := 0
		for i, v := range vals[:len(vals)-1] {
			for c, k := range avc[v] {
				cum[c] += k
				cn += k
			}
			if cn == 0 || cn == n.tn.N {
				continue
			}
			if g := gini.SplitBelow(cum, totals); g < bestG {
				bestG = g
				best = tree.Split{Kind: tree.SplitNumeric, Attr: a,
					Threshold: v + (vals[i+1]-v)/2}
				bestLeft = append([]int(nil), cum...)
				found = true
			}
		}
	}
	release()
	if !found || n.tn.Gini-bestG < b.cfg.MinGiniGain {
		n.state = avcLeaf
		return nil
	}

	rc := make([]int, b.nc)
	for i := range rc {
		rc[i] = totals[i] - bestLeft[i]
	}
	left := b.newNode(n.depth + 1)
	right := b.newNode(n.depth + 1)
	left.tn.SetCounts(bestLeft)
	right.tn.SetCounts(rc)
	// A child's AVC-group has at most one entry per record per attribute,
	// and no more entries than the parent's.
	left.estEntries = min(int64(left.tn.N)*int64(b.na), n.entries)
	right.estEntries = min(int64(right.tn.N)*int64(b.na), n.entries)
	sp := best
	n.tn.Split = &sp
	n.tn.Left, n.tn.Right = left.tn, right.tn
	n.children = []*avcNode{left, right}
	n.state = avcResolved
	return []*avcNode{left, right}
}
