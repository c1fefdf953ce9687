// Package sprint reimplements the SPRINT classifier (Shafer, Agrawal &
// Mehta, VLDB 1996), the paper's exact baseline. SPRINT pre-sorts each
// continuous attribute once into an attribute list of (value, rid) entries,
// evaluates the gini index at every distinct value, and partitions every
// attribute list at each split by probing a rid hash table — the costly
// materialized-list traffic CMP is designed to avoid.
//
// The lists live in memory here, but every list read and write is metered
// through Stats so experiments can report SPRINT's I/O shape: at every tree
// level the entire set of attribute lists is read and rewritten.
package sprint

import (
	"errors"
	"sort"

	"cmpdt/internal/dataset"
	"cmpdt/internal/gini"
	"cmpdt/internal/prune"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// Config controls a SPRINT build.
type Config struct {
	MinSplitRecords int
	MaxDepth        int
	MinGiniGain     float64
	// PurityStop, when positive, stops splitting nodes whose majority class
	// covers at least this fraction of records.
	PurityStop float64
	Prune      bool
}

// DefaultConfig mirrors the CMP builder's stopping rules.
func DefaultConfig() Config {
	return Config{MinSplitRecords: 2, MaxDepth: 32, MinGiniGain: 1e-4, Prune: true}
}

// listEntrySize models an attribute-list entry on disk: 8-byte value,
// 4-byte rid, 4-byte class label.
const listEntrySize = 16

// Stats reports what a build did.
type Stats struct {
	// Levels is the number of breadth-first levels processed.
	Levels int
	// ListBytesIO counts attribute-list bytes read plus written: each level
	// reads every list once and writes the partitioned lists back.
	ListBytesIO int64
	// HashBytesPeak is the largest rid hash table used during a partition
	// (SPRINT keeps it in memory).
	HashBytesPeak int64
	// PeakMemoryBytes models SPRINT's resident memory: the rid hash plus
	// per-list page buffers.
	PeakMemoryBytes int64
	// SortOps counts the comparisons-dominating initial presort size.
	SortOps int64
}

// Result bundles a finished build.
type Result struct {
	Tree  *tree.Tree
	Stats Stats
	IO    storage.Stats
}

// attrList is one node's list for one attribute: values in sorted order
// (numeric) or arrival order (categorical), with parallel rids.
type attrList struct {
	vals []float64
	rids []int32
}

func (l *attrList) len() int { return len(l.rids) }

func (l *attrList) bytes() int64 { return int64(l.len()) * listEntrySize }

// node is a work item: one tree node plus its attribute lists.
type node struct {
	tn    *tree.Node
	depth int
	lists []attrList
}

// Build trains a SPRINT tree over src. The source is scanned once to load
// and presort the attribute lists; everything after is list traffic,
// metered in Stats.
func Build(src storage.Source, cfg Config) (*Result, error) {
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
	root := node{tn: &tree.Node{}, lists: make([]attrList, na)}
	for a := 0; a < na; a++ {
		root.lists[a] = attrList{
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

	var st Stats
	// Presort the continuous attribute lists once.
	for a := 0; a < na; a++ {
		if schema.Attrs[a].Kind != dataset.Numeric {
			continue
		}
		l := &root.lists[a]
		sort.Stable(&listSorter{l})
		st.SortOps += int64(n)
		st.ListBytesIO += 2 * l.bytes() // read unsorted, write sorted runs
	}

	counts := make([]int, nc)
	for _, l := range labels {
		counts[l]++
	}
	root.tn.SetCounts(append([]int(nil), counts...))

	b := &sprintBuilder{schema: schema, labels: labels, cfg: cfg, nc: nc, st: &st}
	queue := []node{root}
	for len(queue) > 0 {
		st.Levels++
		var next []node
		for _, nd := range queue {
			next = append(next, b.process(nd)...)
		}
		queue = next
	}

	t := &tree.Tree{Root: root.tn, Schema: schema}
	if cfg.Prune {
		prune.PUBLIC1(t, nil)
	}
	st.PeakMemoryBytes = st.HashBytesPeak + int64(na)*4*storage.PageSize
	return &Result{Tree: t, Stats: st, IO: src.Stats()}, nil
}

type listSorter struct{ l *attrList }

func (s *listSorter) Len() int           { return s.l.len() }
func (s *listSorter) Less(i, j int) bool { return s.l.vals[i] < s.l.vals[j] }
func (s *listSorter) Swap(i, j int) {
	s.l.vals[i], s.l.vals[j] = s.l.vals[j], s.l.vals[i]
	s.l.rids[i], s.l.rids[j] = s.l.rids[j], s.l.rids[i]
}

type sprintBuilder struct {
	schema *dataset.Schema
	labels []int32
	cfg    Config
	nc     int
	st     *Stats
}

// process evaluates one node, splits it if worthwhile, and returns the
// child work items.
func (b *sprintBuilder) process(nd node) []node {
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
	left := node{tn: &tree.Node{}, depth: nd.depth + 1, lists: make([]attrList, na)}
	right := node{tn: &tree.Node{}, depth: nd.depth + 1, lists: make([]attrList, na)}
	for a := 0; a < na; a++ {
		src := &nd.lists[a]
		b.st.ListBytesIO += 2 * src.bytes() // read the list, write both halves
		l := attrList{vals: make([]float64, 0, leftN), rids: make([]int32, 0, leftN)}
		r := attrList{vals: make([]float64, 0, rightN), rids: make([]int32, 0, rightN)}
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
	return []node{left, right}
}

// bestThreshold scans numeric attribute list l, sorted by value, for its
// best split: candidates lie between adjacent distinct values, and the
// threshold is their midpoint.
func (b *sprintBuilder) bestThreshold(l *attrList, total []int) (thresh, best float64, ok bool) {
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
func (b *sprintBuilder) bestSplit(nd *node) (tree.Split, float64, bool) {
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
