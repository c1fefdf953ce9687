// Package rainforest reimplements the RF-Hybrid algorithm of the RainForest
// framework (Gehrke, Ramakrishnan & Ganti, VLDB 1998), the paper's fastest
// baseline. RainForest builds, for each tree node, an AVC-group: per
// attribute, the class-count histogram over every *distinct* attribute
// value. When the AVC-groups of all frontier nodes fit in a fixed-size
// buffer, one scan per level suffices and splits are exact; when they do
// not, the level takes additional passes. The paper configures a buffer of
// 2.5 million entries (~20 MB with two classes), which is the memory story
// of Figure 19.
package rainforest

import (
	"errors"
	"fmt"
	"sort"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/gini"
	"cmpdt/internal/prune"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// Config controls an RF-Hybrid build.
type Config struct {
	// BufferEntries is the AVC-group buffer capacity in entries (distinct
	// value x attribute pairs). The paper uses 2.5 million.
	BufferEntries int
	// MinSplitRecords, MaxDepth, MinGiniGain are the shared stopping rules.
	MinSplitRecords int
	MaxDepth        int
	MinGiniGain     float64
	// PurityStop, when positive, stops splitting nodes whose majority class
	// covers at least this fraction of records.
	PurityStop float64
	// InMemoryNodeRecords bottoms out small subtrees in memory, as the
	// other builders do.
	InMemoryNodeRecords int
	// Prune applies MDL pruning to the finished tree.
	Prune bool
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{
		BufferEntries:       2_500_000,
		MinSplitRecords:     2,
		MaxDepth:            32,
		MinGiniGain:         1e-4,
		InMemoryNodeRecords: 4096,
		Prune:               true,
	}
}

// Stats reports what a build did.
type Stats struct {
	// Levels is the number of breadth-first levels processed.
	Levels int
	// ExtraPasses counts additional scans incurred when a level's
	// AVC-groups exceeded the buffer.
	ExtraPasses int
	// AVCEntriesPeak is the largest simultaneous AVC entry population.
	AVCEntriesPeak int64
	// PeakMemoryBytes is the configured buffer footprint (RF-Hybrid
	// reserves it up front): BufferEntries * classes * 4 bytes.
	PeakMemoryBytes int64
	// NidBytesIO models the disk-swapped node-id array.
	NidBytesIO int64
}

// Result bundles a finished build.
type Result struct {
	Tree  *tree.Tree
	Stats Stats
	IO    storage.Stats
}

type rstate int

const (
	rsWaiting rstate = iota // needs an AVC-group fill
	rsFilling               // scheduled in the current pass
	rsCollect               // gathering records for in-memory finishing
	rsResolved
	rsLeaf
	rsDone
)

// avcNumeric is the AVC-set of one numeric attribute: class counts per
// distinct value.
type avcNumeric map[float64][]int

type rnode struct {
	id    int32
	tn    *tree.Node
	depth int
	state rstate

	avcNum  []avcNumeric // per attribute (nil for categorical)
	avcCat  [][][]int    // per attribute: value -> class counts
	entries int64

	estEntries int64 // scheduling estimate before filling

	children []*rnode

	buf struct {
		vals   []float64
		labels []int32
	}
	collectLevel int
}

func (n *rnode) bufLen() int               { return len(n.buf.labels) }
func (n *rnode) bufRow(k, i int) []float64 { return n.buf.vals[i*k : (i+1)*k] }

// rows adapts the collect buffer to exact.Rows.
type rows struct {
	n *rnode
	k int
}

func (r rows) Len() int            { return r.n.bufLen() }
func (r rows) Row(i int) []float64 { return r.n.bufRow(r.k, i) }
func (r rows) Label(i int) int     { return int(r.n.buf.labels[i]) }

// Build trains an RF-Hybrid tree over src.
func Build(src storage.Source, cfg Config) (*Result, error) {
	if cfg.BufferEntries == 0 {
		cfg = DefaultConfig()
	}
	schema := src.Schema()
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if src.NumRecords() == 0 {
		return nil, errors.New("rainforest: empty training set")
	}
	b := &rbuilder{
		cfg:    cfg,
		src:    src,
		schema: schema,
		na:     schema.NumAttrs(),
		nc:     schema.NumClasses(),
		nid:    make([]int32, src.NumRecords()),
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
	b.st.PeakMemoryBytes = int64(cfg.BufferEntries) * int64(b.nc) * 4
	return &Result{Tree: t, Stats: b.st, IO: src.Stats()}, nil
}

type rbuilder struct {
	cfg    Config
	src    storage.Source
	schema *dataset.Schema
	na, nc int

	nid      []int32
	nodes    []*rnode
	all      []*rnode
	collects []*rnode
	root     *rnode
	level    int
	st       Stats
	// checked is set once a pass has validated every record.
	checked bool
}

func (b *rbuilder) newNode(depth int) *rnode {
	n := &rnode{id: int32(len(b.nodes)), tn: &tree.Node{}, depth: depth, state: rsWaiting}
	b.nodes = append(b.nodes, n)
	b.all = append(b.all, n)
	return n
}

func (b *rbuilder) run() error {
	frontier := []*rnode{b.root}
	for iter := 0; iter <= b.cfg.MaxDepth+2 && (len(frontier) > 0 || len(b.collects) > 0); iter++ {
		b.level++
		b.st.Levels++

		// Schedule waiting nodes into buffer-sized batches; each batch is
		// one scan. Collect nodes ride along with the first batch.
		waiting := frontier
		frontier = nil
		first := true
		for len(waiting) > 0 || first {
			var batch []*rnode
			var used int64
			rest := waiting[:0]
			for _, n := range waiting {
				if n.state != rsWaiting {
					continue
				}
				if len(batch) > 0 && used+n.estEntries > int64(b.cfg.BufferEntries) {
					rest = append(rest, n)
					continue
				}
				n.state = rsFilling
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
			if !first {
				b.st.ExtraPasses++
			}
			first = false
			if b.level > 1 {
				b.finishCollects()
			}
			var entries int64
			for _, n := range batch {
				entries += n.entries
			}
			if entries > b.st.AVCEntriesPeak {
				b.st.AVCEntriesPeak = entries
			}
			for _, n := range batch {
				frontier = append(frontier, b.decide(n)...)
			}
		}
	}
	for _, n := range b.all {
		switch n.state {
		case rsWaiting, rsFilling, rsCollect:
			if n.tn.ClassCounts == nil {
				n.tn.SetCounts(make([]int, b.nc))
			}
			n.state = rsLeaf
			n.avcNum, n.avcCat = nil, nil
		}
	}
	return nil
}

func (b *rbuilder) allocAVC(n *rnode) {
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

// fillPass scans the source, accumulating AVC-groups for rsFilling nodes
// and buffering records for rsCollect nodes. The first pass rejects the
// first record Schema.RecordDefect flags; the later ones read the same
// records.
func (b *rbuilder) fillPass() error {
	err := b.src.Scan(func(rid int, vals []float64, label int) error {
		if !b.checked {
			if d := b.schema.RecordDefect(vals, label); d != "" {
				return fmt.Errorf("rainforest: record %d invalid: %s", rid, d)
			}
		}
		n := b.nodes[b.nid[rid]]
		for n.state == rsResolved {
			if n.tn.Split.GoesLeft(vals) {
				n = n.children[0]
			} else {
				n = n.children[1]
			}
		}
		b.nid[rid] = n.id
		switch n.state {
		case rsFilling:
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
		case rsCollect:
			n.buf.vals = append(n.buf.vals, vals...)
			n.buf.labels = append(n.buf.labels, int32(label))
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.checked = true
	b.st.NidBytesIO += 8 * int64(len(b.nid))
	return nil
}

func (b *rbuilder) finishCollects() {
	var remaining []*rnode
	for _, c := range b.collects {
		if c.state != rsCollect {
			continue
		}
		if c.collectLevel >= b.level {
			remaining = append(remaining, c)
			continue
		}
		sub := exact.BuildSubtree(rows{n: c, k: b.na}, b.schema, exact.Config{
			MinSplitRecords: b.cfg.MinSplitRecords,
			MaxDepth:        b.cfg.MaxDepth - c.depth,
			MinGiniGain:     b.cfg.MinGiniGain,
			PurityStop:      b.cfg.PurityStop,
		})
		*c.tn = *sub
		c.buf.vals, c.buf.labels = nil, nil
		c.state = rsDone
	}
	b.collects = remaining
}

// decide evaluates one filled node from its AVC-group and splits it.
func (b *rbuilder) decide(n *rnode) []*rnode {
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
	n.tn.SetCounts(totals)
	release := func() { n.avcNum, n.avcCat = nil, nil }

	if n.tn.Gini == 0 || n.tn.N < b.cfg.MinSplitRecords || n.depth >= b.cfg.MaxDepth ||
		(b.cfg.PurityStop > 0 &&
			float64(n.tn.ClassCounts[n.tn.Class]) >= b.cfg.PurityStop*float64(n.tn.N)) {
		n.state = rsLeaf
		release()
		return nil
	}
	if b.cfg.InMemoryNodeRecords > 0 && n.tn.N <= b.cfg.InMemoryNodeRecords && n.depth > 0 {
		n.state = rsCollect
		n.collectLevel = b.level
		b.collects = append(b.collects, n)
		release()
		return []*rnode{n}
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
		n.state = rsLeaf
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
	n.children = []*rnode{left, right}
	n.state = rsResolved
	return []*rnode{left, right}
}
