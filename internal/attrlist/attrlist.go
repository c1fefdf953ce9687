// Package attrlist prices the paper's three exact comparators: SPRINT
// (Shafer, Agrawal & Mehta, VLDB 1996), SLIQ (Mehta, Agrawal & Rissanen,
// EDBT 1996) and RainForest's RF-Hybrid (Gehrke, Ramakrishnan & Ganti,
// VLDB 1998). All three evaluate the gini index at every distinct value, so
// all three grow the exact tree: the one exact.BuildTable grows over the
// same records under the same stopping rules. They differ only in how a
// node's class counts reach memory, and so in the traffic and memory each
// is charged:
//
//   - SPRINT presorts one (value, rid) attribute list per attribute and
//     partitions every list between the children at each split, probing a
//     rid hash built from the splitting attribute's list, and writes both
//     halves back.
//   - SLIQ never rewrites its lists. An in-memory class list maps every
//     record to its class and current leaf; each tree level reads every
//     list once to evaluate all of the level's leaves, then re-reads the
//     splitting attributes' lists to move records to their children.
//   - RainForest keeps no lists. Each level scans the source to fill the
//     AVC-groups (per attribute, class counts per distinct value) of the
//     nodes it evaluates, as many at a time as its fixed AVC buffer holds;
//     a level whose groups overflow the buffer takes extra scans. A small
//     node is collected in a scan and finished in memory.
//
// Build grows the exact tree once and walks it to charge the layout's
// traffic, so the tree is exact's and the figures are the layout's.
package attrlist

import (
	"errors"
	"fmt"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/prune"
	"cmpdt/internal/quantile"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// Layout is the cost policy of one comparator.
type Layout struct {
	kind layoutKind
	// RainForest's: nodes of at most inMemory records below the root are
	// finished in memory, and buffer is the AVC buffer in entries.
	inMemory int
	buffer   int64
}

type layoutKind int

const (
	sprint layoutKind = iota + 1
	sliq
	rainForest
)

// The attribute-list layouts.
var (
	SPRINT = Layout{kind: sprint}
	SLIQ   = Layout{kind: sliq}
)

// avcBuffer is RF-Hybrid's AVC buffer in entries, the paper's 2.5 million
// (~20 MB with two classes).
const avcBuffer = 2_500_000

// RainForest is RF-Hybrid's layout over the paper's AVC buffer. A node of
// at most inMemoryNodeRecords records below the root is collected during
// the next level's first scan and finished in memory; 0 collects none.
func RainForest(inMemoryNodeRecords int) Layout {
	return Layout{kind: rainForest, inMemory: inMemoryNodeRecords, buffer: avcBuffer}
}

// An attribute-list entry on disk is an 8-byte value and a 4-byte rid;
// SPRINT's entry also carries the 4-byte class label, which SLIQ keeps in
// its class list instead.
const (
	sprintEntry = 16
	sliqEntry   = 12
)

// Result is a finished build.
type Result struct {
	Tree *tree.Tree
	// Scans is the number of times the layout reads the source: once to
	// load it, and for RainForest once per scan of its schedule.
	Scans int64
	// AuxBytesIO is the traffic beyond the source scans: the attribute-list
	// bytes read plus written, or RainForest's swapped node-id array.
	AuxBytesIO int64
	// PeakMemoryBytes is the layout's resident memory.
	PeakMemoryBytes int64
}

// Build scans src once, grows the exact tree under cfg's stopping rules,
// charges it the layout's traffic and memory, and prunes it with
// prune.PUBLIC1 when cfg.Prune is set. A record Schema.RecordDefect flags
// fails the build with an error naming it.
func Build(src storage.Source, cfg exact.Config, layout Layout) (*Result, error) {
	if layout.kind < sprint || layout.kind > rainForest {
		return nil, fmt.Errorf("attrlist: unknown layout %d", layout.kind)
	}
	tbl, err := load(src)
	if err != nil {
		return nil, err
	}
	pruned := cfg.Prune
	cfg.Prune = false // the layout is charged for the full tree
	res := &Result{Tree: exact.BuildTable(tbl, cfg), Scans: 1}
	switch layout.kind {
	case sprint:
		res.AuxBytesIO, res.PeakMemoryBytes = sprintCost(tbl, res.Tree, cfg)
	case sliq:
		res.AuxBytesIO, res.PeakMemoryBytes = sliqCost(tbl, res.Tree, cfg)
	default:
		res.Scans, res.AuxBytesIO, res.PeakMemoryBytes = layout.rainForestCost(tbl, res.Tree, cfg)
	}
	if pruned {
		prune.PUBLIC1(res.Tree, nil)
	}
	return res, nil
}

// load scans src into a table, rejecting the first record
// Schema.RecordDefect flags.
func load(src storage.Source) (*dataset.Table, error) {
	schema := src.Schema()
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if src.NumRecords() == 0 {
		return nil, errors.New("attrlist: empty training set")
	}
	tbl, err := dataset.New(schema)
	if err != nil {
		return nil, err
	}
	err = src.Scan(func(rid int, vals []float64, label int) error {
		if d := schema.RecordDefect(vals, label); d != "" {
			return fmt.Errorf("attrlist: record %d invalid: %s", rid, d)
		}
		return tbl.Append(vals, label)
	})
	return tbl, err
}

// presortBytes is the presort's traffic: every numeric attribute's list
// read unsorted and written sorted once.
func presortBytes(schema *dataset.Schema, n, entry int64) int64 {
	return 2 * n * entry * int64(len(schema.NumericAttrs()))
}

// sprintCost charges SPRINT's traffic over t, the full tree: the presort;
// every node the stopping rules let search reads its lists to evaluate
// them; every split node reads them again and writes both children's
// halves. Resident are four page buffers per list and the largest rid
// hash, 9 bytes (rid and flag) per record of the largest node hashed: the
// root's, whenever the root hashes.
func sprintCost(tbl *dataset.Table, t *tree.Tree, cfg exact.Config) (io, mem int64) {
	schema := tbl.Schema()
	n, na := int64(tbl.NumRecords()), int64(schema.NumAttrs())
	io = presortBytes(schema, n, sprintEntry)
	t.Walk(func(nd *tree.Node, depth int) {
		if cfg.Stops(nd, depth) {
			return
		}
		lists := na * int64(nd.N) * sprintEntry
		io += lists
		if !nd.IsLeaf() {
			io += 2 * lists
		}
	})
	mem = na * 4 * storage.PageSize
	if !t.Root.IsLeaf() || degenerateRoot(tbl, t, cfg) {
		mem += 9 * n
	}
	return io, mem
}

// degenerateRoot reports whether t's root is a leaf whose best split
// clears the gain bar yet sends every record one way, because the midpoint
// of its two values overflows or rounds onto the upper one. SPRINT
// builds the rid hash for such a split before it finds one side empty; the
// exact tree keeps the node a leaf. Below the root the hash is never the
// largest, since the parent's is bigger.
func degenerateRoot(tbl *dataset.Table, t *tree.Tree, cfg exact.Config) bool {
	root := t.Root
	if !root.IsLeaf() || cfg.Stops(root, 0) {
		return false
	}
	_, g, ok := exact.BestSplit(exact.TableRows(tbl), tbl.Schema())
	return ok && root.Gini-g >= cfg.MinGiniGain
}

// sliqCost charges SLIQ's traffic over t, the full tree: the presort;
// every level reads all lists once, levels running until one splits
// nothing and at most MaxDepth of them; every level re-reads the list of
// each distinct attribute its nodes split on. Resident are the class list,
// 8 bytes per record, and nc 16-byte class counters per node.
func sliqCost(tbl *dataset.Table, t *tree.Tree, cfg exact.Config) (io, mem int64) {
	schema := tbl.Schema()
	n, na := int64(tbl.NumRecords()), int64(schema.NumAttrs())
	levels := int64(min(t.Depth()+1, cfg.MaxDepth))
	io = presortBytes(schema, n, sliqEntry) + levels*na*n*sliqEntry
	updates := map[[2]int]bool{} // the (level, attribute) lists re-read
	t.Walk(func(nd *tree.Node, depth int) {
		if !nd.IsLeaf() {
			updates[[2]int{depth, nd.Split.Attr}] = true
		}
	})
	io += int64(len(updates)) * n * sliqEntry
	mem = 8*n + int64(t.Size()*schema.NumClasses())*16
	return io, mem
}

// rfNode is a node of RainForest's frontier: its records and the AVC
// entries its group was scheduled with.
type rfNode struct {
	nd    *tree.Node
	depth int
	rows  []int32
	est   int64
}

// rainForestCost charges RF-Hybrid's schedule over t, the full tree. Each
// level packs its frontier, in order, into batches whose estimated AVC
// entries fit the buffer (a batch holds at least one node), and scans the
// source once per batch. A child's estimate is one entry per record per
// attribute, capped by its parent's entries (the root's: n·na); a filled
// node's entries are the distinct values (by ==) of each numeric
// attribute among its records plus each categorical domain. A node the
// stopping rules leave unsplit is a leaf; one of at most inMemory records
// below the root is collected during the next level's first scan, which
// runs even when nothing else is left to fill. Every scan reads and writes
// the 4-byte node id of every record; resident is the whole buffer, four
// bytes per entry and class.
func (l Layout) rainForestCost(tbl *dataset.Table, t *tree.Tree, cfg exact.Config) (scans, io, mem int64) {
	schema := tbl.Schema()
	n, na := tbl.NumRecords(), int64(schema.NumAttrs())
	avc := newAVCCounter(tbl)
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	frontier := []rfNode{{nd: t.Root, rows: rows, est: int64(n) * na}}
	for collected := false; len(frontier) > 0 || collected; {
		var next []rfNode
		waiting := frontier
		collected = false
		for first := true; first || len(waiting) > 0; first = false {
			scans++
			var used int64
			var rest []rfNode
			for i, w := range waiting {
				if i > 0 && used+w.est > l.buffer {
					rest = append(rest, w)
					continue
				}
				used += w.est
				switch {
				case cfg.Stops(w.nd, w.depth):
				case l.inMemory > 0 && w.nd.N <= l.inMemory && w.depth > 0:
					collected = true
				case !w.nd.IsLeaf():
					next = append(next, children(w, avc.entries(w.rows), tbl, na)...)
				}
			}
			waiting = rest
		}
		frontier = next
	}
	return scans, 8 * int64(n) * scans, l.buffer * int64(schema.NumClasses()) * 4
}

// children routes w's records to its children and returns them, each
// estimated at one entry per record per attribute, capped at entries.
func children(w rfNode, entries int64, tbl *dataset.Table, na int64) []rfNode {
	k := 0
	for i, r := range w.rows {
		if w.nd.Split.GoesLeft(tbl.Row(int(r))) {
			w.rows[i], w.rows[k] = w.rows[k], r
			k++
		}
	}
	child := func(nd *tree.Node, rows []int32) rfNode {
		return rfNode{nd: nd, depth: w.depth + 1, rows: rows, est: min(int64(len(rows))*na, entries)}
	}
	return []rfNode{child(w.nd.Left, w.rows[:k]), child(w.nd.Right, w.rows[k:])}
}

// avcCounter counts the AVC entries of a node's group.
type avcCounter struct {
	schema *dataset.Schema
	// rank[a][i] numbers record i's value of numeric attribute a among
	// the attribute's distinct values; nil for a categorical attribute.
	rank [][]int32
	// seen[v] is the stamp of the last count that met rank v; each count
	// takes a new stamp.
	seen  []int32
	stamp int32
}

func newAVCCounter(tbl *dataset.Table) *avcCounter {
	schema := tbl.Schema()
	n := tbl.NumRecords()
	c := &avcCounter{schema: schema, rank: make([][]int32, schema.NumAttrs()), seen: make([]int32, n)}
	type valueRow struct {
		v   float64
		row int32
	}
	pairs, scratch := make([]valueRow, n), make([]valueRow, n)
	for _, a := range schema.NumericAttrs() {
		for i := range pairs {
			pairs[i] = valueRow{tbl.Row(i)[a], int32(i)}
		}
		rank := make([]int32, n)
		r := int32(-1)
		var last float64
		for i, p := range quantile.RadixSort(pairs, scratch, func(p valueRow) float64 { return p.v }) {
			if i == 0 || p.v != last {
				r, last = r+1, p.v
			}
			rank[p.row] = r
		}
		c.rank[a] = rank
	}
	return c
}

// entries returns the AVC entries of the group over rows.
func (c *avcCounter) entries(rows []int32) int64 {
	var e int64
	for a, rank := range c.rank {
		if rank == nil {
			e += int64(c.schema.Attrs[a].Cardinality())
			continue
		}
		c.stamp++
		for _, r := range rows {
			if v := rank[r]; c.seen[v] != c.stamp {
				c.seen[v] = c.stamp
				e++
			}
		}
	}
	return e
}
