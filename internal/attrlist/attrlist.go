// Package attrlist prices the paper's two exact comparators, SPRINT
// (Shafer, Agrawal & Mehta, VLDB 1996) and SLIQ (Mehta, Agrawal &
// Rissanen, EDBT 1996). Both presort one (value, rid) attribute list per
// attribute and evaluate the gini index at every distinct value, so both
// grow the exact tree: the one exact.BuildTable grows over the same
// records under the same stopping rules. The two differ only in how a
// node's records are found, and so in the list traffic and memory each is
// charged:
//
//   - SPRINT partitions every attribute list between the children at each
//     split, probing a rid hash built from the splitting attribute's list,
//     and writes both halves back.
//   - SLIQ never rewrites its lists. An in-memory class list maps every
//     record to its class and current leaf; each tree level reads every
//     list once to evaluate all of the level's leaves, then re-reads the
//     splitting attributes' lists to move records to their children.
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
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// Layout is an attribute-list layout: the cost policy of one comparator.
type Layout int

const (
	SPRINT Layout = iota
	SLIQ
)

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
	// ListBytesIO is the attribute-list bytes read plus written.
	ListBytesIO int64
	// PeakMemoryBytes is the layout's resident memory.
	PeakMemoryBytes int64
}

// Build scans src once, grows the exact tree under cfg's stopping rules,
// charges it the layout's list traffic and memory, and prunes it with
// prune.PUBLIC1 when cfg.Prune is set. A record Schema.RecordDefect flags
// fails the build with an error naming it.
func Build(src storage.Source, cfg exact.Config, layout Layout) (*Result, error) {
	if layout != SPRINT && layout != SLIQ {
		return nil, fmt.Errorf("attrlist: unknown layout %d", layout)
	}
	tbl, err := load(src)
	if err != nil {
		return nil, err
	}
	pruned := cfg.Prune
	cfg.Prune = false // the lists are charged for the full tree
	res := &Result{Tree: exact.BuildTable(tbl, cfg)}
	if layout == SPRINT {
		res.ListBytesIO, res.PeakMemoryBytes = sprintCost(tbl, res.Tree, cfg)
	} else {
		res.ListBytesIO, res.PeakMemoryBytes = sliqCost(tbl, res.Tree, cfg)
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
