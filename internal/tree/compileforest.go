package tree

import (
	"fmt"

	"cmpdt/internal/dataset"
)

// CompiledForest is an ensemble compiled for inference: every tree's nodes
// are appended into ONE contiguous flat pool (the same struct-of-arrays
// layout Compiled uses), so a whole-forest prediction is a sequence of
// index walks over shared arrays with no per-tree pointer chasing and no
// allocation. All state is read-only after CompileForest; the value may be
// shared freely across goroutines.
//
// Per-tree routing is bit-identical to walking the member Trees, so a
// forest prediction is exactly the vote (or average) over its members'
// individual predictions.
type CompiledForest struct {
	// Schema is the schema the forest was trained with.
	Schema *dataset.Schema

	flat

	roots []int32 // root node id of each tree, in training order
	nc    int
	// dist[id*nc : (id+1)*nc] is a leaf's normalized training class
	// distribution; probability averaging reads it. Nil in regression mode.
	dist    []float32
	regress bool
}

// maxStackClasses bounds the class count for which voting scratch lives on
// the stack; wider problems fall back to one allocation per call.
const maxStackClasses = 64

// CompileForest flattens an ensemble into one contiguous multi-tree pool.
// All trees must be non-nil and share the first tree's schema. regress
// marks the ensemble as a regression forest: leaves then predict through
// Node.Value and no class distributions are materialized.
func CompileForest(trees []*Tree, regress bool) *CompiledForest {
	if len(trees) == 0 {
		panic("tree: CompileForest of empty ensemble")
	}
	for i, t := range trees {
		if t == nil || t.Root == nil {
			panic(fmt.Sprintf("tree: CompileForest: tree %d is nil", i))
		}
		if t.Schema != trees[0].Schema {
			panic(fmt.Sprintf("tree: CompileForest: tree %d has a different schema", i))
		}
	}
	schema := trees[0].Schema
	cf := &CompiledForest{
		Schema:  schema,
		roots:   make([]int32, 0, len(trees)),
		nc:      schema.NumClasses(),
		regress: regress,
	}
	total := 0
	for _, t := range trees {
		total += t.Size()
	}
	var onNode func(id int32, nd *Node)
	if !regress {
		cf.dist = make([]float32, total*cf.nc)
		onNode = func(id int32, nd *Node) {
			if !nd.IsLeaf() {
				return
			}
			d := cf.dist[int(id)*cf.nc : (int(id)+1)*cf.nc]
			if nd.N > 0 && len(nd.ClassCounts) > 0 {
				inv := 1 / float32(nd.N)
				for c, k := range nd.ClassCounts {
					d[c] = float32(k) * inv
				}
			} else {
				// No recorded distribution: the leaf votes its class with
				// full confidence.
				d[nd.Class] = 1
			}
		}
	}
	for _, t := range trees {
		cf.roots = append(cf.roots, cf.appendTree(t, onNode))
	}
	return cf
}

// NumTrees returns the ensemble size.
func (c *CompiledForest) NumTrees() int { return len(c.roots) }

// Regression reports whether the forest predicts a numeric target.
func (c *CompiledForest) Regression() bool { return c.regress }

// Predict classifies one record by majority vote over the trees; ties
// break to the lowest class id, so the result is deterministic and
// independent of any evaluation order. No allocation for up to
// maxStackClasses classes.
func (c *CompiledForest) Predict(vals []float64) int {
	var buf [maxStackClasses]int32
	votes := buf[:]
	if c.nc > maxStackClasses {
		votes = make([]int32, c.nc)
	}
	for _, r := range c.roots {
		votes[c.class[c.walkFrom(r, vals)]]++
	}
	best := 0
	for cl := 1; cl < c.nc; cl++ {
		if votes[cl] > votes[best] {
			best = cl
		}
	}
	return best
}

// PredictProb fills probs[:NumClasses] with the forest's class
// probabilities — the per-tree leaf distributions averaged in training
// order, which fixed summation order keeps deterministic — and returns the
// most probable class (ties to the lowest id). probs must hold at least
// NumClasses entries. Panics on a regression forest.
func (c *CompiledForest) PredictProb(vals []float64, probs []float64) int {
	if c.dist == nil {
		panic("tree: PredictProb on a regression forest")
	}
	probs = probs[:c.nc]
	for i := range probs {
		probs[i] = 0
	}
	for _, r := range c.roots {
		leaf := int(c.walkFrom(r, vals))
		d := c.dist[leaf*c.nc : (leaf+1)*c.nc]
		for i, p := range d {
			probs[i] += float64(p)
		}
	}
	inv := 1 / float64(len(c.roots))
	best := 0
	for i := range probs {
		probs[i] *= inv
		if probs[i] > probs[best] {
			best = i
		}
	}
	return best
}

// PredictValue predicts one record's numeric target with a regression
// forest: the mean of the member trees' leaf values, summed in training
// order.
func (c *CompiledForest) PredictValue(vals []float64) float64 {
	sum := 0.0
	for _, r := range c.roots {
		sum += c.thr[c.walkFrom(r, vals)]
	}
	return sum / float64(len(c.roots))
}

// PredictBatch majority-vote classifies records[j] into dst[j] for every
// j, sequentially. dst must be at least as long as records.
func (c *CompiledForest) PredictBatch(dst []int, records [][]float64) {
	if len(dst) < len(records) {
		panic(fmt.Sprintf("tree: PredictBatch dst len %d < %d records", len(dst), len(records)))
	}
	for j, r := range records {
		dst[j] = c.Predict(r)
	}
}

// PredictBatchWorkers is PredictBatch sharded across RECORDS (never across
// trees: each record's full vote happens on one goroutine, so no partial
// tallies are ever merged) over the given number of goroutines. workers <=
// 0 selects GOMAXPROCS; the result is identical for every worker count.
func (c *CompiledForest) PredictBatchWorkers(dst []int, records [][]float64, workers int) {
	n := len(records)
	if len(dst) < n {
		panic(fmt.Sprintf("tree: PredictBatchWorkers dst len %d < %d records", len(dst), n))
	}
	if serialShard(n, workers) {
		for j, r := range records {
			dst[j] = c.Predict(r)
		}
	} else {
		runShards(n, workers, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				dst[j] = c.Predict(records[j])
			}
		})
	}
}

// PredictValueBatchWorkers predicts numeric targets for every record,
// sharded across records like PredictBatchWorkers.
func (c *CompiledForest) PredictValueBatchWorkers(dst []float64, records [][]float64, workers int) {
	n := len(records)
	if len(dst) < n {
		panic(fmt.Sprintf("tree: PredictValueBatchWorkers dst len %d < %d records", len(dst), n))
	}
	if serialShard(n, workers) {
		for j, r := range records {
			dst[j] = c.PredictValue(r)
		}
	} else {
		runShards(n, workers, func(lo, hi int) {
			for j := lo; j < hi; j++ {
				dst[j] = c.PredictValue(records[j])
			}
		})
	}
}
