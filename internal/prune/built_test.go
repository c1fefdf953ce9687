package prune_test

import (
	"math/rand"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/prune"
	"cmpdt/internal/tree"
)

// These tests build trees with internal/exact, which itself uses this
// package's cost terms, so they live in the external test package.

func TestPruneMatchesMDLCostMonotonicity(t *testing.T) {
	// Pruned trees never classify the training set worse than the cost
	// model justifies: check that total errors after pruning don't explode
	// relative to before on real built trees.
	rng := rand.New(rand.NewSource(8))
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Numeric},
			{Name: "y", Kind: dataset.Numeric},
		},
		Classes: []string{"a", "b"},
	}
	tbl := dataset.MustNew(schema)
	for i := 0; i < 2000; i++ {
		x, y := rng.Float64()*10, rng.Float64()*10
		label := 0
		if x > 5 && y > 5 {
			label = 1
		}
		if rng.Float64() < 0.05 {
			label = 1 - label
		}
		tbl.Append([]float64{x, y}, label)
	}
	tr := exact.BuildTable(tbl, exact.DefaultConfig())
	before := countErrors(tr, tbl)
	prune.PUBLIC1(tr, nil)
	after := countErrors(tr, tbl)
	// The structure (two splits) must survive; only noise chasing goes.
	if tr.Depth() < 2 {
		t.Errorf("pruning destroyed real structure: depth %d", tr.Depth())
	}
	if after > before+200 {
		t.Errorf("errors grew from %d to %d", before, after)
	}
}

func countErrors(tr *tree.Tree, tbl *dataset.Table) int {
	errs := 0
	for i := 0; i < tbl.NumRecords(); i++ {
		if tr.Predict(tbl.Row(i)) != tbl.Label(i) {
			errs++
		}
	}
	return errs
}
