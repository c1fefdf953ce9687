// Package window implements C4.5-style windowing (Quinlan, 1993), the
// sampling technique the paper's introduction contrasts CMP against: draw a
// small window from the training set, build a tree on it, augment the
// window with records the tree misclassifies, and repeat. Learning time
// drops dramatically, but — as the paper notes, citing Catlett — trees
// built from samples can carry a significant accuracy loss compared with
// exact algorithms run on the full data. The experiments use this package
// to demonstrate exactly that trade-off.
package window

import (
	"errors"
	"fmt"
	"math/rand"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// The windowing schedule (Quinlan's defaults): the first window holds
// n/initialWindowDiv records, at least minInitialWindow and at most n; each
// iteration adds at most half the initial window of misclassified records;
// and the loop stops after maxIterations.
const (
	initialWindowDiv = 50
	minInitialWindow = 500
	maxIterations    = 5
)

// Stats reports what a windowing run did.
type Stats struct {
	// Iterations is the number of window refinements performed.
	Iterations int
	// FinalWindow is the window size the final tree was trained on.
	FinalWindow int
	// Misclassified is the full-dataset misclassification count of the
	// final tree, measured by the last verification scan.
	Misclassified int
}

// Result bundles a finished run.
type Result struct {
	Tree  *tree.Tree
	Stats Stats
	IO    storage.Stats
}

// Build trains a tree by windowing over src, growing each window's tree
// with cfg and drawing the initial window with seed. Each iteration costs
// one sequential scan (the verification pass that also collects
// misclassified records); tree building itself happens in memory on the
// window.
func Build(src storage.Source, cfg exact.Config, seed int64) (*Result, error) {
	schema := src.Schema()
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	n := src.NumRecords()
	if n == 0 {
		return nil, errors.New("window: empty training set")
	}
	initial := min(max(n/initialWindowDiv, minInitialWindow), n)
	maxAdditions := initial / 2
	rng := rand.New(rand.NewSource(seed))

	// Initial window: reservoir sample over one scan, which also rejects
	// the first record Schema.RecordDefect flags.
	win, err := dataset.New(schema)
	if err != nil {
		return nil, err
	}
	reservoirVals := make([][]float64, 0, initial)
	reservoirLabels := make([]int, 0, initial)
	seen := 0
	err = src.Scan(func(rid int, vals []float64, label int) error {
		if d := schema.RecordDefect(vals, label); d != "" {
			return fmt.Errorf("window: record %d invalid: %s", rid, d)
		}
		if seen < initial {
			reservoirVals = append(reservoirVals, append([]float64(nil), vals...))
			reservoirLabels = append(reservoirLabels, label)
		} else if j := rng.Intn(seen + 1); j < initial {
			reservoirVals[j] = append(reservoirVals[j][:0], vals...)
			reservoirLabels[j] = label
		}
		seen++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range reservoirVals {
		if err := win.Append(reservoirVals[i], reservoirLabels[i]); err != nil {
			return nil, err
		}
	}

	var st Stats
	var t *tree.Tree
	for iter := 0; iter < maxIterations; iter++ {
		st.Iterations++
		t = exact.BuildTable(win, cfg)

		// Verification scan: count misclassifications and collect up to
		// maxAdditions of them into the window.
		added := 0
		misses := 0
		err := src.Scan(func(rid int, vals []float64, label int) error {
			if t.Predict(vals) == label {
				return nil
			}
			misses++
			if added < maxAdditions {
				if err := win.Append(vals, label); err != nil {
					return err
				}
				added++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		st.Misclassified = misses
		if misses == 0 || added == 0 {
			break
		}
	}
	st.FinalWindow = win.NumRecords()
	return &Result{Tree: t, Stats: st, IO: src.Stats()}, nil
}
