package eval

import (
	"fmt"
	"math"
	"math/rand"

	"cmpdt/internal/dataset"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// ClassMetrics holds per-class precision/recall/F1 derived from a confusion
// matrix.
type ClassMetrics struct {
	Class     string
	Support   int
	Precision float64
	Recall    float64
	F1        float64
}

// Report summarizes a classifier's performance on a labeled table.
type Report struct {
	Accuracy  float64
	Confusion [][]int
	PerClass  []ClassMetrics
	// MacroF1 is the unweighted mean F1 over classes with support.
	MacroF1 float64
}

// Evaluate computes the full classification report of a tree on a table.
// The tree is compiled once and every metric derives from a single
// prediction pass (the confusion matrix).
func Evaluate(t *tree.Tree, tbl *dataset.Table) Report {
	m := confusionCompiled(tree.Compile(t), tbl)
	nc := len(m)
	correct, total := 0, tbl.NumRecords()
	for c := 0; c < nc; c++ {
		correct += m[c][c]
	}
	acc := 0.0
	if total > 0 {
		acc = float64(correct) / float64(total)
	}
	rep := Report{Confusion: m, Accuracy: acc}
	macro, counted := 0.0, 0
	for c := 0; c < nc; c++ {
		support, predicted, hit := 0, 0, m[c][c]
		for j := 0; j < nc; j++ {
			support += m[c][j]
			predicted += m[j][c]
		}
		cm := ClassMetrics{Class: t.Schema.Classes[c], Support: support}
		if predicted > 0 {
			cm.Precision = float64(hit) / float64(predicted)
		}
		if support > 0 {
			cm.Recall = float64(hit) / float64(support)
		}
		if cm.Precision+cm.Recall > 0 {
			cm.F1 = 2 * cm.Precision * cm.Recall / (cm.Precision + cm.Recall)
		}
		if support > 0 {
			macro += cm.F1
			counted++
		}
		rep.PerClass = append(rep.PerClass, cm)
	}
	if counted > 0 {
		rep.MacroF1 = macro / float64(counted)
	}
	return rep
}

// FoldResult is one fold's outcome in a cross-validation.
type FoldResult struct {
	Fold     int
	Report   Report
	TreeSize int
}

// CrossValidation summarizes a k-fold run.
type CrossValidation struct {
	Folds []FoldResult
	// MeanAccuracy and StdDev aggregate the folds' test accuracy.
	MeanAccuracy float64
	StdDev       float64
}

// CrossValidate runs k-fold cross-validation of the named algorithm over
// the table. The folds are a permutation drawn from the validated
// Tree.Seed, so a zero Seed folds as the default seed does.
func CrossValidate(algo string, tbl *dataset.Table, k int, opts Options) (*CrossValidation, error) {
	if k < 2 {
		return nil, fmt.Errorf("eval: need k >= 2 folds, got %d", k)
	}
	n := tbl.NumRecords()
	if n < k {
		return nil, fmt.Errorf("eval: %d records cannot fill %d folds", n, k)
	}
	opts, err := opts.Validate(algo)
	if err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewSource(opts.Tree.Seed + 1)).Perm(n)

	out := &CrossValidation{}
	sum, sumSq := 0.0, 0.0
	for fold := 0; fold < k; fold++ {
		lo, hi := fold*n/k, (fold+1)*n/k
		testIdx := perm[lo:hi]
		trainIdx := make([]int, 0, n-(hi-lo))
		trainIdx = append(trainIdx, perm[:lo]...)
		trainIdx = append(trainIdx, perm[hi:]...)
		train := tbl.Slice(trainIdx)
		test := tbl.Slice(testIdx)

		_, t, err := Run(algo, storage.NewMem(train), nil, nil, opts)
		if err != nil {
			return nil, fmt.Errorf("eval: fold %d: %w", fold, err)
		}
		rep := Evaluate(t, test)
		out.Folds = append(out.Folds, FoldResult{Fold: fold, Report: rep, TreeSize: t.Size()})
		sum += rep.Accuracy
		sumSq += rep.Accuracy * rep.Accuracy
	}
	kf := float64(k)
	out.MeanAccuracy = sum / kf
	variance := sumSq/kf - out.MeanAccuracy*out.MeanAccuracy
	if variance > 0 {
		out.StdDev = math.Sqrt(variance)
	}
	return out, nil
}
