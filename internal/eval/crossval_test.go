package eval

import (
	"math"
	"reflect"
	"testing"

	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

func TestEvaluateReport(t *testing.T) {
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Numeric}},
		Classes: []string{"a", "b"},
	}
	tbl := dataset.MustNew(schema)
	// 6 of class a (x<10), 4 of class b (x>=10).
	for i := 0; i < 6; i++ {
		tbl.Append([]float64{float64(i)}, 0)
	}
	for i := 0; i < 4; i++ {
		tbl.Append([]float64{float64(10 + i)}, 1)
	}
	// Tree splits at 11.5: predicts a for x<=11.5 — catches all of class a
	// plus 2 records of class b.
	tr := &tree.Tree{
		Root: &tree.Node{
			Split: &tree.Split{Kind: tree.SplitNumeric, Attr: 0, Threshold: 11.5},
			Left:  &tree.Node{Class: 0},
			Right: &tree.Node{Class: 1},
		},
		Schema: schema,
	}
	rep := Evaluate(tr, tbl)
	if math.Abs(rep.Accuracy-0.8) > 1e-12 {
		t.Errorf("Accuracy = %v, want 0.8", rep.Accuracy)
	}
	a, b := rep.PerClass[0], rep.PerClass[1]
	if a.Recall != 1.0 || math.Abs(a.Precision-0.75) > 1e-12 {
		t.Errorf("class a metrics: %+v", a)
	}
	if b.Precision != 1.0 || math.Abs(b.Recall-0.5) > 1e-12 {
		t.Errorf("class b metrics: %+v", b)
	}
	if rep.MacroF1 <= 0 || rep.MacroF1 >= 1 {
		t.Errorf("MacroF1 = %v", rep.MacroF1)
	}
}

func TestCrossValidate(t *testing.T) {
	tbl := synth.Generate(synth.F1, 6000, 4)
	cv, err := CrossValidate(AlgoCMPS, tbl, 5, Options{Tree: core.Config{Intervals: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.Folds) != 5 {
		t.Fatalf("%d folds", len(cv.Folds))
	}
	if cv.MeanAccuracy < 0.98 {
		t.Errorf("mean accuracy %.4f on F1", cv.MeanAccuracy)
	}
	if cv.StdDev > 0.05 {
		t.Errorf("fold accuracy unstable: stddev %.4f", cv.StdDev)
	}
	for _, f := range cv.Folds {
		if f.TreeSize < 3 {
			t.Errorf("fold %d degenerate tree", f.Fold)
		}
	}
}

// TestCrossValidateSeedDefault: Seed 0 means the default seed, 1, for the
// folds as for the trees, so both cross-validate identically.
func TestCrossValidateSeedDefault(t *testing.T) {
	tbl := synth.Generate(synth.F2, 2000, 5)
	var cvs []*CrossValidation
	for _, seed := range []int64{0, 1} {
		cv, err := CrossValidate(AlgoCMPS, tbl, 4, Options{Tree: core.Config{Seed: seed}})
		if err != nil {
			t.Fatal(err)
		}
		cvs = append(cvs, cv)
	}
	if !reflect.DeepEqual(cvs[0], cvs[1]) {
		t.Errorf("Seed 0 folds differ from Seed 1's:\n%+v\n%+v", cvs[0].Folds, cvs[1].Folds)
	}
}

func TestCrossValidateErrors(t *testing.T) {
	tbl := synth.Generate(synth.F1, 100, 4)
	if _, err := CrossValidate(AlgoCMPS, tbl, 1, Options{}); err == nil {
		t.Error("k=1 accepted")
	}
	tiny := synth.Generate(synth.F1, 3, 4)
	if _, err := CrossValidate(AlgoCMPS, tiny, 5, Options{}); err == nil {
		t.Error("n < k accepted")
	}
	if _, err := CrossValidate("nope", tbl, 2, Options{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
