package eval

import (
	"math"
	"testing"

	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

func TestCostModelSeconds(t *testing.T) {
	cm := CostModel{SeqBytesPerSec: 1 << 20}
	if got := cm.Seconds(2 << 20); math.Abs(got-2) > 1e-12 {
		t.Errorf("Seconds = %v, want 2", got)
	}
	if got := cm.Seconds(0); got != 0 {
		t.Errorf("Seconds(0) = %v", got)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	tbl := synth.Generate(synth.F1, 200, 1)
	if _, _, err := Run("nope", storage.NewMem(tbl), nil, nil, Options{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestAccuracyAndConfusion(t *testing.T) {
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Numeric}},
		Classes: []string{"a", "b"},
	}
	tbl := dataset.MustNew(schema)
	for i := 0; i < 10; i++ {
		tbl.Append([]float64{float64(i)}, i%2)
	}
	// A constant tree predicting class 0.
	tr := &tree.Tree{Root: &tree.Node{Class: 0}, Schema: schema}
	if acc := Accuracy(tr, tbl); math.Abs(acc-0.5) > 1e-12 {
		t.Errorf("Accuracy = %v, want 0.5", acc)
	}
	m := Confusion(tr, tbl)
	if m[0][0] != 5 || m[1][0] != 5 || m[0][1] != 0 || m[1][1] != 0 {
		t.Errorf("Confusion = %v", m)
	}
	empty := dataset.MustNew(schema)
	if acc := Accuracy(tr, empty); acc != 0 {
		t.Errorf("empty Accuracy = %v", acc)
	}
}

func TestRunPopulatesEverything(t *testing.T) {
	tbl := synth.Generate(synth.F2, 6000, 2)
	res, tr, err := Run(AlgoCMP, storage.NewMem(tbl), tbl, tbl, Options{Tree: core.Config{Intervals: 30}})
	if err != nil {
		t.Fatal(err)
	}
	if tr == nil || res.TreeNodes == 0 || res.TreeLeaves == 0 {
		t.Fatal("tree metrics missing")
	}
	if res.Scans == 0 || res.BytesRead == 0 || res.PagesRead == 0 {
		t.Error("I/O metrics missing")
	}
	if res.SimSeconds <= 0 || res.WallTime <= 0 {
		t.Error("time metrics missing")
	}
	if res.TrainAccuracy == 0 || res.TestAccuracy == 0 {
		t.Error("accuracy not computed")
	}
	if res.N != 6000 || res.Algorithm != AlgoCMP {
		t.Error("identity fields wrong")
	}
}

func TestPurityStopAppliesUniformly(t *testing.T) {
	tbl := synth.Generate(synth.F2, 20_000, 2)
	for _, algo := range []string{AlgoCMPS, AlgoSPRINT, AlgoCLOUDS, AlgoRainForest} {
		strict, _, err := Run(algo, storage.NewMem(tbl), nil, nil, Options{Tree: core.Config{DisablePruning: true}})
		if err != nil {
			t.Fatal(err)
		}
		loose, _, err := Run(algo, storage.NewMem(tbl), nil, nil,
			Options{Tree: core.Config{DisablePruning: true, PurityStop: 0.8}})
		if err != nil {
			t.Fatal(err)
		}
		if loose.TreeNodes > strict.TreeNodes {
			t.Errorf("%s: purity stop grew the tree (%d > %d)",
				algo, loose.TreeNodes, strict.TreeNodes)
		}
	}
}
