package core

import (
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

func TestCLOUDSVariantsAccuracy(t *testing.T) {
	tbl := synth.Generate(synth.F2, 20_000, 4)
	for _, algo := range []Algorithm{CLOUDSSSE, CLOUDSSS} {
		cfg := Default(algo)
		cfg.Intervals = 50
		res, err := Build(storage.NewMem(tbl), cfg)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		acc := accuracyOf(res.Tree, tbl)
		min := 0.99
		if algo == CLOUDSSS {
			min = 0.97 // boundary-only splits lose a little accuracy
		}
		if acc < min {
			t.Errorf("%v accuracy %.4f < %.2f", algo, acc, min)
		}
		t.Logf("%v acc=%.4f scans=%d rounds=%d leaves=%d", algo, acc, res.Stats.Scans, res.Stats.Rounds, res.Tree.Leaves())
	}
}

// TestSSEMoreScansThanSS: the estimation variant pays an extra pass per
// level — the cost CMP-S eliminates.
func TestSSEMoreScansThanSS(t *testing.T) {
	tbl := synth.Generate(synth.F2, 20_000, 4)
	scans := map[Algorithm]int{}
	for _, algo := range []Algorithm{CLOUDSSSE, CLOUDSSS} {
		cfg := Default(algo)
		cfg.Intervals = 50
		res, err := Build(storage.NewMem(tbl), cfg)
		if err != nil {
			t.Fatal(err)
		}
		scans[algo] = res.Stats.Scans
	}
	if scans[CLOUDSSSE] <= scans[CLOUDSSS] {
		t.Errorf("SSE scans (%d) should exceed SS scans (%d)", scans[CLOUDSSSE], scans[CLOUDSSS])
	}
}

// TestSSEGapPassesCounted: SSE's gap passes are scans beyond its rounds
// and the discretization pass, and they buffer records; SS makes none.
func TestSSEGapPassesCounted(t *testing.T) {
	tbl := synth.Generate(synth.F7, 20_000, 4)
	res, err := Build(storage.NewMem(tbl), Default(CLOUDSSSE))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Scans <= res.Stats.Rounds+1 {
		t.Errorf("SSE run made no gap pass: %d scans over %d rounds", res.Stats.Scans, res.Stats.Rounds)
	}
	if res.Stats.BufferedRecords == 0 {
		t.Error("SSE run buffered no records")
	}
	res, err = Build(storage.NewMem(tbl), Default(CLOUDSSS))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Scans != res.Stats.Rounds+1 || res.Stats.BufferedRecords != 0 {
		t.Errorf("SS run made a gap pass: %d scans over %d rounds, %d records buffered",
			res.Stats.Scans, res.Stats.Rounds, res.Stats.BufferedRecords)
	}
}

func TestCLOUDSEmptyInput(t *testing.T) {
	tbl := dataset.MustNew(synth.Schema())
	if _, err := Build(storage.NewMem(tbl), Default(CLOUDSSSE)); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestCLOUDSZeroConfigGetsDefaults(t *testing.T) {
	tbl := synth.Generate(synth.F1, 3000, 1)
	res, err := Build(storage.NewMem(tbl), Config{Algorithm: CLOUDSSS})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(res.Tree, tbl); acc < 0.97 {
		t.Errorf("zero-config accuracy %.4f", acc)
	}
}

func TestCLOUDSCategorical(t *testing.T) {
	tbl := synth.Generate(synth.F3, 10_000, 6) // F3 splits on elevel (categorical)
	res, err := Build(storage.NewMem(tbl), Default(CLOUDSSSE))
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracyOf(res.Tree, tbl); acc < 0.99 {
		t.Errorf("F3 accuracy %.4f", acc)
	}
	hasCat := false
	res.Tree.Walk(func(n *tree.Node, _ int) {
		if !n.IsLeaf() && n.Split.Kind == tree.SplitCategorical {
			hasCat = true
		}
	})
	if !hasCat {
		t.Error("F3 tree should contain a categorical split")
	}
}
