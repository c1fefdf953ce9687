package experiments

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestTable1Small(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-dataset run")
	}
	o := Defaults()
	o.N = 50_000 // keep the Agrawal rows quick in tests
	rows, err := o.Table1()
	if err != nil {
		t.Fatal(err)
	}
	PrintTable1(os.Stdout, rows)
	// EXPERIMENTS.md's verdict: with >= 15 intervals CMP picks the exact
	// split attribute in every case, and on the Agrawal functions its gini
	// is within 4e-4 of exact (the largest gap measured is 3.5e-4).
	for _, r := range rows {
		if r.Alive > 2 {
			t.Errorf("%s q=%d: %d alive intervals, expected <= 2", r.Dataset, r.Intervals, r.Alive)
		}
		if r.Intervals >= 15 && !r.AttrMatch {
			t.Errorf("%s q=%d: split attribute %d, exact %d", r.Dataset, r.Intervals, r.CMPAttr, r.ExactAttr)
		}
		if strings.HasPrefix(r.Dataset, "Function") && math.Abs(r.CMPGini-r.ExactGini) > 4e-4 {
			t.Errorf("%s q=%d: gini %.6f, exact %.6f: more than 4e-4 apart", r.Dataset, r.Intervals, r.CMPGini, r.ExactGini)
		}
	}
}

func TestAccuracyExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-algorithm run")
	}
	o := Defaults()
	o.N = 15_000
	rows, err := o.Accuracy()
	if err != nil {
		t.Fatal(err)
	}
	byAlgo := map[string][]AccuracyRow{}
	for _, r := range rows {
		byAlgo[r.Algorithm] = append(byAlgo[r.Algorithm], r)
	}
	// The paper's claims: CMP is as accurate as the exact algorithms, and
	// sampling (windowing) is measurably worse.
	for _, algo := range []string{"cmp-s", "cmp-b", "cmp", "sprint", "sliq", "rainforest", "clouds"} {
		for _, r := range byAlgo[algo] {
			if r.TestAcc < 0.93 {
				t.Errorf("%s on %s: test accuracy %.4f", algo, r.Workload, r.TestAcc)
			}
		}
	}
	for i, w := range byAlgo["window"] {
		full := byAlgo["cmp-s"][i]
		if w.TestAcc >= full.TestAcc {
			t.Logf("windowing unexpectedly matched full-data training on %s", w.Workload)
		}
		if w.TestAcc < 0.7 {
			t.Errorf("windowing degenerate on %s: %.4f", w.Workload, w.TestAcc)
		}
	}
}
