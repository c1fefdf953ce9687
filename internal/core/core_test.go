package core

import (
	"math"
	"path/filepath"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

func accuracyOf(t *tree.Tree, tbl *dataset.Table) float64 {
	correct := 0
	for i := 0; i < tbl.NumRecords(); i++ {
		if t.Predict(tbl.Row(i)) == tbl.Label(i) {
			correct++
		}
	}
	return float64(correct) / float64(tbl.NumRecords())
}

func TestConfigValidation(t *testing.T) {
	tbl := synth.Generate(synth.F1, 100, 1)
	src := storage.NewMem(tbl)
	bad := []Config{
		{Algorithm: CMPS, Intervals: 1},
		{Algorithm: CMPS, MaxAlive: -1},
		{Algorithm: Algorithm(99)},
	}
	for i, cfg := range bad {
		if _, err := Build(src, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	empty := dataset.MustNew(synth.Schema())
	if _, err := Build(storage.NewMem(empty), Default(CMPS)); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestDeterministicBuilds(t *testing.T) {
	for _, algo := range []Algorithm{CMPS, CMPB, CMPFull} {
		tbl := synth.Generate(synth.F2, 4000, 6)
		r1, err := Build(storage.NewMem(tbl), Default(algo))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := Build(storage.NewMem(tbl), Default(algo))
		if err != nil {
			t.Fatal(err)
		}
		if r1.Tree.String() != r2.Tree.String() {
			t.Errorf("%v: identical inputs produced different trees", algo)
		}
	}
}

func TestFileAndMemProduceSameTree(t *testing.T) {
	tbl := synth.Generate(synth.F2, 4000, 6)
	path := filepath.Join(t.TempDir(), "f2.rec")
	f, err := storage.WriteTable(path, tbl)
	if err != nil {
		t.Fatal(err)
	}
	rMem, err := Build(storage.NewMem(tbl), Default(CMPB))
	if err != nil {
		t.Fatal(err)
	}
	rFile, err := Build(f, Default(CMPB))
	if err != nil {
		t.Fatal(err)
	}
	if rMem.Tree.String() != rFile.Tree.String() {
		t.Error("file-backed and in-memory builds diverge")
	}
	if rMem.Stats.Scans != rFile.Stats.Scans {
		t.Errorf("scan counts diverge: %d vs %d", rMem.Stats.Scans, rFile.Stats.Scans)
	}
}

// TestRootSplitFidelity: with ample intervals, CMP-S's exact-resolved root
// split must match the exact algorithm's attribute, and its gini must not
// be worse by more than a whisker (Table 1's claim).
func TestRootSplitFidelity(t *testing.T) {
	for _, fn := range []synth.Func{synth.F1, synth.F2, synth.F6, synth.F7} {
		tbl := synth.Generate(fn, 30_000, 13)
		_, exactG, ok := exact.BestSplit(tblRows{tbl}, tbl.Schema())
		if !ok {
			t.Fatalf("%v: exact found no split", fn)
		}
		cfg := Default(CMPS)
		cfg.Intervals = 100
		cfg.MaxDepth = 1
		cfg.Prune = false
		cfg.InMemoryNodeRecords = -1
		res, err := Build(storage.NewMem(tbl), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.RootSplitGini > exactG+0.005 {
			t.Errorf("%v: CMP root gini %.6f vs exact %.6f", fn, res.Stats.RootSplitGini, exactG)
		}
	}
}

func TestValidatorCleanRuns(t *testing.T) {
	debugValidate = true
	defer func() { debugValidate = false }()
	for _, quantize := range []bool{false, true} {
		for _, algo := range []Algorithm{CMPS, CMPB, CMPFull} {
			for _, fn := range []synth.Func{synth.F2, synth.F7, synth.FPaper} {
				tbl := synth.Generate(fn, 30_000, 17)
				cfg := Default(algo)
				cfg.Intervals = 40
				cfg.InMemoryNodeRecords = 1024
				cfg.Quantize = quantize
				if _, err := Build(storage.NewMem(tbl), cfg); err != nil {
					t.Fatalf("%v on %v (Quantize=%v): %v", algo, fn, quantize, err)
				}
			}
		}
	}
}

func TestPurityStop(t *testing.T) {
	tbl := synth.Generate(synth.F2, 20_000, 3)
	loose := Default(CMPS)
	loose.PurityStop = 0.9
	loose.Prune = false
	rl, err := Build(storage.NewMem(tbl), loose)
	if err != nil {
		t.Fatal(err)
	}
	tight := Default(CMPS)
	tight.Prune = false
	rt, err := Build(storage.NewMem(tbl), tight)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Tree.Size() > rt.Tree.Size() {
		t.Errorf("purity stop grew the tree: %d > %d", rl.Tree.Size(), rt.Tree.Size())
	}
}

func TestMaxDepthRespected(t *testing.T) {
	tbl := synth.Generate(synth.F7, 20_000, 3)
	cfg := Default(CMPS)
	cfg.MaxDepth = 3
	res, err := Build(storage.NewMem(tbl), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tree.Depth() > 3 {
		t.Errorf("depth %d exceeds MaxDepth 3", res.Tree.Depth())
	}
}

func TestCategoricalOnlyDataset(t *testing.T) {
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Categorical, Values: []string{"x", "y", "z"}},
			{Name: "b", Kind: dataset.Categorical, Values: []string{"p", "q"}},
		},
		Classes: []string{"no", "yes"},
	}
	tbl := dataset.MustNew(schema)
	for i := 0; i < 900; i++ {
		a, b := i%3, (i/3)%2
		label := 0
		if a == 2 && b == 1 {
			label = 1
		}
		tbl.Append([]float64{float64(a), float64(b)}, label)
	}
	for _, algo := range []Algorithm{CMPS, CMPB, CMPFull} {
		cfg := Default(algo)
		cfg.InMemoryNodeRecords = -1
		res, err := Build(storage.NewMem(tbl), cfg)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if acc := accuracyOf(res.Tree, tbl); acc != 1.0 {
			t.Errorf("%v: categorical-only accuracy %.4f", algo, acc)
		}
	}
}

func TestSingleNumericAttribute(t *testing.T) {
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Numeric}},
		Classes: []string{"lo", "hi"},
	}
	tbl := dataset.MustNew(schema)
	for i := 0; i < 1000; i++ {
		label := 0
		if i >= 500 {
			label = 1
		}
		tbl.Append([]float64{float64(i)}, label)
	}
	// CMP-B/CMP degrade gracefully to 1-D histograms with one numeric attr.
	for _, algo := range []Algorithm{CMPS, CMPB, CMPFull} {
		cfg := Default(algo)
		cfg.InMemoryNodeRecords = -1
		res, err := Build(storage.NewMem(tbl), cfg)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if acc := accuracyOf(res.Tree, tbl); acc != 1.0 {
			t.Errorf("%v: single-attribute accuracy %.4f", algo, acc)
		}
	}
}

// TestExactResolutionOnCraftedGap: the best split point lies strictly
// inside one interval; the alive-interval buffer must recover it exactly.
func TestExactResolutionOnCraftedGap(t *testing.T) {
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Numeric},
			{Name: "noise", Kind: dataset.Numeric},
		},
		Classes: []string{"a", "b"},
	}
	tbl := dataset.MustNew(schema)
	// Values 0..9999; class flips at 3333, which with 10 intervals of width
	// 1000 falls inside interval 3, not on a boundary.
	for i := 0; i < 10_000; i++ {
		label := 0
		if float64(i) > 3333 {
			label = 1
		}
		tbl.Append([]float64{float64(i), float64(i%17) / 17}, label)
	}
	cfg := Default(CMPS)
	cfg.Intervals = 10
	cfg.MaxDepth = 1
	cfg.Prune = false
	cfg.InMemoryNodeRecords = -1
	cfg.DiscretizeSample = -1 // sample everything for a deterministic grid
	res, err := Build(storage.NewMem(tbl), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Tree.Root.Split
	if sp == nil {
		t.Fatal("root not split")
	}
	if sp.Attr != 0 || math.Abs(sp.Threshold-3333) > 1 {
		t.Errorf("root split %s, want x <= 3333", sp.Describe(schema))
	}
	if acc := accuracyOf(res.Tree, tbl); acc != 1.0 {
		t.Errorf("accuracy %.5f, want exact resolution", acc)
	}
}

func TestScanAccountingConsistent(t *testing.T) {
	tbl := synth.Generate(synth.F2, 20_000, 5)
	src := storage.NewMem(tbl)
	res, err := Build(src, Default(CMPB))
	if err != nil {
		t.Fatal(err)
	}
	// Every construction round is one full scan; the sampled discretization
	// pass reads only a prefix, so the source's full-scan count equals the
	// rounds (sample < n) or rounds+1.
	if got := res.IO.Scans; got != int64(res.Stats.Rounds) && got != int64(res.Stats.Rounds+1) {
		t.Errorf("source scans %d vs rounds %d", got, res.Stats.Rounds)
	}
	if res.Stats.NidBytesIO != int64(res.Stats.Rounds)*8*int64(tbl.NumRecords()) {
		t.Errorf("nid IO %d inconsistent with %d rounds", res.Stats.NidBytesIO, res.Stats.Rounds)
	}
	if res.Stats.PeakMemoryBytes <= 0 {
		t.Error("no peak memory recorded")
	}
}

func TestObliqueAllPairsFindsLinearBoundary(t *testing.T) {
	tbl := synth.Generate(synth.FPaper, 30_000, 7)
	cfg := Default(CMPFull)
	cfg.ObliqueAllPairs = true
	res, err := Build(storage.NewMem(tbl), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ObliqueSplits == 0 {
		t.Error("no oblique split found on the linearly-correlated workload")
	}
	if acc := accuracyOf(res.Tree, tbl); acc < 0.98 {
		t.Errorf("accuracy %.4f", acc)
	}
	// The linear split must involve salary and commission.
	found := false
	res.Tree.Walk(func(n *tree.Node, _ int) {
		if n.IsLeaf() || n.Split.Kind != tree.SplitLinear {
			return
		}
		pair := map[int]bool{n.Split.AttrX: true, n.Split.AttrY: true}
		if pair[synth.AttrSalary] && pair[synth.AttrCommission] {
			found = true
		}
	})
	if !found {
		t.Error("oblique split does not pair salary with commission")
	}
}

func TestCMPSNeverProducesObliqueOrMatrices(t *testing.T) {
	tbl := synth.Generate(synth.FPaper, 10_000, 7)
	res, err := Build(storage.NewMem(tbl), Default(CMPS))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.ObliqueSplits != 0 || res.Tree.CountLinearSplits() != 0 {
		t.Error("CMP-S produced linear splits")
	}
	if res.Stats.PredictionTotal != 0 {
		t.Error("CMP-S recorded predictions")
	}
}

func TestNoiseToleranceWithPruning(t *testing.T) {
	noisy := dataset.MustNew(synth.Schema())
	if err := synth.GenerateTo(noisy, synth.F2, 20_000, 9, synth.Options{Noise: 0.1}); err != nil {
		t.Fatal(err)
	}
	res, err := Build(storage.NewMem(noisy), Default(CMPS))
	if err != nil {
		t.Fatal(err)
	}
	clean := synth.Generate(synth.F2, 10_000, 77)
	if acc := accuracyOf(res.Tree, clean); acc < 0.95 {
		t.Errorf("generalization under 10%% noise: %.4f", acc)
	}
	if res.Tree.Leaves() > 100 {
		t.Errorf("pruning left %d leaves on noisy data", res.Tree.Leaves())
	}
}

type tblRows struct{ t *dataset.Table }

func (r tblRows) Len() int            { return r.t.NumRecords() }
func (r tblRows) Row(i int) []float64 { return r.t.Row(i) }
func (r tblRows) Label(i int) int     { return r.t.Label(i) }

func TestObliqueMaxDepthRespected(t *testing.T) {
	tbl := synth.Generate(synth.F7, 40_000, 5)
	cfg := Default(CMPFull)
	cfg.ObliqueMaxDepth = 2
	res, err := Build(storage.NewMem(tbl), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.Tree.Walk(func(n *tree.Node, depth int) {
		if !n.IsLeaf() && n.Split.Kind == tree.SplitLinear && depth > 2 {
			t.Errorf("linear split at depth %d exceeds ObliqueMaxDepth 2", depth)
		}
	})
}
