package rainforest

import (
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/prune"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

func accuracy(t *tree.Tree, tbl *dataset.Table) float64 {
	correct := 0
	for i := 0; i < tbl.NumRecords(); i++ {
		if t.Predict(tbl.Row(i)) == tbl.Label(i) {
			correct++
		}
	}
	return float64(correct) / float64(tbl.NumRecords())
}

func TestRainForestAccuracy(t *testing.T) {
	tbl := synth.Generate(synth.F2, 10_000, 4)
	cfg := DefaultConfig()
	cfg.Prune = false
	res, err := Build(storage.NewMem(tbl), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(res.Tree, tbl); acc < 0.999 {
		t.Errorf("RF-Hybrid training accuracy %.4f, want ~1.0 (exact splits)", acc)
	}
}

// TestSmallBufferForcesExtraPasses: an AVC buffer too small for one level's
// groups forces RF-Hybrid to take additional scans.
func TestSmallBufferForcesExtraPasses(t *testing.T) {
	tbl := synth.Generate(synth.F2, 20_000, 4)

	big := DefaultConfig()
	big.InMemoryNodeRecords = 1000
	resBig, err := Build(storage.NewMem(tbl), big)
	if err != nil {
		t.Fatal(err)
	}

	small := DefaultConfig()
	small.InMemoryNodeRecords = 1000
	small.BufferEntries = 30_000 // far below one level's AVC population
	resSmall, err := Build(storage.NewMem(tbl), small)
	if err != nil {
		t.Fatal(err)
	}
	if resSmall.Stats.ExtraPasses == 0 {
		t.Error("tiny buffer produced no extra passes")
	}
	if resSmall.IO.Scans <= resBig.IO.Scans {
		t.Errorf("tiny buffer scans %d should exceed big buffer scans %d",
			resSmall.IO.Scans, resBig.IO.Scans)
	}
	// Accuracy must not suffer — only I/O.
	if a, b := accuracy(resSmall.Tree, tbl), accuracy(resBig.Tree, tbl); a < b-0.01 {
		t.Errorf("small-buffer accuracy %.4f below big-buffer %.4f", a, b)
	}
}

func TestBufferMemoryModel(t *testing.T) {
	tbl := synth.Generate(synth.F1, 5000, 2)
	cfg := DefaultConfig()
	cfg.BufferEntries = 2_500_000
	res, err := Build(storage.NewMem(tbl), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's arithmetic: 2.5M entries x 2 classes x 4 bytes = 20 MB.
	want := int64(2_500_000) * 2 * 4
	if res.Stats.PeakMemoryBytes != want {
		t.Errorf("PeakMemoryBytes = %d, want %d", res.Stats.PeakMemoryBytes, want)
	}
}

func TestAVCEntriesTracked(t *testing.T) {
	tbl := synth.Generate(synth.F2, 5000, 2)
	res, err := Build(storage.NewMem(tbl), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The root's AVC-group holds ~one entry per record per numeric
	// attribute (values are continuous) plus the categorical domains.
	if res.Stats.AVCEntriesPeak < 5000 {
		t.Errorf("AVCEntriesPeak = %d implausibly low", res.Stats.AVCEntriesPeak)
	}
}

func TestRainForestEmptyInput(t *testing.T) {
	tbl := dataset.MustNew(synth.Schema())
	if _, err := Build(storage.NewMem(tbl), DefaultConfig()); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestRainForestCategorical(t *testing.T) {
	tbl := synth.Generate(synth.F3, 8000, 6)
	res, err := Build(storage.NewMem(tbl), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(res.Tree, tbl); acc < 0.99 {
		t.Errorf("F3 accuracy %.4f", acc)
	}
}

// TestRainForestMatchesSPRINT: RF-Hybrid evaluates the same exact criterion
// as SPRINT, whose tree is the exact in-memory builder's pruned by
// PUBLIC1, so both must grow identical trees; they differ only in how
// statistics reach memory.
func TestRainForestMatchesSPRINT(t *testing.T) {
	for _, fn := range []synth.Func{synth.F1, synth.F6} {
		tbl := synth.Generate(fn, 6000, 7)
		rcfg := DefaultConfig()
		rcfg.InMemoryNodeRecords = 512
		rres, err := Build(storage.NewMem(tbl), rcfg)
		if err != nil {
			t.Fatal(err)
		}
		want := exact.BuildTable(tbl, exact.DefaultConfig())
		prune.PUBLIC1(want, nil)
		// The in-memory bottoming-out can pick equal-gini splits in a
		// different order, so compare classification behaviour rather than
		// structure: every record must get the same label.
		for i := 0; i < tbl.NumRecords(); i++ {
			if rres.Tree.Predict(tbl.Row(i)) != want.Predict(tbl.Row(i)) {
				t.Fatalf("%v: record %d classified differently", fn, i)
			}
		}
	}
}
