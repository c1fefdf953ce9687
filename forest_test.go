package cmpdt

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"
)

func TestForestTrainPredictSaveLoad(t *testing.T) {
	ds := loanDataset(t, 8_000)
	train, test := ds.Split(0.8, 1)
	f, err := TrainForest(train, ForestConfig{
		Trees:       8,
		FeatureFrac: 0.75,
		Seed:        7,
		Tree:        Config{Algorithm: CMPB, MaxDepth: 8, InMemoryNodeRecords: 512},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.NumTrees() != 8 {
		t.Fatalf("NumTrees = %d, want 8", f.NumTrees())
	}
	if f.Regression() {
		t.Fatal("classification forest reports Regression")
	}
	if f.OOBCount() == 0 {
		t.Fatal("bootstrap forest has no out-of-bag records")
	}
	if f.OOBError() > 0.2 {
		t.Errorf("OOB error %.4f implausibly high", f.OOBError())
	}

	// Held-out accuracy through each serving surface, and the surfaces must
	// agree record for record.
	n := test.Len()
	records := make([][]float64, n)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		records[i] = test.tbl.Row(i)
		labels[i] = test.tbl.Label(i)
	}
	batch := f.PredictBatchWorkers(nil, records, 3)
	correct := 0
	probs := make([]float64, len(loanSchema().Classes))
	for i, vals := range records {
		p := f.Predict(vals)
		if p != batch[i] {
			t.Fatalf("record %d: Predict %d != batch %d", i, p, batch[i])
		}
		// Probability averaging may disagree with majority vote on
		// borderline records; check its own contract instead: a
		// distribution whose arg-max is the returned index.
		got := f.PredictProb(vals, probs)
		sum, argmax := 0.0, 0
		for c, q := range probs {
			sum += q
			if q > probs[argmax] {
				argmax = c
			}
		}
		if got != argmax || sum < 0.999 || sum > 1.001 {
			t.Fatalf("record %d: PredictProb returned %d, argmax %d, sum %v", i, got, argmax, sum)
		}
		if name := f.PredictClass(vals); name != loanSchema().Classes[p] {
			t.Fatalf("record %d: PredictClass %q mismatches index %d", i, name, p)
		}
		if p == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(n); acc < 0.95 {
		t.Errorf("forest test accuracy %.4f", acc)
	}

	// Round-trip through the model file and through the format-sniffing
	// predictor loader.
	path := filepath.Join(t.TempDir(), "forest.json")
	if err := f.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadForest(path)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := LoadPredictor(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pred.(*Forest); !ok {
		t.Fatalf("LoadPredictor returned %T, want *Forest", pred)
	}
	for i, vals := range records {
		if loaded.Predict(vals) != batch[i] || pred.Predict(vals) != batch[i] {
			t.Fatalf("record %d: reloaded prediction differs", i)
		}
	}
	if got, want := pred.ModelSchema(), f.ModelSchema(); len(got.Attrs) != len(want.Attrs) {
		t.Fatalf("reloaded schema has %d attrs, want %d", len(got.Attrs), len(want.Attrs))
	}
}

func TestLoadPredictorTreeModel(t *testing.T) {
	ds := loanDataset(t, 3_000)
	tree, err := Train(ds, Config{Algorithm: CMPS})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tree.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	pred, err := ReadPredictor(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := pred.(*Tree); !ok {
		t.Fatalf("ReadPredictor returned %T, want *Tree", pred)
	}
	for i := 0; i < 200; i++ {
		vals := ds.tbl.Row(i)
		if pred.Predict(vals) != tree.Predict(vals) {
			t.Fatalf("record %d: predictor disagrees with tree", i)
		}
	}
	dst := pred.PredictBatchWorkers(nil, [][]float64{ds.tbl.Row(0), ds.tbl.Row(1)}, 2)
	if len(dst) != 2 {
		t.Fatalf("PredictBatchWorkers returned %d predictions", len(dst))
	}
}

func TestReadPredictorRejectsRegressionForest(t *testing.T) {
	ds := loanDataset(t, 2_000)
	f, err := TrainForest(ds, ForestConfig{
		Trees:  2,
		Target: "salary",
		Tree:   Config{Algorithm: CMPB, MaxDepth: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !f.Regression() {
		t.Fatal("Target forest not in regression mode")
	}
	if v := f.PredictValue(ds.tbl.Row(0)); v <= 0 {
		t.Errorf("PredictValue = %v for a positive target", v)
	}
	var buf bytes.Buffer
	if err := f.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPredictor(&buf); err == nil || !strings.Contains(err.Error(), "regression") {
		t.Fatalf("ReadPredictor accepted a regression forest (err=%v)", err)
	}
}

func TestTrainForestFileMatchesMemory(t *testing.T) {
	ds := loanDataset(t, 5_000)
	cfg := ForestConfig{
		Trees:       4,
		FeatureFrac: 0.75,
		Seed:        3,
		Tree:        Config{Algorithm: CMPB, MaxDepth: 8, CacheBytes: 1 << 20},
	}
	path := filepath.Join(t.TempDir(), "loans.rec")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	fromFile, err := TrainForestFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	memCfg := cfg
	memCfg.Tree.CacheBytes = 0 // an in-memory dataset has no page cache
	fromMem, err := TrainForest(ds, memCfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := fromFile.WriteModel(&a); err != nil {
		t.Fatal(err)
	}
	if err := fromMem.WriteModel(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("disk-trained forest differs from memory-trained forest")
	}
}

// TestTrainForestRejectsTreeObserver: a per-tree Observer on a forest
// config would silently stay empty, so every TrainForest entry point
// rejects it and points to ForestConfig.Observer instead.
func TestTrainForestRejectsTreeObserver(t *testing.T) {
	ds := loanDataset(t, 500)
	path := filepath.Join(t.TempDir(), "loans.rec")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	cfg := ForestConfig{Trees: 2, Tree: Config{Algorithm: CMPB, Observer: NewObserver()}}
	ctx := context.Background()
	for name, train := range map[string]func() (*Forest, error){
		"TrainForest":            func() (*Forest, error) { return TrainForest(ds, cfg) },
		"TrainForestContext":     func() (*Forest, error) { return TrainForestContext(ctx, ds, cfg) },
		"TrainForestFile":        func() (*Forest, error) { return TrainForestFile(path, cfg) },
		"TrainForestFileContext": func() (*Forest, error) { return TrainForestFileContext(ctx, path, cfg) },
	} {
		f, err := train()
		if err == nil || !strings.Contains(err.Error(), "ForestConfig.Observer") {
			t.Errorf("%s: returned (%v, %v), want an error pointing to ForestConfig.Observer", name, f, err)
		}
		if cfg.Tree.Observer.Report() != nil {
			t.Errorf("%s: the rejected per-tree observer received a report", name)
		}
	}
	// The supported spelling still works.
	obs := NewObserver()
	if _, err := TrainForest(ds, ForestConfig{Trees: 2, Tree: Config{Algorithm: CMPB}, Observer: obs}); err != nil {
		t.Fatal(err)
	}
	if obs.Report() == nil {
		t.Error("ForestConfig.Observer received no report")
	}
}
