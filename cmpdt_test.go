package cmpdt

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cmpdt/internal/eval"
)

func loanSchema() Schema {
	return Schema{
		Attrs: []Attr{
			{Name: "age"},
			{Name: "salary"},
			{Name: "commission"},
			{Name: "region", Values: []string{"north", "south", "east", "west"}},
		},
		Classes: []string{"Declined", "Approved"},
	}
}

func loanDataset(t *testing.T, n int) *Dataset {
	t.Helper()
	ds, err := NewDataset(loanSchema())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < n; i++ {
		age := 18 + rng.Float64()*60
		salary := 20_000 + rng.Float64()*120_000
		commission := rng.Float64() * 50_000
		region := float64(rng.Intn(4))
		label := 0
		if age >= 40 && salary+commission >= 100_000 {
			label = 1
		}
		if err := ds.Append([]float64{age, salary, commission, region}, label); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

func TestTrainAndPredict(t *testing.T) {
	ds := loanDataset(t, 20_000)
	train, test := ds.Split(0.8, 1)
	for _, algo := range []Algorithm{CMPS, CMPB, CMP} {
		tree, stats, err := TrainStats(train, Config{Algorithm: algo})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if acc := tree.Accuracy(test); acc < 0.97 {
			t.Errorf("%v test accuracy %.4f", algo, acc)
		}
		if stats.Scans < 2 {
			t.Errorf("%v: implausible scan count %d", algo, stats.Scans)
		}
		if tree.Size() < 3 || tree.Leaves() < 2 || tree.Depth() < 1 {
			t.Errorf("%v: degenerate tree %d/%d/%d", algo, tree.Size(), tree.Leaves(), tree.Depth())
		}
	}
}

// TestUnknownAlgorithmRejected: an Algorithm that names no CMP variant —
// including the values of the core engine's internal CLOUDS comparators —
// fails every training entry point.
func TestUnknownAlgorithmRejected(t *testing.T) {
	ds := loanDataset(t, 300)
	for _, algo := range []Algorithm{-1, CMP + 1, CMP + 2, 7} {
		cfg := Config{Algorithm: algo}
		_, err := Train(ds, cfg)
		_, ferr := TrainForest(ds, ForestConfig{Trees: 2, Tree: cfg})
		_, _, cerr := CrossValidate(ds, cfg, 2)
		for _, e := range []error{err, ferr, cerr} {
			if e == nil || !strings.Contains(e.Error(), "Algorithm") {
				t.Errorf("Algorithm %d: err %v, want an error naming Algorithm", int(algo), e)
			}
		}
	}
}

func TestPredictClassAndString(t *testing.T) {
	ds := loanDataset(t, 5000)
	tree, err := Train(ds, Config{Algorithm: CMPS})
	if err != nil {
		t.Fatal(err)
	}
	got := tree.PredictClass([]float64{55, 120_000, 10_000, 0})
	if got != "Approved" && got != "Declined" {
		t.Fatalf("PredictClass = %q", got)
	}
	if out := tree.String(); !strings.Contains(out, "leaf:") {
		t.Errorf("String() lacks leaves:\n%s", out)
	}
}

func TestAppendLabeled(t *testing.T) {
	ds, err := NewDataset(loanSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendLabeled([]float64{30, 50_000, 0, 1}, "Approved"); err != nil {
		t.Fatal(err)
	}
	if err := ds.AppendLabeled([]float64{30, 50_000, 0, 1}, "Nope"); err == nil {
		t.Error("unknown class accepted")
	}
	if ds.Len() != 1 {
		t.Errorf("Len = %d", ds.Len())
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := loanDataset(t, 50)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, ds.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ds.Len() {
		t.Errorf("round trip: %d != %d", back.Len(), ds.Len())
	}
}

func TestTrainFile(t *testing.T) {
	ds := loanDataset(t, 8000)
	path := filepath.Join(t.TempDir(), "loans.rec")
	if err := ds.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	tree, stats, err := TrainFile(path, Config{Algorithm: CMPB})
	if err != nil {
		t.Fatal(err)
	}
	if acc := tree.Accuracy(ds); acc < 0.97 {
		t.Errorf("file-trained accuracy %.4f", acc)
	}
	if stats.PeakMemoryBytes <= 0 {
		t.Error("no memory stats")
	}
	if _, _, err := TrainFile(filepath.Join(t.TempDir(), "missing.rec"), Config{}); err == nil {
		t.Error("missing file accepted")
	}
}

func TestEmptyDatasetRejected(t *testing.T) {
	ds, _ := NewDataset(loanSchema())
	if _, err := Train(ds, Config{}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := Train(nil, Config{}); err == nil {
		t.Error("nil dataset accepted")
	}
}

func TestObliqueConfigSurfaces(t *testing.T) {
	ds := loanDataset(t, 30_000)
	tree, stats, err := TrainStats(ds, Config{Algorithm: CMP, ObliqueAllPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ObliqueSplits != tree.LinearSplits() {
		t.Errorf("stats report %d oblique splits, tree has %d",
			stats.ObliqueSplits, tree.LinearSplits())
	}
	if tree.LinearSplits() == 0 {
		t.Error("expected a linear split on the loan rule")
	}
}

func TestAlgorithmString(t *testing.T) {
	if CMPS.String() != "CMP-S" || CMPB.String() != "CMP-B" || CMP.String() != "CMP" {
		t.Error("algorithm names wrong")
	}
}

func TestSchemaRoundTrip(t *testing.T) {
	ds := loanDataset(t, 10)
	s := ds.Schema()
	if len(s.Attrs) != 4 || s.Attrs[3].Values[2] != "east" || s.Classes[1] != "Approved" {
		t.Errorf("schema round trip wrong: %+v", s)
	}
}

func TestModelSaveLoad(t *testing.T) {
	ds := loanDataset(t, 10_000)
	tree, err := Train(ds, Config{Algorithm: CMP, ObliqueAllPairs: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := tree.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != tree.String() {
		t.Error("model round trip changed the tree")
	}
	if back.ModelSchema().Classes[1] != "Approved" {
		t.Error("model schema lost")
	}
	// Stream variant.
	var buf bytes.Buffer
	if err := tree.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		vals := []float64{float64(20 + i), float64(40_000 + 800*i), float64(i * 300), float64(i % 4)}
		if tree.Predict(vals) != back2.Predict(vals) {
			t.Fatalf("prediction mismatch after round trip at %v", vals)
		}
	}
	if _, err := LoadModel(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing model accepted")
	}
}

func TestImportanceExplainDOT(t *testing.T) {
	ds := loanDataset(t, 15_000)
	tree, err := Train(ds, Config{Algorithm: CMPS})
	if err != nil {
		t.Fatal(err)
	}
	imp := tree.Importance()
	if len(imp) != 4 {
		t.Fatalf("importance length %d", len(imp))
	}
	sum := 0.0
	for _, v := range imp {
		sum += v
	}
	if sum < 0.99 || sum > 1.01 {
		t.Errorf("importances sum to %v", sum)
	}
	// Age and salary drive the loan rule; region is noise.
	if imp[3] > imp[0] || imp[3] > imp[1] {
		t.Errorf("noise attribute outranks informative ones: %v", imp)
	}
	steps := tree.Explain([]float64{55, 120_000, 10_000, 0})
	if len(steps) < 2 || !strings.HasPrefix(steps[len(steps)-1], "=> ") {
		t.Errorf("Explain = %v", steps)
	}
	var buf bytes.Buffer
	if err := tree.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "digraph") {
		t.Error("DOT output malformed")
	}
}

func TestEvaluateReportPublic(t *testing.T) {
	ds := loanDataset(t, 10_000)
	train, test := ds.Split(0.8, 2)
	tree, err := Train(train, Config{Algorithm: CMPB})
	if err != nil {
		t.Fatal(err)
	}
	rep := tree.Evaluate(test)
	if rep.Accuracy < 0.95 || rep.MacroF1 <= 0 {
		t.Errorf("report: acc=%.4f macroF1=%.4f", rep.Accuracy, rep.MacroF1)
	}
	if len(rep.PerClass) != 2 || rep.PerClass[1].Class != "Approved" {
		t.Errorf("per-class metrics wrong: %+v", rep.PerClass)
	}
	total := 0
	for _, row := range rep.Confusion {
		for _, v := range row {
			total += v
		}
	}
	if total != test.Len() {
		t.Errorf("confusion sums to %d, want %d", total, test.Len())
	}
}

func TestCrossValidatePublic(t *testing.T) {
	ds := loanDataset(t, 8000)
	accs, mean, err := CrossValidate(ds, Config{Algorithm: CMPS}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) != 4 || mean < 0.95 {
		t.Errorf("cv: accs=%v mean=%.4f", accs, mean)
	}
	if _, _, err := CrossValidate(ds, Config{}, 1); err == nil {
		t.Error("k=1 accepted")
	}
	if _, _, err := CrossValidate(ds, Config{Observer: NewObserver()}, 4); err == nil || !strings.Contains(err.Error(), "Observer") {
		t.Errorf("Observer: err %v, want an error naming it", err)
	}
}

func TestStratifiedSplitPublic(t *testing.T) {
	ds, _ := NewDataset(loanSchema())
	for i := 0; i < 1000; i++ {
		label := 0
		if i < 50 {
			label = 1
		}
		ds.Append([]float64{30, 50_000, 0, 0}, label)
	}
	train, test := ds.StratifiedSplit(0.8, 3)
	if train.Len() != 800 || test.Len() != 200 {
		t.Fatalf("sizes %d/%d", train.Len(), test.Len())
	}
	countApproved := func(d *Dataset) int {
		n := 0
		for i := 0; i < d.tbl.NumRecords(); i++ {
			if d.tbl.Label(i) == 1 {
				n++
			}
		}
		return n
	}
	if countApproved(train) != 40 || countApproved(test) != 10 {
		t.Errorf("rare class split %d/%d, want 40/10", countApproved(train), countApproved(test))
	}
}

func TestPredictBatchMatchesSerial(t *testing.T) {
	ds := loanDataset(t, 20_000)
	tree, err := Train(ds, Config{Algorithm: CMPS})
	if err != nil {
		t.Fatal(err)
	}
	batch := tree.PredictBatch(ds)
	if len(batch) != ds.Len() {
		t.Fatalf("batch length %d", len(batch))
	}
	for i := 0; i < ds.Len(); i++ {
		if batch[i] != tree.Predict(ds.tbl.Row(i)) {
			t.Fatalf("batch prediction %d differs from serial", i)
		}
	}
}

// TestCompiledTreeAPI covers the public compiled-inference surface: the
// compiled form agrees with Predict record-for-record, batch paths are
// deterministic across worker counts, and PredictBatch reuses a caller's
// buffer.
func TestCompiledTreeAPI(t *testing.T) {
	ds := loanDataset(t, 8_000)
	tree, err := Train(ds, Config{Algorithm: CMP})
	if err != nil {
		t.Fatal(err)
	}
	ct := tree.Compiled()
	if ct.Nodes() != tree.Size() {
		t.Fatalf("Compiled().Nodes() = %d, tree.Size() = %d", ct.Nodes(), tree.Size())
	}
	if ct2 := tree.Compiled(); ct2.Nodes() != ct.Nodes() {
		t.Fatal("second Compiled() call disagrees")
	}

	records := make([][]float64, 500)
	want := make([]int, len(records))
	rng := rand.New(rand.NewSource(5))
	for i := range records {
		records[i] = []float64{18 + rng.Float64()*60, 20_000 + rng.Float64()*120_000,
			rng.Float64() * 50_000, float64(rng.Intn(4))}
		want[i] = tree.Predict(records[i])
		if got := ct.Predict(records[i]); got != want[i] {
			t.Fatalf("compiled Predict[%d] = %d, want %d", i, got, want[i])
		}
		if ct.PredictClass(records[i]) != tree.PredictClass(records[i]) {
			t.Fatalf("PredictClass mismatch at %d", i)
		}
	}

	dst := make([]int, len(records))
	if got := ct.PredictBatch(dst, records); &got[0] != &dst[0] {
		t.Error("PredictBatch did not reuse the provided buffer")
	}
	for i := range dst {
		if dst[i] != want[i] {
			t.Fatalf("PredictBatch[%d] = %d, want %d", i, dst[i], want[i])
		}
	}
	for _, workers := range []int{1, 2, 8} {
		out := ct.PredictBatchWorkers(nil, records, workers)
		for i := range out {
			if out[i] != want[i] {
				t.Fatalf("workers=%d: [%d] = %d, want %d", workers, i, out[i], want[i])
			}
		}
	}

	// Tree.PredictBatch rides the same compiled path over a Dataset.
	preds := tree.PredictBatch(ds)
	for i := 0; i < ds.Len(); i++ {
		if preds[i] != tree.Predict(ds.tbl.Row(i)) {
			t.Fatalf("PredictBatch[%d] disagrees with Predict", i)
		}
	}
}

// TestCrossValidateQuantizedMatchesEval: CrossValidate passes every knob
// through, Quantize and QuantizeBins included: its folds are eval's under
// the same core config, and differ from the raw tree's.
func TestCrossValidateQuantizedMatchesEval(t *testing.T) {
	ds := loanDataset(t, 3000)
	cfg := Config{Algorithm: CMPB, Quantize: true, QuantizeBins: 4, Workers: 1}
	got, _, err := CrossValidate(ds, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eval.CrossValidate(eval.AlgoCMPB, ds.tbl, 3, eval.Options{Tree: cfg.internal()})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range want.Folds {
		if got[i] != f.Report.Accuracy {
			t.Errorf("fold %d: CrossValidate %v, eval.CrossValidate %v", i, got[i], f.Report.Accuracy)
		}
	}
	raw, _, err := CrossValidate(ds, Config{Algorithm: CMPB, Workers: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if slices.Equal(raw, got) {
		t.Errorf("quantized folds %v equal the raw tree's: Quantize had no effect", got)
	}
}

// TestUnknownEnumsRejected: an Algorithm or Validation value outside its
// constants is an error naming the value, at every entry point, instead of
// a silent CMP-S or ValidateStrict build.
func TestUnknownEnumsRejected(t *testing.T) {
	ds := loanDataset(t, 500)
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{Config{Algorithm: 7}, "Algorithm 7"},
		{Config{Validation: 5}, "Validation policy 5"},
	} {
		if _, err := Train(ds, c.cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Train %+v: err %v, want %q", c.cfg, err, c.want)
		}
		if _, err := TrainForest(ds, ForestConfig{Trees: 2, Tree: c.cfg}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("TrainForest %+v: err %v, want %q", c.cfg, err, c.want)
		}
		if _, _, err := CrossValidate(ds, c.cfg, 2); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("CrossValidate %+v: err %v, want %q", c.cfg, err, c.want)
		}
	}
}
