package forest

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/storage"
)

// regressTable builds a synthetic regression set: target y is a piecewise
// function of x1 and x2 plus small noise, with a distractor attribute.
// Class labels are a dummy binary split (the schema requires classes; the
// regression path never reads them).
func regressTable(n int, seed int64) *dataset.Table {
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x1", Kind: dataset.Numeric},
			{Name: "x2", Kind: dataset.Numeric},
			{Name: "noise", Kind: dataset.Numeric},
			{Name: "y", Kind: dataset.Numeric},
		},
		Classes: []string{"lo", "hi"},
	}
	tbl := dataset.MustNew(schema)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x1 := rng.Float64() * 100
		x2 := rng.Float64() * 10
		y := 3 * x2
		if x1 > 60 {
			y += 50
		}
		y += rng.NormFloat64() * 0.5
		if err := tbl.Append([]float64{x1, x2, rng.NormFloat64(), y}, i%2); err != nil {
			panic(err)
		}
	}
	return tbl
}

func regressConfig(trees int) Config {
	cfg := smallConfig(trees)
	cfg.Target = "y"
	return cfg
}

// TestRegressForestFits: the forest's training-set MSE must be far below
// the target's variance (i.e., it learned the structure).
func TestRegressForestFits(t *testing.T) {
	tbl := regressTable(6000, 4)
	res, err := Train(storage.NewMem(tbl), regressConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forest
	if !f.Regression() {
		t.Fatal("forest not in regression mode")
	}
	ti := tbl.Schema().AttrIndex("y")
	mean, n := 0.0, float64(tbl.NumRecords())
	for i := 0; i < tbl.NumRecords(); i++ {
		mean += tbl.Value(i, ti)
	}
	mean /= n
	variance, mse := 0.0, 0.0
	cf := f.Compile()
	for i := 0; i < tbl.NumRecords(); i++ {
		y := tbl.Value(i, ti)
		variance += (y - mean) * (y - mean)
		d := cf.PredictValue(tbl.Row(i)) - y
		mse += d * d
	}
	variance /= n
	mse /= n
	if mse > variance/10 {
		t.Errorf("train MSE %v not well below variance %v", mse, variance)
	}
	if f.OOBCount == 0 || math.IsNaN(f.OOBError) {
		t.Errorf("regression OOB missing: count=%d err=%v", f.OOBCount, f.OOBError)
	}
	if f.OOBError > variance {
		t.Errorf("OOB MSE %v worse than predicting the mean (%v)", f.OOBError, variance)
	}
}

// TestRegressForestDeterminism: fixed seed, bit-identical serialized model
// at every worker count and tree concurrency.
func TestRegressForestDeterminism(t *testing.T) {
	tbl := regressTable(4000, 8)
	var ref []byte
	for _, wp := range [][2]int{{1, 1}, {2, 1}, {8, 3}} {
		cfg := regressConfig(4)
		cfg.Tree.Workers = wp[0]
		cfg.Parallel = wp[1]
		res, err := Train(storage.NewMem(tbl), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := serializeForest(t, res.Forest)
		if ref == nil {
			ref = got
		} else if !bytes.Equal(got, ref) {
			t.Errorf("workers=%d parallel=%d: serialized regression forest differs", wp[0], wp[1])
		}
	}
}

// TestRegressForestRoundTrip: regression models survive serialization with
// leaf values and mode intact.
func TestRegressForestRoundTrip(t *testing.T) {
	tbl := regressTable(2000, 12)
	res, err := Train(storage.NewMem(tbl), regressConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	raw := serializeForest(t, res.Forest)
	back, err := ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Regression() || back.Target != res.Forest.Target {
		t.Fatal("regression mode lost in round trip")
	}
	a, b := res.Forest.Compile(), back.Compile()
	for i := 0; i < 500; i++ {
		if a.PredictValue(tbl.Row(i)) != b.PredictValue(tbl.Row(i)) {
			t.Fatalf("record %d: round-tripped value differs", i)
		}
	}
}

// TestRegressValidation: a categorical attribute cannot be a regression
// target, and a regression forest rejects the records a classification
// forest rejects under ValidateStrict: the table and store layers both
// accept a non-finite feature (Table.Append takes ±Inf, a CMPDT2 store any
// float), so training must catch it.
func TestRegressValidation(t *testing.T) {
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Numeric},
			{Name: "c", Kind: dataset.Categorical, Values: []string{"a", "b"}},
		},
		Classes: []string{"lo", "hi"},
	}
	tbl := dataset.MustNew(schema)
	for i := 0; i < 50; i++ {
		if err := tbl.Append([]float64{float64(i), float64(i % 2)}, i%2); err != nil {
			panic(err)
		}
	}
	cfg := smallConfig(2)
	cfg.Target = "c"
	if _, err := Train(storage.NewMem(tbl), cfg); err == nil {
		t.Error("categorical target accepted")
	}

	// Record 7 carries an invalid feature: +Inf in a table, NaN in a
	// store. Every tree trains on every record, so every tree sees it.
	clean := regressTable(300, 3)
	inf := dataset.MustNew(clean.Schema())
	w, err := storage.CreateFile(filepath.Join(t.TempDir(), "nan.dat"), clean.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clean.NumRecords(); i++ {
		row := append([]float64(nil), clean.Row(i)...)
		nan := append([]float64(nil), row...)
		if i == 7 {
			row[0], nan[1] = math.Inf(1), math.NaN()
		}
		if err := inf.Append(row, clean.Label(i)); err != nil {
			t.Fatal(err)
		}
		if err := w.Append(nan, clean.Label(i)); err != nil {
			t.Fatal(err)
		}
	}
	f, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	cfg = smallConfig(2)
	cfg.Target = "y"
	cfg.NoBootstrap = true
	for name, src := range map[string]storage.RangeSource{"+Inf in a table": storage.NewMem(inf), "NaN in a store": f} {
		if _, err := Train(src, cfg); err == nil || !strings.Contains(err.Error(), "record 7 invalid") {
			t.Errorf("%s: err %v, want record 7 rejected", name, err)
		}
	}
}
