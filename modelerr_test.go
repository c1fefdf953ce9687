package cmpdt

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cmpdt/internal/storage"
	"cmpdt/internal/stream"
	"cmpdt/internal/synth"
)

// errTestModel trains a tiny tree and returns its serialized model bytes.
func errTestModel(t testing.TB) []byte {
	t.Helper()
	ds := smallDataset(t)
	tr, err := Train(ds, Config{Algorithm: CMPS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// smallDataset builds a two-attribute dataset big enough to split.
func smallDataset(t testing.TB) *Dataset {
	t.Helper()
	ds, err := NewDataset(Schema{
		Attrs:   []Attr{{Name: "x"}, {Name: "y"}},
		Classes: []string{"a", "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		label := 0
		if i%2 == 1 {
			label = 1
		}
		if err := ds.Append([]float64{float64(i % 50), float64((i * 7) % 31)}, label); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// TestReadPredictorBadModelTyped pins the error contract cmpserve's
// reloader depends on: every structural rejection matches ErrBadModel,
// while transient read failures do not.
func TestReadPredictorBadModelTyped(t *testing.T) {
	good := errTestModel(t)

	corrupt := func(mutate func([]byte) []byte) []byte {
		return mutate(append([]byte(nil), good...))
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"garbage", []byte("\x00\x01\x02 not json at all")},
		{"truncated", corrupt(func(b []byte) []byte { return b[:len(b)/2] })},
		{"wrong-magic", corrupt(func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"cmpdt-tree"`), []byte(`"mystery-fmt"`), 1)
		})},
		{"bad-version", corrupt(func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"version": 1`), []byte(`"version": 99`), 1)
		})},
		{"valid-json-non-model", []byte(`{"hello": "world"}`)},
		{"corrupt-node", corrupt(func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"class": 0`), []byte(`"class": -7`), 1)
		})},
		{"extra-class-count", corrupt(func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"counts": [`), []byte(`"counts": [100000000,`), 1)
		})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadPredictor(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt input loaded without error")
			}
			if !errors.Is(err, ErrBadModel) {
				t.Fatalf("error %v does not match ErrBadModel", err)
			}
			if storage.IsTransient(err) {
				t.Fatalf("structural error %v misclassified as transient", err)
			}
		})
	}
}

// TestReadPredictorTransientNotBadModel streams the model bytes through a
// storage.FaultInjector: the injected transient read failure must surface
// as a retryable error, not as ErrBadModel.
func TestReadPredictorTransientNotBadModel(t *testing.T) {
	// Pad the model with trailing whitespace (legal JSON surroundings) so
	// the read spans several calls — the injector faults every 2nd call,
	// never the 1st.
	good := append(errTestModel(t), bytes.Repeat([]byte(" "), 64<<10)...)
	fi := storage.NewFaultInjector(1, 2) // fault every 2nd read call
	r := fi.WrapReader(bytes.NewReader(good), int64(len(good)))
	_, err := ReadPredictor(r)
	if err == nil {
		t.Fatal("expected the injected fault to surface")
	}
	if errors.Is(err, ErrBadModel) {
		t.Fatalf("transient read failure %v misclassified as ErrBadModel", err)
	}
	if !storage.IsTransient(err) {
		t.Fatalf("injected fault %v not classified transient", err)
	}
	if fi.Injected() == 0 {
		t.Fatal("fault injector never fired; the test read too little")
	}
}

// TestLoadPredictorMissingFileNotBadModel: a missing path is an I/O
// condition, not a structural one.
func TestLoadPredictorMissingFileNotBadModel(t *testing.T) {
	_, err := LoadPredictor(filepath.Join(t.TempDir(), "nope.json"))
	if err == nil {
		t.Fatal("expected an error for a missing file")
	}
	if errors.Is(err, ErrBadModel) {
		t.Fatalf("missing file %v misclassified as ErrBadModel", err)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("want os.ErrNotExist in %v", err)
	}
}

// TestReadPredictorRegressionForestBadModel: regression forests have no
// classification surface, and that rejection is permanent.
func TestReadPredictorRegressionForestBadModel(t *testing.T) {
	ds := smallDataset(t)
	f, err := TrainForest(ds, ForestConfig{
		Trees:  2,
		Target: "y",
		Tree:   Config{Algorithm: CMPS, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.WriteModel(&buf); err != nil {
		t.Fatal(err)
	}
	_, err = ReadPredictor(&buf)
	if err == nil || !errors.Is(err, ErrBadModel) {
		t.Fatalf("regression forest load = %v, want ErrBadModel", err)
	}
	if !strings.Contains(err.Error(), "regression") {
		t.Fatalf("error %v should name the regression rejection", err)
	}
}

// streamSnapshot returns the snapshot bytes cmpstream publishes as
// latest.json for a small Agrawal stream.
func streamSnapshot(t testing.TB) []byte {
	t.Helper()
	b, err := stream.New(stream.Config{Schema: synth.Schema(), Warmup: 100, Grace: 50})
	if err != nil {
		t.Fatal(err)
	}
	tbl := synth.Generate(synth.F2, 3000, 1)
	ctx := context.Background()
	for i := 0; i < tbl.NumRecords(); i++ {
		if err := b.Ingest(ctx, tbl.Row(i), tbl.Label(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if b.Snapshot().Root.IsLeaf() {
		t.Fatal("stream snapshot has no split")
	}
	var buf bytes.Buffer
	if err := b.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPredictor(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("stream snapshot does not load: %v", err)
	}
	return buf.Bytes()
}

// FuzzReadPredictor holds ReadPredictor to its contract on arbitrary
// bytes: the only failure is ErrBadModel (never a panic), and a model it
// returns scores a zero record to an in-range class through both Predict
// and PredictBatchWorkers. cmpserve loads cmpstream's latest.json through
// the same decoder, so a stream snapshot is one of the seeds.
func FuzzReadPredictor(f *testing.F) {
	f.Add(errTestModel(f))
	forest, err := TrainForest(smallDataset(f), ForestConfig{Trees: 3, Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := forest.WriteModel(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(streamSnapshot(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPredictor(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadModel) {
				t.Fatalf("error does not match ErrBadModel: %v", err)
			}
			return
		}
		schema := p.ModelSchema()
		zero := make([]float64, len(schema.Attrs))
		c := p.Predict(zero)
		if c < 0 || c >= len(schema.Classes) {
			t.Fatalf("Predict(zero record) = %d with %d classes", c, len(schema.Classes))
		}
		batch := p.PredictBatchWorkers(nil, [][]float64{zero, zero}, 2)
		if len(batch) != 2 || batch[0] != c || batch[1] != c {
			t.Fatalf("PredictBatchWorkers(zero records) = %v, Predict = %d", batch, c)
		}
	})
}
