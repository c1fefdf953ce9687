package stream

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

// ingestTable replays a table through the builder in row order.
func ingestTable(t *testing.T, b *Builder, tbl *dataset.Table) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < tbl.NumRecords(); i++ {
		if err := b.Ingest(ctx, tbl.Row(i), tbl.Label(i)); err != nil {
			t.Fatal(err)
		}
	}
}

func accuracy(tr *tree.Tree, tbl *dataset.Table) float64 {
	hits := 0
	for i := 0; i < tbl.NumRecords(); i++ {
		if tr.Predict(tbl.Row(i)) == tbl.Label(i) {
			hits++
		}
	}
	return float64(hits) / float64(tbl.NumRecords())
}

// TestStreamConvergence is the acceptance gate: a streaming build over a
// finite replayed Agrawal stream must reach held-out accuracy within 0.03
// of the batch build on every function F1-F10. The stream replays the
// training data for a few epochs — the streaming analogue of the batch
// builder's multiple passes — without ever holding it in memory.
func TestStreamConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-function convergence sweep")
	}
	const (
		trainN = 30_000
		testN  = 10_000
		epochs = 3
	)
	for fn := synth.F1; fn <= synth.F10; fn++ {
		fn := fn
		t.Run(fn.String(), func(t *testing.T) {
			t.Parallel()
			train := synth.Generate(fn, trainN, 1)
			test := synth.Generate(fn, testN, 2)

			cfg := core.Default(core.CMPS)
			cfg.Seed = 1
			batch, err := core.Build(storage.NewMem(train), cfg)
			if err != nil {
				t.Fatal(err)
			}
			batchAcc := accuracy(batch.Tree, test)

			b, err := New(Config{Schema: synth.Schema(), Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			for e := 0; e < epochs; e++ {
				ingestTable(t, b, train)
			}
			if err := b.Flush(context.Background()); err != nil {
				t.Fatal(err)
			}
			streamAcc := accuracy(b.Snapshot(), test)

			st := b.Stats()
			t.Logf("%s: batch %.4f stream %.4f (splits %d, nodes %d, depth %d, first split at %d)",
				fn, batchAcc, streamAcc, st.Splits, st.Nodes, st.Depth, st.FirstSplitAt)
			if streamAcc < batchAcc-0.03 {
				t.Errorf("stream accuracy %.4f more than 0.03 below batch %.4f", streamAcc, batchAcc)
			}
		})
	}
}

// TestStreamDeterministicAcrossWorkers pins the invariant every build path
// in this repo shares: fixed seed + fixed arrival order produce a
// bit-identical snapshot sequence at any worker count.
func TestStreamDeterministicAcrossWorkers(t *testing.T) {
	const (
		n     = 24_000
		every = 6_000
	)
	tbl := synth.Generate(synth.F2, n, 7)

	run := func(workers int) []string {
		b, err := New(Config{Schema: synth.Schema(), Workers: workers, HalfLife: 8_000})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var snaps []string
		for i := 0; i < n; i++ {
			if err := b.Ingest(ctx, tbl.Row(i), tbl.Label(i)); err != nil {
				t.Fatal(err)
			}
			if (i+1)%every == 0 {
				if err := b.Flush(ctx); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := b.Snapshot().WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				snaps = append(snaps, buf.String())
			}
		}
		return snaps
	}

	base := run(1)
	if len(base) != n/every {
		t.Fatalf("expected %d snapshots, got %d", n/every, len(base))
	}
	for _, workers := range []int{2, 8} {
		got := run(workers)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("snapshot %d differs between workers=1 and workers=%d", i, workers)
			}
		}
	}
}

// TestStreamSnapshotRoundTrip: a published snapshot must survive the JSON
// model round trip bit-identically and predict identically.
func TestStreamSnapshotRoundTrip(t *testing.T) {
	tbl := synth.Generate(synth.F2, 8_000, 3)
	b, err := New(Config{Schema: synth.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	ingestTable(t, b, tbl)
	if err := b.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	tr := b.Snapshot()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()
	back, err := tree.ReadJSON(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := back.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if first != buf2.String() {
		t.Error("snapshot JSON does not round-trip bit-identically")
	}
	for i := 0; i < 500; i++ {
		if tr.Predict(tbl.Row(i)) != back.Predict(tbl.Row(i)) {
			t.Fatalf("prediction %d differs after round trip", i)
		}
	}
}

// TestStreamEmptySnapshot: a builder that has seen nothing still compiles
// a loadable single-leaf model.
func TestStreamEmptySnapshot(t *testing.T) {
	b, err := New(Config{Schema: synth.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Snapshot()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.ReadJSON(&buf); err != nil {
		t.Fatalf("empty snapshot does not load: %v", err)
	}
	if got := tr.Predict(synth.Generate(synth.F2, 1, 1).Row(0)); got != 0 {
		t.Fatalf("empty tree predicts %d, want fallback 0", got)
	}
}

// TestStreamValidation covers record validation and config errors.
func TestStreamValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New without schema must fail")
	}
	b, err := New(Config{Schema: synth.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := b.Ingest(ctx, []float64{1, 2}, 0); err == nil {
		t.Error("short record must be rejected")
	}
	row := synth.Generate(synth.F2, 1, 1).Row(0)
	if err := b.Ingest(ctx, row, 9); err == nil {
		t.Error("out-of-range label must be rejected")
	}
	if err := b.Ingest(ctx, row, 0); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
}

// TestStreamConfigRange: New rejects every out-of-range setting with an
// error naming the field, where it used to replace it silently; zero keeps
// selecting the default.
func TestStreamConfigRange(t *testing.T) {
	cases := []struct {
		field string
		cfg   Config
	}{
		{"Workers", Config{Workers: -1}},
		{"BatchSize", Config{BatchSize: -1}},
		{"Warmup", Config{Warmup: -1}},
		{"Grace", Config{Grace: -1}},
		{"MaxDepth", Config{MaxDepth: -1}},
		{"HalfLife", Config{HalfLife: -1}},
		{"Bins", Config{Bins: 1}},
		{"Bins", Config{Bins: -2}},
		{"Delta", Config{Delta: -1e-6}},
		{"Delta", Config{Delta: 1}},
		{"Delta", Config{Delta: math.NaN()}},
		{"Tau", Config{Tau: -0.1}},
	}
	for _, c := range cases {
		c.cfg.Schema = synth.Schema()
		if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: New returned %v, want an error naming %s", c.cfg, err, c.field)
		}
	}
	b, err := New(Config{Schema: synth.Schema(), Bins: 2, Delta: 0.5})
	if err != nil {
		t.Fatalf("in-range settings rejected: %v", err)
	}
	if b.cfg.Workers < 1 || b.cfg.BatchSize != 512 || b.cfg.MaxDepth != 24 || b.cfg.Tau != 0.1 {
		t.Errorf("zero fields did not select their defaults: %+v", b.cfg)
	}
}

func BenchmarkIngest(bm *testing.B) {
	tbl := synth.Generate(synth.F2, 50_000, 1)
	b, err := New(Config{Schema: synth.Schema(), Workers: 1})
	if err != nil {
		bm.Fatal(err)
	}
	ctx := context.Background()
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		r := i % tbl.NumRecords()
		if err := b.Ingest(ctx, tbl.Row(r), tbl.Label(r)); err != nil {
			bm.Fatal(err)
		}
	}
}

var _ = fmt.Sprintf // keep fmt while iterating on diagnostics

// TestStreamRejectsInvalidRecords: a record the batch builders would refuse
// (a NaN or infinite numeric value, a category outside its domain) must be
// rejected by Ingest with an error naming the attribute, and leave the
// builder exactly as if it had never been offered: the snapshot equals that
// of a builder fed only the valid records, and it serializes.
func TestStreamRejectsInvalidRecords(t *testing.T) {
	const n = 20_000
	tbl := synth.Generate(synth.F2, n, 5)
	schema := synth.Schema()
	newBuilder := func() *Builder {
		b, err := New(Config{Schema: schema, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ctx := context.Background()
	poisons := []struct {
		attr int
		v    float64
		name string
	}{
		{0, math.Inf(-1), "salary"},
		{2, math.NaN(), "age"},
		{6, math.Inf(1), "hvalue"},
		{4, 99, "car"},
	}
	dirty, clean := newBuilder(), newBuilder()
	bad := make([]float64, schema.NumAttrs())
	rejected := 0
	for i := 0; i < n; i++ {
		if i%50 == 49 {
			p := poisons[(i/50)%len(poisons)]
			copy(bad, tbl.Row(i))
			bad[p.attr] = p.v
			err := dirty.Ingest(ctx, bad, tbl.Label(i))
			if err == nil || !strings.Contains(err.Error(), p.name) {
				t.Fatalf("record %d with %s=%v: Ingest returned %v, want an error naming %q", i, p.name, p.v, err, p.name)
			}
			rejected++
			continue
		}
		for _, b := range []*Builder{dirty, clean} {
			if err := b.Ingest(ctx, tbl.Row(i), tbl.Label(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := dirty.Ingest(ctx, tbl.Row(0), len(schema.Classes)); err == nil {
		t.Error("out-of-range label accepted")
	}
	if err := dirty.Ingest(ctx, tbl.Row(0)[:3], 0); err == nil {
		t.Error("short record accepted")
	}
	snap := func(b *Builder) string {
		if err := b.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := b.Snapshot().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if snap(dirty) != snap(clean) {
		t.Error("rejected records changed the snapshot")
	}
	if got, want := dirty.Stats().Records, int64(n-rejected); got != want {
		t.Errorf("builder counted %d records, want %d", got, want)
	}
}
