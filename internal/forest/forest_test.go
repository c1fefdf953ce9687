package forest

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"cmpdt/internal/core"
	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

func smallConfig(trees int) Config {
	cfg := Config{
		Trees: trees,
		Seed:  42,
		Tree:  core.Default(core.CMPB),
	}
	cfg.Tree.Intervals = 30
	cfg.Tree.MaxDepth = 8
	cfg.Tree.InMemoryNodeRecords = 256
	return cfg
}

func serializeForest(t *testing.T, f *Forest) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestForestDeterminism is the ensemble differential suite: a fixed seed
// must produce a bit-identical serialized forest (trees AND the out-of-bag
// estimate) at every scan worker count, every tree-build concurrency, and
// with or without a page cache on the shared store — for raw trees, which
// scan masked views, and for quantized ones, which share one index.
func TestForestDeterminism(t *testing.T) {
	tbl := synth.Generate(synth.F2, 6000, 3)
	path := filepath.Join(t.TempDir(), "f2.rec")
	fsrc, err := storage.WriteTable(path, tbl)
	if err != nil {
		t.Fatal(err)
	}
	for _, quantize := range []bool{false, true} {
		t.Run(fmt.Sprintf("quantize=%v", quantize), func(t *testing.T) {
			var ref []byte
			var refOOB float64
			run := func(workers, parallel int, cache int64) {
				cfg := smallConfig(5)
				// Feature subsampling is part of the invariant: restricted
				// split attributes combined with bootstrap multiplicities
				// once exposed a worker-dependent scanned-list double-queue
				// in the core builder.
				cfg.FeatureFrac = 0.7
				cfg.Tree.Quantize = quantize
				cfg.Tree.Workers = workers
				cfg.Parallel = parallel
				cfg.Tree.CacheBytes = cache
				res, err := Train(fsrc, cfg)
				if err != nil {
					t.Fatalf("workers=%d parallel=%d cache=%d: %v", workers, parallel, cache, err)
				}
				got := serializeForest(t, res.Forest)
				if ref == nil {
					ref, refOOB = got, res.Forest.OOBError
					return
				}
				if !bytes.Equal(got, ref) {
					t.Errorf("workers=%d parallel=%d cache=%d: serialized forest differs", workers, parallel, cache)
				}
				if res.Forest.OOBError != refOOB {
					t.Errorf("workers=%d parallel=%d cache=%d: OOB %v != %v", workers, parallel, cache, res.Forest.OOBError, refOOB)
				}
			}
			run(1, 1, 0)
			run(2, 1, 0)
			run(8, 2, 0)
			run(2, 4, 64<<20)
			run(8, 1, 64<<20)
		})
	}
}

// TestSingleTreePlainEquivalence: a 1-tree forest with no bootstrap and no
// feature subsampling is the plain CMP build — byte-identical serialized
// trees. Quantized, the forest's index walk must match the plain build's
// discretize+encode over an in-memory store and over a file alike.
func TestSingleTreePlainEquivalence(t *testing.T) {
	tbl := synth.Generate(synth.F7, 5000, 9)
	path := filepath.Join(t.TempDir(), "f7.rec")
	if _, err := storage.WriteTable(path, tbl); err != nil {
		t.Fatal(err)
	}
	sources := map[string]func() storage.RangeSource{
		"mem": func() storage.RangeSource { return storage.NewMem(tbl) },
		"file": func() storage.RangeSource {
			f, err := storage.OpenFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return f
		},
	}
	for _, quantize := range []bool{false, true} {
		for name, open := range sources {
			if name == "file" && !quantize {
				continue
			}
			cfg := smallConfig(1)
			cfg.NoBootstrap = true
			cfg.FeatureFrac = 1
			cfg.Tree.Quantize = quantize
			res, err := Train(open(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := core.Build(open(), cfg.Tree)
			if err != nil {
				t.Fatal(err)
			}
			var fb, pb bytes.Buffer
			if err := res.Forest.Trees[0].WriteJSON(&fb); err != nil {
				t.Fatal(err)
			}
			if err := plain.Tree.WriteJSON(&pb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fb.Bytes(), pb.Bytes()) {
				t.Errorf("quantize=%v %s: single-tree forest differs from the plain build", quantize, name)
			}
			if res.Forest.OOBCount != 0 {
				t.Errorf("quantize=%v %s: no-bootstrap forest reported %d OOB records", quantize, name, res.Forest.OOBCount)
			}
		}
	}
}

// TestForestOOBAndAccuracy: bootstrap forests must produce an out-of-bag
// estimate on a meaningful record count, and the compiled ensemble should
// classify its own training set well.
func TestForestOOBAndAccuracy(t *testing.T) {
	tbl := synth.Generate(synth.F2, 6000, 5)
	src := storage.NewMem(tbl)
	res, err := Train(src, smallConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Forest
	if f.OOBCount < tbl.NumRecords()/2 {
		t.Errorf("only %d of %d records have OOB votes", f.OOBCount, tbl.NumRecords())
	}
	if f.OOBError <= 0 || f.OOBError >= 0.5 {
		t.Errorf("implausible OOB error %v", f.OOBError)
	}
	cf := f.Compile()
	correct := 0
	for i := 0; i < tbl.NumRecords(); i++ {
		if cf.Predict(tbl.Row(i)) == tbl.Label(i) {
			correct++
		}
	}
	if acc := float64(correct) / float64(tbl.NumRecords()); acc < 0.9 {
		t.Errorf("train accuracy %v < 0.9", acc)
	}
}

// TestForestEncodeRoundTrip: deserializing and re-serializing reproduces
// the bytes, and the round-tripped compiled forest predicts identically.
func TestForestEncodeRoundTrip(t *testing.T) {
	tbl := synth.Generate(synth.F6, 4000, 11)
	src := storage.NewMem(tbl)
	cfg := smallConfig(4)
	cfg.FeatureFrac = 0.7
	res, err := Train(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw := serializeForest(t, res.Forest)
	back, err := ReadJSON(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if again := serializeForest(t, back); !bytes.Equal(raw, again) {
		t.Error("round trip changed the serialized model")
	}
	a, b := res.Forest.Compile(), back.Compile()
	for i := 0; i < 1000; i++ {
		if a.Predict(tbl.Row(i)) != b.Predict(tbl.Row(i)) {
			t.Fatalf("record %d: round-tripped forest disagrees", i)
		}
	}
}

// TestFeatureSubsetDeterminism: per-tree subsets are a pure function of
// (seed, tree index), distinct trees draw distinct subsets, and every
// subset has the requested size.
func TestFeatureSubsetDeterminism(t *testing.T) {
	schema := synth.Schema()
	cfg := Config{Seed: 99, FeatureFrac: 0.5}
	na := schema.NumAttrs()
	want := int(0.5*float64(na) + 0.5)
	distinct := false
	var prev []int
	for i := 0; i < 6; i++ {
		s1 := featureSubset(schema, cfg, -1, i)
		s2 := featureSubset(schema, cfg, -1, i)
		if len(s1) != want {
			t.Fatalf("tree %d: subset size %d, want %d", i, len(s1), want)
		}
		for j := range s1 {
			if s1[j] != s2[j] {
				t.Fatalf("tree %d: subset not deterministic", i)
			}
		}
		if prev != nil && !equalInts(prev, s1) {
			distinct = true
		}
		prev = s1
	}
	if !distinct {
		t.Error("all trees drew the same feature subset")
	}
	if featureSubset(schema, cfg, 0, 0) == nil {
		t.Error("target exclusion should not disable subsampling")
	}
	full := Config{Seed: 99, FeatureFrac: 1}
	if featureSubset(schema, full, -1, 0) != nil {
		t.Error("FeatureFrac=1 must allow every attribute (nil)")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestForestValidation rejects malformed configurations.
func TestForestValidation(t *testing.T) {
	tbl := synth.Generate(synth.F1, 200, 1)
	src := storage.NewMem(tbl)
	for name, row := range map[string]struct {
		mut   func(*Config)
		field string // the error names it
	}{
		"negative-trees":   {func(c *Config) { c.Trees = -1 }, "Trees"},
		"bad-feature-frac": {func(c *Config) { c.FeatureFrac = 1.5 }, "FeatureFrac"},
		"nan-feature-frac": {func(c *Config) { c.FeatureFrac = math.NaN() }, "FeatureFrac"},
		"unknown-target":   {func(c *Config) { c.Target = "no-such-attr" }, "no-such-attr"},
		"invalid-tree":     {func(c *Config) { c.Tree.MaxDepth = -1 }, "MaxDepth"},
		"split-attrs":      {func(c *Config) { c.Tree.SplitAttrs = []int{0, 1} }, "SplitAttrs"},
		"tree-obs":         {func(c *Config) { c.Tree.Obs = obs.NewCollector(1) }, "Obs"},
		"regression-quantize": {func(c *Config) {
			c.Target, c.Tree.Quantize = "salary", true
		}, "Quantize"},
		"regression-skip": {func(c *Config) {
			c.Target, c.Tree.Validation = "salary", core.ValidateSkip
		}, "ValidateSkip"},
		"regression-all-pairs": {func(c *Config) {
			c.Target, c.Tree.Algorithm, c.Tree.ObliqueAllPairs = "salary", core.CMPFull, true
		}, "ObliqueAllPairs"},
	} {
		cfg := smallConfig(2)
		row.mut(&cfg)
		if _, err := Train(src, cfg); err == nil || !strings.Contains(err.Error(), row.field) {
			t.Errorf("%s: err %v, want an error naming %s", name, err, row.field)
		}
	}
}

// countingSource counts the records its scans deliver, whichever way they
// are read.
type countingSource struct {
	storage.RangeSource
	read atomic.Int64
}

func (c *countingSource) Scan(fn func(rid int, vals []float64, label int) error) error {
	return c.RangeSource.Scan(func(rid int, vals []float64, label int) error {
		c.read.Add(1)
		return fn(rid, vals, label)
	})
}

func (c *countingSource) ScanRange(lo, hi int, stats *storage.Stats, fn func(rid int, vals []float64, label int) error) error {
	return c.RangeSource.ScanRange(lo, hi, stats, func(rid int, vals []float64, label int) error {
		c.read.Add(1)
		return fn(rid, vals, label)
	})
}

// TestForestInvalidTreeReadsNothing: a forest whose Tree config is invalid
// fails before it reads a record — in particular before a quantized
// forest scans the store into its index.
func TestForestInvalidTreeReadsNothing(t *testing.T) {
	tbl := synth.Generate(synth.F2, 500, 1)
	for name, mut := range map[string]func(*core.Config){
		"valid":           func(c *core.Config) {},
		"intervals=1":     func(c *core.Config) { c.Intervals = 1 },
		"cmp-quantized":   func(c *core.Config) { c.Algorithm = core.CMPFull },
		"bins=1":          func(c *core.Config) { c.QuantizeBins = 1 },
		"purity-stop=1.5": func(c *core.Config) { c.PurityStop = 1.5 },
	} {
		src := &countingSource{RangeSource: storage.NewMem(tbl)}
		cfg := smallConfig(2)
		cfg.Tree.Quantize = true
		mut(&cfg.Tree)
		_, err := Train(src, cfg)
		if name == "valid" {
			if err != nil || src.read.Load() == 0 {
				t.Fatalf("valid forest: err %v after %d records read", err, src.read.Load())
			}
			continue
		}
		if err == nil || src.read.Load() != 0 {
			t.Errorf("%s: err %v after %d records read, want an error before any read", name, err, src.read.Load())
		}
	}
}

// TestForestCollectObs: the merged report aggregates per-tree scans and
// I/O consistently with the result's own accounting.
func TestForestCollectObs(t *testing.T) {
	tbl := synth.Generate(synth.F2, 3000, 2)
	src := storage.NewMem(tbl)
	cfg := smallConfig(3)
	cfg.CollectObs = true
	res, err := Train(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("CollectObs produced no report")
	}
	if res.Report.IO.Scans != res.IO.Scans {
		t.Errorf("report IO scans %d != result %d", res.Report.IO.Scans, res.IO.Scans)
	}
	if res.Report.Build.TreeNodes != res.Forest.TotalNodes() {
		t.Errorf("report tree nodes %d != forest total %d", res.Report.Build.TreeNodes, res.Forest.TotalNodes())
	}
	if res.IO.Scans < int64(cfg.Trees) {
		t.Errorf("expected at least one scan per tree, got %d", res.IO.Scans)
	}
}
