package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"cmpdt/internal/core"
	"cmpdt/internal/forest"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// goldenPath holds one "<row> <sha256 of the serialized model>" line per
// golden build. On a mismatch the test logs the file its builds would
// produce, so an intended change regenerates it by copying that log.
const goldenPath = "testdata/golden_trees.sha256"

// goldenTreeConfig is the evaluation default, serial, with a small
// in-memory threshold so the scan rounds (prediction, alive intervals,
// double splits, collects) do most of the work on 10k-record stores.
func goldenTreeConfig(algo core.Algorithm, quantize bool) core.Config {
	cfg := core.Default(algo)
	cfg.Workers = 1
	cfg.InMemoryNodeRecords = 500
	cfg.Quantize = quantize
	return cfg
}

func goldenStore(fn synth.Func, seed int64) *storage.Mem {
	return storage.NewMem(synth.Generate(fn, 10_000, seed))
}

// goldenModels serializes every golden build, keyed by row name, in row
// order.
func goldenModels(t *testing.T) (names []string, models map[string][]byte) {
	models = map[string][]byte{}
	add := func(name string, write func(io.Writer) error) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names = append(names, name)
		models[name] = buf.Bytes()
	}
	build := func(name string, src storage.Source, cfg core.Config) {
		res, err := core.Build(src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, res.Tree.WriteJSON)
	}
	algos := []struct {
		name string
		algo core.Algorithm
	}{{"CMPS", core.CMPS}, {"CMPB", core.CMPB}, {"CMP", core.CMPFull}}
	for fn := synth.F1; fn <= synth.F10; fn++ {
		for _, a := range algos {
			build(fmt.Sprintf("F%d/%s/raw", int(fn), a.name), goldenStore(fn, int64(fn)), goldenTreeConfig(a.algo, false))
			build(fmt.Sprintf("F%d/%s/quantized", int(fn), a.name), goldenStore(fn, int64(fn)), goldenTreeConfig(a.algo, true))
		}
	}

	// Numeric-only SplitAttrs: every split lands on one axis, so children
	// of on-axis second splits inherit the parent's X-axis (the only regime
	// where that inheritance is enabled).
	cfg := goldenTreeConfig(core.CMPB, true)
	cfg.InMemoryNodeRecords = -1
	cfg.Prune = false
	cfg.SplitAttrs = []int{8} // loan
	build("F7/CMPB/quantized/splitattrs=8", goldenStore(synth.F7, 3), cfg)

	// 8-tree quantized CMP-B forests with per-tree feature subsets. F2 is
	// the benchmark's forest workload; F3's forest also changes if the
	// X-axis stickiness changes. At FeatureFrac 0.3 a tree may split on
	// three of nine attributes, often on one numeric attribute only, whose
	// marginal then comes from matrices whose Y axes it may not split on:
	// seed 44 gives both forests such trees that split on that attribute
	// below the root.
	for _, row := range []struct {
		fn   synth.Func
		frac float64
		seed int64
	}{{synth.F2, 0.7, 42}, {synth.F3, 0.7, 42}, {synth.F3, 0.3, 44}, {synth.F5, 0.3, 44}} {
		res, err := forest.Train(goldenStore(row.fn, int64(row.fn)), forest.Config{
			Trees:       8,
			FeatureFrac: row.frac,
			Seed:        row.seed,
			Parallel:    2,
			Tree:        goldenTreeConfig(core.CMPB, true),
		})
		if err != nil {
			t.Fatalf("forest: %v", err)
		}
		add(fmt.Sprintf("F%d/forest8/featurefrac=%g", int(row.fn), row.frac), res.Forest.WriteJSON)
	}
	return names, models
}

// TestGoldenTrees pins the serialized model of every builder variant on
// every Agrawal function, raw and quantized, plus the axis-inheritance and
// forest rows: the byte-level safety net for refactors of the construction
// engines.
func TestGoldenTrees(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, sum, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			want[name] = sum
		}
	}
	names, models := goldenModels(t)
	var regen strings.Builder
	for _, name := range names {
		sum := sha256.Sum256(models[name])
		got := hex.EncodeToString(sum[:])
		fmt.Fprintf(&regen, "%s %s\n", name, got)
		if want[name] != got {
			t.Errorf("%s: sha256 %s, golden %q", name, got, want[name])
		}
	}
	if len(want) != len(names) {
		t.Errorf("%s has %d rows, the test builds %d", goldenPath, len(want), len(names))
	}
	if t.Failed() {
		t.Logf("regenerated %s:\n%s", goldenPath, regen.String())
	}
}
