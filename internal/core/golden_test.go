package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"cmpdt/internal/core"
	"cmpdt/internal/forest"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// goldenPath holds one "<row> <sha256 of the serialized model> <stats>"
// line per golden build. <stats> is the build's Stats (every field but the
// wall-clock QuantizeNs) or, for a forest, its merged build summary (every
// field but WallNs): the scans, rounds, double splits and peak memory the
// paper's figures read. On a mismatch the test logs the file its builds
// would produce, so an intended change regenerates it by copying that log.
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

// goldenStats renders a build's Stats for its golden row, less the
// wall-clock QuantizeNs.
func goldenStats(s core.Stats) string {
	s.QuantizeNs = 0
	return fmt.Sprintf("%+v", s)
}

// goldenModels serializes every golden build, keyed by row name, in row
// order, with the stats pinned next to it.
func goldenModels(t *testing.T) (names []string, models map[string][]byte, stats map[string]string) {
	models = map[string][]byte{}
	stats = map[string]string{}
	add := func(name string, write func(io.Writer) error, pinned string) {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		names = append(names, name)
		models[name] = buf.Bytes()
		stats[name] = pinned
	}
	build := func(name string, src storage.Source, cfg core.Config) {
		res, err := core.Build(src, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		add(name, res.Tree.WriteJSON, goldenStats(res.Stats))
	}
	algos := []struct {
		name      string
		algo      core.Algorithm
		quantized bool // full CMP and CLOUDS are never quantized
	}{
		{"CMPS", core.CMPS, true}, {"CMPB", core.CMPB, true}, {"CMP", core.CMPFull, false},
		{"CLOUDSSSE", core.CLOUDSSSE, false}, {"CLOUDSSS", core.CLOUDSSS, false},
	}
	for fn := synth.F1; fn <= synth.F10; fn++ {
		for _, a := range algos {
			build(fmt.Sprintf("F%d/%s/raw", int(fn), a.name), goldenStore(fn, int64(fn)), goldenTreeConfig(a.algo, false))
			if a.quantized {
				build(fmt.Sprintf("F%d/%s/quantized", int(fn), a.name), goldenStore(fn, int64(fn)), goldenTreeConfig(a.algo, true))
			}
		}
	}

	// Numeric-only SplitAttrs: every split lands on one axis, so children
	// of on-axis second splits inherit the parent's X-axis (the only regime
	// where that inheritance is enabled).
	cfg := goldenTreeConfig(core.CMPB, true)
	cfg.InMemoryNodeRecords = -1
	cfg.DisablePruning = true
	cfg.SplitAttrs = []int{8} // loan
	build("F7/CMPB/quantized/splitattrs=8", goldenStore(synth.F7, 3), cfg)

	// Greenwald-Khanna discretization over a full pass instead of the
	// prefix sample.
	for _, q := range []bool{false, true} {
		cfg := goldenTreeConfig(core.CMPB, q)
		cfg.DiscretizeSample = -1
		build(fmt.Sprintf("F2/CMPB/%s/gk", rawOrQuantized(q)), goldenStore(synth.F2, 2), cfg)
	}

	// Full CMP with matrices over every numeric pair, on Function f: the
	// linear splits come from the (salary, commission) pair matrix.
	cfg = goldenTreeConfig(core.CMPFull, false)
	cfg.ObliqueAllPairs = true
	build("Ff/CMP/raw/allpairs", goldenStore(synth.FPaper, 11), cfg)

	// ValidateSkip over a store holding NaN, infinite and out-of-range
	// categorical records: the skipped records never reach a histogram.
	for _, q := range []bool{false, true} {
		cfg := goldenTreeConfig(core.CMPB, q)
		cfg.Validation = core.ValidateSkip
		build(fmt.Sprintf("F2/CMPB/%s/skip", rawOrQuantized(q)), corruptGoldenStore(synth.F2, 2), cfg)
	}

	// Two scan workers: shards merged in worker-index order, and (raw) the
	// split evaluations precomputed across the pool.
	for _, a := range []struct {
		name     string
		algo     core.Algorithm
		quantize bool
	}{{"CMP", core.CMPFull, false}, {"CMPB", core.CMPB, true}} {
		cfg := goldenTreeConfig(a.algo, a.quantize)
		cfg.Workers = 2
		build(fmt.Sprintf("F7/%s/%s/workers=2", a.name, rawOrQuantized(a.quantize)), goldenStore(synth.F7, 7), cfg)
	}

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
			CollectObs:  true,
		})
		if err != nil {
			t.Fatalf("forest: %v", err)
		}
		summary := res.Report.Build
		summary.WallNs = 0
		add(fmt.Sprintf("F%d/forest8/featurefrac=%g", int(row.fn), row.frac), res.Forest.WriteJSON,
			fmt.Sprintf("%+v", summary))
	}
	return names, models, stats
}

func rawOrQuantized(quantize bool) string {
	if quantize {
		return "quantized"
	}
	return "raw"
}

// corruptGoldenStore is goldenStore with invalid records injected: NaN
// and infinite numeric values and an out-of-range categorical code.
func corruptGoldenStore(fn synth.Func, seed int64) *storage.Mem {
	tbl := synth.Generate(fn, 10_000, seed)
	tbl.Row(7)[synth.AttrSalary] = math.NaN()
	tbl.Row(911)[synth.AttrAge] = math.Inf(1)
	tbl.Row(1500)[synth.AttrCar] = 99
	tbl.Row(4242)[synth.AttrLoan] = math.NaN()
	tbl.Row(9001)[synth.AttrElevel] = -1
	return storage.NewMem(tbl)
}

// TestGoldenTrees pins the serialized model and the build statistics of
// every builder variant on every Agrawal function, raw and quantized, plus
// rows for axis inheritance, GK discretization, all-pairs oblique splits,
// skipped invalid records, two scan workers and forests: the byte-level
// safety net for refactors of the construction engine.
func TestGoldenTrees(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, pin, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			want[name] = pin
		}
	}
	names, models, stats := goldenModels(t)
	var regen strings.Builder
	for _, name := range names {
		sum := sha256.Sum256(models[name])
		got := hex.EncodeToString(sum[:]) + " " + stats[name]
		fmt.Fprintf(&regen, "%s %s\n", name, got)
		if want[name] != got {
			t.Errorf("%s:\n got    %s\n golden %s", name, got, want[name])
		}
	}
	if len(want) != len(names) {
		t.Errorf("%s has %d rows, the test builds %d", goldenPath, len(want), len(names))
	}
	if t.Failed() {
		t.Logf("regenerated %s:\n%s", goldenPath, regen.String())
	}
}
