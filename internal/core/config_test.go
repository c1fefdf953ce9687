package core_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cmpdt"
	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/eval"
	"cmpdt/internal/forest"
	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

// TestConfigZeroIsDefault: the zero Config is the paper's configuration,
// and Validate is idempotent.
func TestConfigZeroIsDefault(t *testing.T) {
	for _, a := range allAlgorithms {
		zero, err := core.Config{Algorithm: a}.Validate()
		if err != nil {
			t.Fatal(err)
		}
		def, err := core.Default(a).Validate()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(zero, def) {
			t.Errorf("%v: Config{Algorithm}.Validate() = %+v, Default(a).Validate() = %+v", a, zero, def)
		}
		q := core.Config{Algorithm: a, Quantize: a == core.CMPS || a == core.CMPB}
		for _, c := range []core.Config{zero, q} {
			once, err := c.Validate()
			if err != nil {
				t.Fatal(err)
			}
			twice, err := once.Validate()
			if err != nil || !reflect.DeepEqual(once, twice) {
				t.Errorf("%v: Validate is not idempotent: %+v, then %+v (%v)", a, once, twice, err)
			}
		}
	}
}

// allAlgorithms lists every algorithm the core engine builds.
var allAlgorithms = []core.Algorithm{core.CMPS, core.CMPB, core.CMPFull, core.CLOUDSSSE, core.CLOUDSSS}

// knobEffect is what a run reports of the knobs under test.
type knobEffect struct {
	quantized  bool
	salaryBins int   // salary's code-table size; 0 when not reported
	skipped    int64 // invalid records dropped; -1 when not reported
}

// knobEntry runs one entry point under a config and reports the effect.
type knobEntry struct {
	name string
	// quantized: the entry point builds quantized whatever cfg.Quantize
	// says (BuildIndexed, a pre-quantized source).
	quantized bool
	// baseline: a non-CMP algorithm, with its own rejections.
	baseline bool
	// public: drives the cmpdt API, which carries a subset of the knobs.
	public bool
	// clean: trains on a table with no invalid record.
	clean bool
	// opaque: reports no effect; the run checks its knobs itself.
	opaque bool
	run    func(t *testing.T, cfg core.Config) (knobEffect, error)
}

// knobTables are the runs' training sets: Function 2 and, for the CMP
// family, the same records with an infinite salary in record 5, so
// ValidateStrict aborts naming it and ValidateSkip drops it.
func knobTables() (clean, dirty *dataset.Table) {
	clean = synth.Generate(synth.F2, 600, 3)
	dirty = synth.Generate(synth.F2, 600, 3)
	dirty.Row(5)[synth.AttrSalary] = math.Inf(1)
	return clean, dirty
}

// publicConfig copies the knobs cmpdt.Config carries.
func publicConfig(c core.Config) cmpdt.Config {
	return cmpdt.Config{
		Algorithm:           cmpdt.Algorithm(c.Algorithm),
		Intervals:           c.Intervals,
		MaxAlive:            c.MaxAlive,
		MaxDepth:            c.MaxDepth,
		InMemoryNodeRecords: c.InMemoryNodeRecords,
		DisablePruning:      c.DisablePruning,
		ObliqueAllPairs:     c.ObliqueAllPairs,
		Workers:             c.Workers,
		Seed:                c.Seed,
		Validation:          cmpdt.ValidationPolicy(c.Validation),
		CacheBytes:          c.CacheBytes,
		Quantize:            c.Quantize,
		QuantizeBins:        c.QuantizeBins,
	}
}

// publicDataset copies tbl into a cmpdt.Dataset.
func publicDataset(t *testing.T, tbl *dataset.Table) *cmpdt.Dataset {
	t.Helper()
	s := cmpdt.Schema{Classes: tbl.Schema().Classes}
	for _, a := range tbl.Schema().Attrs {
		s.Attrs = append(s.Attrs, cmpdt.Attr{Name: a.Name, Values: a.Values})
	}
	ds, err := cmpdt.NewDataset(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tbl.NumRecords(); i++ {
		if err := ds.Append(tbl.Row(i), tbl.Label(i)); err != nil {
			t.Fatal(err)
		}
	}
	return ds
}

// preQuantized encodes tbl with 8 equal-count cut points per numeric
// attribute into an in-memory code store.
func preQuantized(t *testing.T, tbl *dataset.Table) *storage.QuantMem {
	t.Helper()
	schema := tbl.Schema()
	attrs := make([]storage.QuantAttr, schema.NumAttrs())
	for a := range attrs {
		if schema.Attrs[a].Kind != dataset.Numeric {
			continue
		}
		col := append([]float64(nil), tbl.Column(a)...)
		sort.Float64s(col)
		var cuts []float64
		for i := 1; i < 8; i++ {
			if c := col[i*len(col)/8]; len(cuts) == 0 || c > cuts[len(cuts)-1] {
				cuts = append(cuts, c)
			}
		}
		attrs[a] = storage.QuantAttr{Cuts: cuts, Max: math.Nextafter(col[len(col)-1], math.Inf(1))}
	}
	qz, err := storage.NewQuantizer(schema, attrs)
	if err != nil {
		t.Fatal(err)
	}
	qm := storage.NewQuantMem(qz)
	for i := 0; i < tbl.NumRecords(); i++ {
		if err := qm.Append(tbl.Row(i), tbl.Label(i)); err != nil {
			t.Fatal(err)
		}
	}
	return qm
}

func coreEffect(s core.Stats) knobEffect {
	e := knobEffect{quantized: s.Quantized, skipped: s.SkippedRecords}
	if s.Quantized {
		e.salaryBins = s.QuantBinsPerAttr[synth.AttrSalary]
	}
	return e
}

func reportEffect(rep *obs.Report) knobEffect {
	e := knobEffect{quantized: rep.Quant.Enabled, skipped: rep.Build.SkippedRecords}
	if rep.Quant.Enabled {
		e.salaryBins = rep.Quant.BinsPerAttr[synth.AttrSalary]
	}
	return e
}

// knobEntries lists every entry point that accepts the CMP knobs.
func knobEntries(t *testing.T) []knobEntry {
	clean, dirty := knobTables()
	ix, err := core.NewIndex(context.Background(), storage.NewMem(dirty), 1)
	if err != nil {
		t.Fatal(err)
	}
	qm := preQuantized(t, clean)
	pub := publicDataset(t, dirty)
	evalName := func(a core.Algorithm) string {
		if name, ok := map[core.Algorithm]string{
			core.CMPS: eval.AlgoCMPS, core.CMPFull: eval.AlgoCMP,
			core.CLOUDSSSE: eval.AlgoCLOUDS, core.CLOUDSSS: eval.AlgoCLOUDSSS,
		}[a]; ok {
			return name
		}
		return eval.AlgoCMPB // CMP-B, or an unknown Algorithm eval must reject
	}
	return []knobEntry{
		{name: "core.Build", run: func(t *testing.T, cfg core.Config) (knobEffect, error) {
			res, err := core.Build(storage.NewMem(dirty), cfg)
			if err != nil {
				return knobEffect{}, err
			}
			return coreEffect(res.Stats), nil
		}},
		{name: "core.Build/pre-quantized", quantized: true, clean: true, run: func(t *testing.T, cfg core.Config) (knobEffect, error) {
			res, err := core.Build(qm, cfg)
			if err != nil {
				return knobEffect{}, err
			}
			e := coreEffect(res.Stats)
			e.salaryBins, e.skipped = 0, -1 // the store's own tables; no invalid record
			return e, nil
		}},
		{name: "core.BuildIndexed", quantized: true, run: func(t *testing.T, cfg core.Config) (knobEffect, error) {
			res, err := core.BuildIndexed(context.Background(), ix, storage.FullMask(dirty.NumRecords()), cfg)
			if err != nil {
				return knobEffect{}, err
			}
			return coreEffect(res.Stats), nil
		}},
		{name: "forest.Train", run: func(t *testing.T, cfg core.Config) (knobEffect, error) {
			res, err := forest.Train(storage.NewMem(dirty), forest.Config{Trees: 2, NoBootstrap: true, Parallel: 1, Tree: cfg, CollectObs: true})
			if err != nil {
				return knobEffect{}, err
			}
			return reportEffect(res.Report), nil
		}},
		{name: "eval.Run", run: func(t *testing.T, cfg core.Config) (knobEffect, error) {
			res, _, err := eval.Run(evalName(cfg.Algorithm), storage.NewMem(dirty), nil, nil, eval.Options{Tree: cfg})
			if err != nil {
				return knobEffect{}, err
			}
			return coreEffect(*res.CoreStats), nil
		}},
		{name: "eval.Run/sprint", baseline: true, clean: true, run: func(t *testing.T, cfg core.Config) (knobEffect, error) {
			cfg.Algorithm = core.CMPS // the name picks the algorithm
			_, _, err := eval.Run(eval.AlgoSPRINT, storage.NewMem(clean), nil, nil, eval.Options{Tree: cfg})
			return knobEffect{skipped: -1}, err
		}},
		{name: "cmpdt.TrainStats", public: true, run: func(t *testing.T, cfg core.Config) (knobEffect, error) {
			_, st, err := cmpdt.TrainStats(pub, publicConfig(cfg))
			if err != nil {
				return knobEffect{}, err
			}
			return knobEffect{quantized: st.Quantized, skipped: st.SkippedRecords}, nil
		}},
		{name: "cmpdt.TrainForest", public: true, run: func(t *testing.T, cfg core.Config) (knobEffect, error) {
			o := cmpdt.NewObserver()
			_, err := cmpdt.TrainForest(pub, cmpdt.ForestConfig{Trees: 2, NoBootstrap: true, Parallel: 1, Tree: publicConfig(cfg), Observer: o})
			if err != nil {
				return knobEffect{}, err
			}
			return reportEffect(o.Report()), nil
		}},
		{name: "cmpdt.CrossValidate", public: true, opaque: true, run: func(t *testing.T, cfg core.Config) (knobEffect, error) {
			// Every knob is passed through: the folds equal eval's under
			// the same config, and so do its errors (but for CacheBytes,
			// which cmpdt alone rejects for an in-memory dataset, and the
			// CLOUDS algorithms, which cmpdt does not name).
			got, _, err := cmpdt.CrossValidate(pub, publicConfig(cfg), 2)
			cv, evalErr := eval.CrossValidate(evalName(cfg.Algorithm), dirty, 2, eval.Options{Tree: cfg})
			if cfg.CacheBytes == 0 && cfg.Algorithm < core.CLOUDSSSE && (err == nil) != (evalErr == nil) {
				t.Errorf("cmpdt.CrossValidate err %v, eval.CrossValidate err %v", err, evalErr)
			}
			if err != nil {
				return knobEffect{}, err
			}
			for i, f := range cv.Folds {
				if got[i] != f.Report.Accuracy {
					t.Errorf("fold %d: cmpdt accuracy %v, eval %v", i, got[i], f.Report.Accuracy)
				}
			}
			return knobEffect{skipped: -1}, nil
		}},
	}
}

// wantKnobError is the field the first rejected knob of cfg names at
// entry point e, or "" when e honours every knob.
func wantKnobError(e knobEntry, c core.Config) string {
	if e.baseline {
		switch {
		case c.Quantize:
			return "Quantize"
		case c.QuantizeBins != 0:
			return "QuantizeBins"
		case c.Validation == core.ValidateSkip:
			return "ValidateSkip"
		case c.ObliqueAllPairs:
			return "ObliqueAllPairs"
		}
		return ""
	}
	if e.public && c.Algorithm >= core.CLOUDSSSE {
		return "Algorithm" // cmpdt names the CMP variants only
	}
	q := c.Quantize || e.quantized
	switch {
	case c.ObliqueAllPairs && (c.Algorithm != core.CMPFull || q):
		return "ObliqueAllPairs"
	case q && (c.Algorithm == core.CMPFull || c.Algorithm >= core.CLOUDSSSE):
		return "Quantize"
	case !q && c.QuantizeBins != 0:
		return "QuantizeBins"
	}
	return ""
}

// TestConfigHonouredOrRejected runs the knob cross-product (Algorithm ×
// Quantize × QuantizeBins × ObliqueAllPairs × Validation), then one range
// violation per checked field, through every entry point. Each run either
// fails with an error naming the knob, or shows in its result that every
// knob took effect: a quantized build reports Quantized and QuantizeBins'
// table size, ValidateSkip drops the invalid record and ValidateStrict
// aborts on it. ObliqueAllPairs' effect on raw full CMP is pinned by
// TestObliqueAllPairsFindsLinearBoundary and the Ff/CMP/raw/allpairs golden
// tree.
func TestConfigHonouredOrRejected(t *testing.T) {
	entries := knobEntries(t)
	for _, algo := range allAlgorithms {
		for _, quantize := range []bool{false, true} {
			for _, bins := range []int{0, 16} {
				for _, allPairs := range []bool{false, true} {
					for _, v := range []core.ValidationPolicy{core.ValidateStrict, core.ValidateSkip} {
						cfg := core.Config{Algorithm: algo, Workers: 1, Quantize: quantize, QuantizeBins: bins, ObliqueAllPairs: allPairs, Validation: v}
						for _, e := range entries {
							name := fmt.Sprintf("%s/%v/quantize=%v/bins=%d/allpairs=%v/skip=%v", e.name, algo, quantize, bins, allPairs, v == core.ValidateSkip)
							checkKnobRow(t, name, e, cfg)
						}
					}
				}
			}
		}
	}

	for _, r := range []struct {
		field  string
		public bool // cmpdt.Config carries the field
		mut    func(*core.Config)
	}{
		{"Algorithm", true, func(c *core.Config) { c.Algorithm = 7 }},
		{"Validation", true, func(c *core.Config) { c.Validation = 5 }},
		{"Intervals", true, func(c *core.Config) { c.Intervals = 1 }},
		{"Intervals", true, func(c *core.Config) { c.Intervals = -3 }},
		{"MaxAlive", true, func(c *core.Config) { c.MaxAlive = -1 }},
		{"MaxDepth", true, func(c *core.Config) { c.MaxDepth = -1 }},
		{"Workers", true, func(c *core.Config) { c.Workers = -1 }},
		{"QuantizeBins", true, func(c *core.Config) { c.Quantize, c.QuantizeBins = true, 1 }},
		{"QuantizeBins", true, func(c *core.Config) { c.Quantize, c.QuantizeBins = true, 70_000 }},
		{"SplitAttrs", false, func(c *core.Config) { c.SplitAttrs = []int{99} }},
		{"PurityStop", false, func(c *core.Config) { c.PurityStop = math.NaN() }},
		{"PurityStop", false, func(c *core.Config) { c.PurityStop = 1.5 }},
		{"PurityStop", false, func(c *core.Config) { c.PurityStop = -0.1 }},
	} {
		cfg := core.Config{Algorithm: core.CMPB, Workers: 1}
		r.mut(&cfg)
		for _, e := range entries {
			if (e.public && !r.public) || (e.baseline && (cfg.Quantize || r.field == "Algorithm")) {
				continue // a knob the entry point cannot take, or rejects first
			}
			if _, err := e.run(t, cfg); err == nil || !strings.Contains(err.Error(), r.field) {
				t.Errorf("%s/%+v: err %v, want an error naming %s", e.name, cfg, err, r.field)
			}
		}
	}

	// The cmpdt API has no page cache to size for an in-memory dataset.
	for _, e := range entries {
		cfg := core.Config{Algorithm: core.CMPB, Workers: 1, Validation: core.ValidateSkip, CacheBytes: 1 << 20}
		if e.baseline {
			cfg.Validation = core.ValidateStrict
		}
		_, err := e.run(t, cfg)
		if e.public && (err == nil || !strings.Contains(err.Error(), "CacheBytes")) {
			t.Errorf("%s: err %v, want an error naming CacheBytes", e.name, err)
		}
		if !e.public && err != nil {
			t.Errorf("%s: CacheBytes over a Mem source: %v", e.name, err)
		}
	}

	// CLOUDS honours every knob that cannot change its tree, beside
	// ValidateSkip (checked above).
	for _, algo := range []core.Algorithm{core.CLOUDSSSE, core.CLOUDSSS} {
		for _, e := range entries {
			if e.public || e.baseline || e.quantized {
				continue
			}
			cfg := core.Config{Algorithm: algo, Workers: 2, Validation: core.ValidateSkip, CacheBytes: 1 << 20}
			if got, err := e.run(t, cfg); err != nil || got.skipped == 0 {
				t.Errorf("%s/%v: Workers 2, CacheBytes and ValidateSkip: %d skipped, err %v", e.name, algo, got.skipped, err)
			}
		}
	}

	// The exact-tree baselines honour the split attributes: F2 splits on
	// age alone under SplitAttrs [age].
	clean, _ := knobTables()
	for _, algo := range []string{eval.AlgoSPRINT, eval.AlgoSLIQ, eval.AlgoRainForest, eval.AlgoWindow} {
		cfg := core.Config{SplitAttrs: []int{synth.AttrAge}}
		_, tr, err := eval.Run(algo, storage.NewMem(clean), nil, nil, eval.Options{Tree: cfg})
		if err != nil {
			t.Errorf("%s with SplitAttrs: %v", algo, err)
			continue
		}
		tr.Walk(func(n *tree.Node, _ int) {
			if !n.IsLeaf() && n.Split.Attr != synth.AttrAge {
				t.Errorf("%s ignores SplitAttrs: it splits on attribute %d", algo, n.Split.Attr)
			}
		})
	}
}

// checkKnobRow runs cfg through e and checks the outcome.
func checkKnobRow(t *testing.T, name string, e knobEntry, cfg core.Config) {
	t.Helper()
	got, err := e.run(t, cfg)
	want := wantKnobError(e, cfg)
	if want != "" {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err %v, want an error naming %s", name, err, want)
		}
		return
	}
	if cfg.Validation == core.ValidateStrict && !e.clean {
		if err == nil || !strings.Contains(err.Error(), "invalid") {
			t.Errorf("%s: err %v, want ValidateStrict to abort on the infinite record", name, err)
		}
		return
	}
	if err != nil {
		t.Errorf("%s: %v", name, err)
		return
	}
	if e.baseline || e.opaque {
		return
	}
	if got.skipped >= 0 && (got.skipped == 0) != (cfg.Validation == core.ValidateStrict) {
		t.Errorf("%s: %d records skipped", name, got.skipped)
	}
	if q := cfg.Quantize || e.quantized; got.quantized != q {
		t.Errorf("%s: quantized %v, want %v", name, got.quantized, q)
	}
	if got.salaryBins != 0 && (got.salaryBins <= 16) != (cfg.QuantizeBins == 16) {
		t.Errorf("%s: salary has %d codes under QuantizeBins %d", name, got.salaryBins, cfg.QuantizeBins)
	}
}

// FuzzConfigValidate: over arbitrary knob values, Validate either rejects
// the config or accepts one that validates to itself and builds a tree
// over a 300-record store without error or panic.
func FuzzConfigValidate(f *testing.F) {
	f.Add(uint8(0), false, false, uint8(0), int16(0), int16(0), int16(0), int16(0), int32(0), int32(0), int8(1), 0.0, int64(0))
	f.Add(uint8(1), true, false, uint8(1), int16(16), int16(1), int16(4), int16(2), int32(-1), int32(-1), int8(2), 0.9, int64(7))
	f.Add(uint8(2), false, true, uint8(0), int16(8), int16(2), int16(-1), int16(1), int32(64), int32(100), int8(0), math.NaN(), int64(-3))
	tbl := synth.Generate(synth.FPaper, 300, 5)
	f.Fuzz(func(t *testing.T, algo uint8, quantize, allPairs bool, validation uint8,
		intervals, maxAlive, maxDepth, bins int16,
		inMem, sample int32, workers int8, purity float64, seed int64) {
		cfg := core.Config{
			Algorithm:           core.Algorithm(algo % 6),
			Quantize:            quantize,
			ObliqueAllPairs:     allPairs,
			Validation:          core.ValidationPolicy(validation % 3),
			Intervals:           int(intervals) % 300,
			MaxAlive:            int(maxAlive) % 8,
			MaxDepth:            int(maxDepth) % 64,
			QuantizeBins:        int(bins),
			InMemoryNodeRecords: int(inMem),
			DiscretizeSample:    int(sample),
			Workers:             int(workers) % 5,
			PurityStop:          purity,
			Seed:                seed,
		}
		valid, err := cfg.Validate()
		if err != nil {
			return
		}
		again, err := valid.Validate()
		if err != nil || !reflect.DeepEqual(again, valid) {
			t.Fatalf("Validate not idempotent: %+v, then %+v (%v)", valid, again, err)
		}
		if _, err := core.Build(storage.NewMem(tbl), cfg); err != nil {
			t.Fatalf("valid config %+v: %v", valid, err)
		}
	})
}
