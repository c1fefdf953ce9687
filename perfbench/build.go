package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"cmpdt"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// labelNoise is the share of generated labels flipped, in every store and
// holdout set.
const labelNoise = 0.05

// buildSetupReps and serveSetupReps are how many times a run repeats its
// set-up; setup_s is the median.
const (
	buildSetupReps = 5
	serveSetupReps = 3
)

// writeStore generates n records of fn into a CMPDT2 store at path.
func writeStore(path string, fn synth.Func, n int, seed int64) error {
	w, err := storage.CreateFile(path, synth.Schema())
	if err != nil {
		return err
	}
	if err := synth.GenerateTo(w, fn, n, seed, synth.Options{Noise: labelNoise}); err != nil {
		w.Abort()
		return err
	}
	_, err = w.Close()
	return err
}

// labeled is an in-memory record set with the generator's labels.
type labeled struct {
	records [][]float64
	labels  []int
}

func (l *labeled) Append(vals []float64, label int) error {
	l.records = append(l.records, append([]float64(nil), vals...))
	l.labels = append(l.labels, label)
	return nil
}

func generate(fn synth.Func, n int, seed int64) (*labeled, error) {
	l := &labeled{}
	return l, synth.GenerateTo(l, fn, n, seed, synth.Options{Noise: labelNoise})
}

// accuracy is the share of l's records whose label p predicts.
func accuracy(p cmpdt.Predictor, l *labeled) float64 {
	got := p.PredictBatchWorkers(nil, l.records, 1)
	hits := 0
	for i, c := range got {
		if c == l.labels[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(got))
}

// model is a trained classifier that can serialize itself: a *cmpdt.Tree
// or a *cmpdt.Forest.
type model interface {
	cmpdt.Predictor
	WriteModel(io.Writer) error
}

// buildSpec is one build workload: what it generates and how it trains.
type buildSpec struct {
	fn      synth.Func
	records int // per store, before scaling
	stores  int
	// train builds one model over the store at path; obs, when non-nil,
	// receives the build's report.
	train func(path string, obs *cmpdt.Observer) (model, error)
	// quantized says whether the builds run the bin-coded path.
	quantized bool
}

func trainRaw(path string, obs *cmpdt.Observer) (model, error) {
	t, _, err := cmpdt.TrainFile(path, cmpdt.Config{Algorithm: cmpdt.CMP, Workers: 2, Observer: obs})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// trainQuantTree builds one quantized CMP-B tree: the bin-coded path,
// which does not share the raw builder's failures (see doc.go).
func trainQuantTree(path string, obs *cmpdt.Observer) (model, error) {
	t, _, err := cmpdt.TrainFile(path, cmpdt.Config{Algorithm: cmpdt.CMPB, Quantize: true, Workers: 2, Observer: obs})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// forestTrainer returns a trainer for a quantized CMP-B forest of the
// given size, with a page cache that holds the whole store.
func forestTrainer(trees int) func(string, *cmpdt.Observer) (model, error) {
	return func(path string, obs *cmpdt.Observer) (model, error) {
		st, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		f, err := cmpdt.TrainForestFile(path, cmpdt.ForestConfig{
			Trees:       trees,
			FeatureFrac: 0.7,
			Parallel:    2,
			Tree: cmpdt.Config{
				Algorithm:  cmpdt.CMPB,
				Quantize:   true,
				Workers:    1,
				CacheBytes: 2*st.Size() + 1<<20,
			},
			Observer: obs,
		})
		if err != nil {
			return nil, err
		}
		return f, nil
	}
}

// store is one generated training set with its holdout.
type store struct {
	path    string
	holdout *labeled
	ref     []byte // serialized model of the store's first good build
	model   model  // the model ref serializes
}

// runBuild runs a build workload. Set-up writes the stores; the timed
// phase builds them round-robin until the budget is spent, at least once
// each and then twice for the first two, so every run checks determinism.
// A build fails on an error or when its serialized model differs from the
// store's first build. Different stores grow differently shaped trees, so
// a run spreads its builds over several stores to keep one seed's trees
// from setting its figures.
//
// The traced run builds every store once untraced and once more with an
// Observer, and compares the two store by store.
func runBuild(e *env, spec buildSpec) (*outcome, error) {
	out := newOutcome()
	n := e.records(spec.records)
	stores := make([]*store, spec.stores)

	var setups []float64
	for r := 0; r < buildSetupReps; r++ {
		start := time.Now()
		for i := range stores {
			// A fresh path each repetition: rewriting a store that was just
			// written makes its next build slower.
			path := e.path(fmt.Sprintf("store-%d-%d.rec", r, i))
			if err := writeStore(path, spec.fn, n, e.subSeed(i)); err != nil {
				return nil, err
			}
			if r > 0 {
				if err := os.Remove(stores[i].path); err != nil {
					return nil, err
				}
			}
			stores[i] = &store{path: path}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.e2e.set("setup_s", median(setups))
	for i, s := range stores {
		h, err := generate(spec.fn, e.records(10_000), e.subSeed(1000+i))
		if err != nil {
			return nil, err
		}
		s.holdout = h
	}

	build := func(s *store, obs *cmpdt.Observer) float64 {
		start := time.Now()
		m, err := spec.train(s.path, obs)
		ms := millis(time.Since(start))
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: build of %s failed: %v\n", s.path, err)
			out.count(false)
			return ms
		}
		var buf bytes.Buffer
		if err := m.WriteModel(&buf); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: serializing the model of %s: %v\n", s.path, err)
			out.count(false)
			return ms
		}
		if s.ref == nil {
			s.ref, s.model = buf.Bytes(), m
		}
		out.count(bytes.Equal(buf.Bytes(), s.ref))
		return ms
	}

	if err := startPeak(); err != nil {
		return nil, err
	}
	var times []float64
	if e.trace {
		for _, s := range stores {
			times = append(times, build(s, nil))
		}
	} else {
		start := time.Now()
		for i := 0; i < len(stores)+2 || time.Since(start) < e.budget; i++ {
			times = append(times, build(stores[i%len(stores)], nil))
		}
	}
	peak, err := peakMiB()
	if err != nil {
		return nil, err
	}
	sorted := append([]float64(nil), times...)
	sort.Float64s(sorted)
	out.e2e.set("latency_p50_ms", median(sorted))
	out.e2e.set("latency_p90_ms", nearestRank(sorted, 0.90))
	out.e2e.set("latency_p99_ms", nearestRank(sorted, 0.99))
	out.e2e.set("records_per_s", float64(n)/(median(sorted)/1000))
	out.e2e.set("max_rss_mb", peak)
	out.samples["builds_timed"] = len(times)
	out.samples["stores"] = len(stores)
	out.samples["records_per_store"] = n

	var accs []float64
	for _, s := range stores {
		if s.model != nil {
			accs = append(accs, accuracy(s.model, s.holdout))
		}
	}
	if len(accs) == 0 {
		return nil, fmt.Errorf("no build succeeded")
	}
	out.e2e.set("accuracy", mean(accs))

	if e.trace {
		settle()
		mem := startMem()
		var ratios []float64
		var reps []*cmpdt.BuildReport
		for i, s := range stores {
			obs := cmpdt.NewObserver()
			ratios = append(ratios, build(s, obs)/times[i])
			if rep := obs.Report(); rep != nil {
				reps = append(reps, rep)
			}
		}
		d := mem.stop()
		if len(reps) == 0 {
			return nil, fmt.Errorf("no traced build succeeded")
		}
		out.samples["builds_traced"] = len(stores)
		setRuntime(out.layers, d, int64(n)*int64(len(stores)))
		// Traced over untraced build time is untraced over traced
		// records_per_s.
		out.layers.set("bench.trace_overhead", median(ratios))
		reportLayers(out.layers, reps, spec.quantized)
		if stores[0].model == nil {
			return nil, fmt.Errorf("the first store never built")
		}
		if err := buildTreeLayers(e, out, stores[0]); err != nil {
			return nil, err
		}
	}
	out.e2e.set("ok_frac", out.okFrac())
	return out, nil
}

// buildTreeLayers measures the storage scan, the tree and the serving
// stack on a build workload's first store and its reference model.
func buildTreeLayers(e *env, out *outcome, s *store) error {
	ns, err := scanNsPerRecord(s.path)
	if err != nil {
		return err
	}
	out.layers.set("storage.scan_ns_per_record", ns)
	path := e.path("model.json")
	if err := os.WriteFile(path, s.ref, 0o644); err != nil {
		return err
	}
	single := make([][][]float64, len(s.holdout.records))
	for i, r := range s.holdout.records {
		single[i] = [][]float64{r}
	}
	scoreNs, err := treeLayers(out.layers, s.model, path, single)
	if err != nil {
		return err
	}
	forestLayers(out.layers, s.model)
	return serveProbe(e, out.layers, path, s.model, s.holdout, out, scoreNs)
}
