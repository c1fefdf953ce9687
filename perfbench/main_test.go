package main

import (
	"encoding/json"
	"os"
	"slices"
	"sort"
	"testing"

	"cmpdt"
)

// benchmarkFile is the part of ../BENCHMARK.json the self-test checks.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the code %d", len(b.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i] || m.Unit != units[m.Name] {
			t.Errorf("end_to_end[%d] = %s (%s), code has %s (%s)", i, m.Name, m.Unit, endToEnd[i], units[endToEnd[i]])
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d per-layer metrics, the code %d", len(b.PerLayer), len(perLayer))
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i] || m.Unit != units[m.Name] {
			t.Errorf("per_layer[%d] = %s (%s), code has %s (%s)", i, m.Name, m.Unit, perLayer[i], units[perLayer[i]])
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not registered", w.Name)
		}
	}
}

// tiny runs a workload at a small fraction of its size for a fraction of
// a second.
func tiny(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.3, trace: trace, scale: 0.1, workdir: t.TempDir()}
}

func names[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestEveryWorkloadEmitsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range readBenchmarkFile(t).Workloads {
		t.Run(w.Name, func(t *testing.T) {
			var e2eNames [2][]string
			for i, trace := range []bool{false, true} {
				rep, res, err := execute(tiny(t, w.Name, trace))
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				declared := endToEnd
				if trace {
					declared = perLayer
				}
				if len(res.Metrics) != len(declared) {
					t.Errorf("trace=%v: result has %d metrics, want %d", trace, len(res.Metrics), len(declared))
				}
				for _, name := range declared {
					m, ok := res.Metrics[name]
					if !ok || m.Unit != units[name] {
						t.Errorf("trace=%v: %s missing or with unit %q", trace, name, m.Unit)
					}
				}
				e2eNames[i] = names(rep.EndToEnd)
				if !trace {
					continue
				}
				for name := range units {
					if _, isE2E := rep.EndToEnd[name]; isE2E {
						continue
					}
					m, ok := rep.PerLayer[name]
					switch {
					case !ok:
						t.Errorf("report has no per-layer metric %s", name)
					case m.Value == nil && m.Reason == "":
						t.Errorf("per-layer metric %s is null without a reason", name)
					}
				}
			}
			if !slices.Equal(e2eNames[0], e2eNames[1]) {
				t.Errorf("end-to-end names differ: untraced %v, traced %v", e2eNames[0], e2eNames[1])
			}
		})
	}
}

// wrongClasses answers the other class of a two-class model.
type wrongClasses struct{ cmpdt.Predictor }

func (w wrongClasses) Predict(vals []float64) int { return 1 - w.Predictor.Predict(vals) }

func (w wrongClasses) PredictBatchWorkers(dst []int, records [][]float64, workers int) []int {
	dst = w.Predictor.PredictBatchWorkers(dst, records, workers)
	for i := range records {
		dst[i] = 1 - dst[i]
	}
	return dst
}

func TestWrongAnswersLowerOkFrac(t *testing.T) {
	for _, workload := range []string{"serve-predict", "serve-batch"} {
		cfg := tiny(t, workload, false)
		cfg.tamper = func(p cmpdt.Predictor) cmpdt.Predictor { return wrongClasses{p} }
		_, res, err := execute(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ok := res.Metrics["ok_frac"].Value
		if res.Correct || res.Failed == 0 || ok >= 1 {
			t.Errorf("%s served wrong classes but correct=%v failed=%d ok_frac=%v", workload, res.Correct, res.Failed, ok)
		}
	}
}
