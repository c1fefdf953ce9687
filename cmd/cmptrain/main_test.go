package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cmpdt/internal/eval"
	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// trainData writes a small Function-2 record store for the tests.
func trainData(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f2.rec")
	tbl := synth.Generate(synth.F2, 5_000, 1)
	if _, err := storage.WriteTable(path, tbl); err != nil {
		t.Fatal(err)
	}
	return path
}

// runMetrics trains with -metrics-json and returns the decoded report both
// as the typed struct and as raw JSON.
func runMetrics(t *testing.T, data string, quantize bool) (*obs.Report, []byte) {
	t.Helper()
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	opts := eval.Options{Workers: 1, Seed: 1, Quantize: quantize}
	if err := run(context.Background(), "cmp", data, "", metrics, true, opts, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	return readReport(t, metrics)
}

// readReport decodes a -metrics-json file.
func readReport(t *testing.T, path string) (*obs.Report, []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return &rep, raw
}

// keyPaths returns the sorted set of JSON key paths in v. Array elements
// collapse into one "[]" segment so row counts don't perturb the schema.
func keyPaths(v any) []string {
	set := map[string]struct{}{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				p := prefix + "." + k
				set[p] = struct{}{}
				walk(p, child)
			}
		case []any:
			for _, child := range x {
				walk(prefix+"[]", child)
			}
		}
	}
	walk("$", v)
	paths := make([]string, 0, len(set))
	for p := range set {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// TestMetricsJSONSchemaGolden pins the -metrics-json key set: the CI bench
// gate and downstream dashboards parse this document, so adding, renaming,
// or removing a key must show up as a reviewed golden-file diff (and a
// ReportSchemaVersion bump).
func TestMetricsJSONSchemaGolden(t *testing.T) {
	_, raw := runMetrics(t, trainData(t), false)
	var doc any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(keyPaths(doc), "\n") + "\n"

	golden := filepath.Join("testdata", "metrics_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if got != string(want) {
		t.Errorf("metrics JSON schema drifted from %s.\nIf intentional, bump obs.ReportSchemaVersion and rerun with -update-golden.\ngot:\n%s\nwant:\n%s",
			golden, got, want)
	}
}

// stripTimings zeroes every wall-clock-dependent field so the remainder of
// the report can be compared across runs.
func stripTimings(rep *obs.Report) {
	rep.Build.WallNs = 0
	rep.Quant.QuantizeNs = 0
	for name, st := range rep.PhaseTotals {
		st.Ns = 0
		rep.PhaseTotals[name] = st
	}
	for i := range rep.Rounds {
		r := &rep.Rounds[i]
		for name, st := range r.Phases {
			st.Ns = 0
			r.Phases[name] = st
		}
		for w := range r.WorkerNs {
			r.WorkerNs[w] = 0
		}
	}
}

// TestMetricsJSONDeterministic pins everything except timings under a fixed
// seed and workers=1: two runs must agree on counts, rounds, scans, worker
// record shares, tree shape, and I/O totals.
func TestMetricsJSONDeterministic(t *testing.T) {
	data := trainData(t)
	a, _ := runMetrics(t, data, false)
	b, _ := runMetrics(t, data, false)
	stripTimings(a)
	stripTimings(b)
	if !reflect.DeepEqual(a, b) {
		aj, _ := json.Marshal(a)
		bj, _ := json.Marshal(b)
		t.Errorf("reports differ beyond timings under fixed seed/workers:\n%s\n%s", aj, bj)
	}
}

// TestMetricsScanTotalsMatchStorage is the report's core accounting invariant:
// the per-round scan counts sum exactly to the storage layer's own scan
// counter.
func TestMetricsScanTotalsMatchStorage(t *testing.T) {
	data := trainData(t)
	for _, tc := range []struct {
		name     string
		quantize bool
	}{{"raw", false}, {"quantized", true}} {
		t.Run(tc.name, func(t *testing.T) {
			rep, _ := runMetrics(t, data, tc.quantize)
			var sum int64
			for _, r := range rep.Rounds {
				sum += r.Scans
			}
			if sum != rep.IO.Scans {
				t.Errorf("sum(rounds[].scans) = %d, io.scans = %d — must match exactly", sum, rep.IO.Scans)
			}
			if rep.IO.Scans == 0 {
				t.Error("expected at least one completed scan")
			}
			if rep.SchemaVersion != obs.ReportSchemaVersion {
				t.Errorf("schema_version = %d, want %d", rep.SchemaVersion, obs.ReportSchemaVersion)
			}
			if rep.Quant.Enabled != tc.quantize {
				t.Errorf("quant.enabled = %v, want %v", rep.Quant.Enabled, tc.quantize)
			}
			if tc.quantize {
				if rep.Quant.DenseScanRounds != rep.Build.Rounds || rep.Quant.IntervalScanRounds != 0 {
					t.Errorf("quantized round kinds: dense=%d interval=%d rounds=%d",
						rep.Quant.DenseScanRounds, rep.Quant.IntervalScanRounds, rep.Build.Rounds)
				}
				if rep.Quant.CodeBytesPerRecord <= 0 || len(rep.Quant.BinsPerAttr) == 0 {
					t.Errorf("quant block incomplete: %+v", rep.Quant)
				}
			}
		})
	}
}

// TestForestMetricsQuantBlock trains a quantized -forest run with
// -metrics-json: the merged ensemble report must carry the members' quant
// block (enabled, code tables, summed quantize time), not a zero one.
func TestForestMetricsQuantBlock(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	fo := forestOptions{
		algo:        eval.AlgoCMPB,
		trees:       3,
		featureFrac: 0.7,
		eval:        eval.Options{Workers: 1, Seed: 1, Quantize: true},
	}
	if err := runForest(context.Background(), fo, trainData(t), "", metrics, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	rep, _ := readReport(t, metrics)
	q := rep.Quant
	if !q.Enabled {
		t.Fatal("forest report: quant.enabled = false on a quantized forest")
	}
	if len(q.BinsPerAttr) == 0 || q.CodeBytesPerRecord == 0 || q.QuantizeNs <= 0 {
		t.Errorf("forest report quant block incomplete: %+v", q)
	}
	if q.DenseScanRounds != rep.Build.Rounds || q.IntervalScanRounds != 0 {
		t.Errorf("dense_scan_rounds = %d, interval = %d; want the merged round count %d and 0",
			q.DenseScanRounds, q.IntervalScanRounds, rep.Build.Rounds)
	}
}

// TestAllPairsRejectedOutsideRawCMP: -all-pairs only means something to a
// raw full-CMP build; with another CMP variant or -quantize, single tree or
// -forest, the run fails with an error naming the knob instead of
// silently training without it.
func TestAllPairsRejectedOutsideRawCMP(t *testing.T) {
	data := trainData(t)
	for _, c := range []struct {
		algo     string
		quantize bool
	}{{eval.AlgoCMPS, false}, {eval.AlgoCMPB, false}, {eval.AlgoCMP, true}} {
		opts := eval.Options{Workers: 1, Seed: 1, ObliqueAllPairs: true, Quantize: c.quantize}
		err := run(context.Background(), c.algo, data, "", "", true, opts, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "ObliqueAllPairs") {
			t.Errorf("-algo %s -quantize=%v -all-pairs: err %v, want the ObliqueAllPairs error", c.algo, c.quantize, err)
		}
		fo := forestOptions{algo: c.algo, trees: 2, eval: opts}
		err = runForest(context.Background(), fo, data, "", "", &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "ObliqueAllPairs") {
			t.Errorf("-forest -algo %s -quantize=%v -all-pairs: err %v, want the ObliqueAllPairs error", c.algo, c.quantize, err)
		}
	}
	opts := eval.Options{Workers: 1, Seed: 1, ObliqueAllPairs: true}
	if err := run(context.Background(), eval.AlgoCMP, data, "", "", true, opts, &bytes.Buffer{}); err != nil {
		t.Errorf("-algo cmp -all-pairs: %v", err)
	}
}
