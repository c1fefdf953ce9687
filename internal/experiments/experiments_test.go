package experiments

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"

	"cmpdt/internal/eval"
	"cmpdt/internal/synth"
)

func miniOpts() Opts {
	o := Defaults()
	o.Sizes = []int{4000, 8000}
	o.N = 8000
	o.Intervals = 25
	return o
}

func TestScalabilityRowsComplete(t *testing.T) {
	rows, err := miniOpts().Scalability(synth.F2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*3 {
		t.Fatalf("%d rows, want 6", len(rows))
	}
	for _, r := range rows {
		if r.SimSeconds <= 0 || r.Scans <= 0 || r.Leaves < 1 {
			t.Errorf("row incomplete: %+v", r)
		}
		if r.Figure != "Figure 14" {
			t.Errorf("figure label %q", r.Figure)
		}
	}
	// Larger N must cost more simulated time for the same algorithm.
	byAlgo := map[string][]Row{}
	for _, r := range rows {
		byAlgo[r.Algorithm] = append(byAlgo[r.Algorithm], r)
	}
	for algo, rs := range byAlgo {
		if rs[1].SimSeconds <= rs[0].SimSeconds {
			t.Errorf("%s: sim time did not grow with N (%v -> %v)",
				algo, rs[0].SimSeconds, rs[1].SimSeconds)
		}
	}
}

func TestComparisonShape(t *testing.T) {
	o := miniOpts()
	o.Sizes = []int{10_000}
	rows, err := o.Comparison(synth.F2)
	if err != nil {
		t.Fatal(err)
	}
	sim := map[string]float64{}
	for _, r := range rows {
		sim[r.Algorithm] = r.SimSeconds
	}
	// The paper's headline comparison: SPRINT moves far more bytes than CMP.
	if sim[eval.AlgoSPRINT] <= sim[eval.AlgoCMP] {
		t.Errorf("SPRINT (%v) should cost more than CMP (%v)", sim[eval.AlgoSPRINT], sim[eval.AlgoCMP])
	}
}

// TestFunctionFShape pins EXPERIMENTS.md's Figure 18 verdict: on Function
// f, CMP finishes in at most 3 rounds with a depth-2, 3-leaf tree holding
// an oblique split, every univariate baseline staircases into a deeper tree,
// and CMP is faster than the slowest of them.
func TestFunctionFShape(t *testing.T) {
	o := miniOpts()
	o.Sizes = []int{20_000}
	rows, err := o.FunctionF()
	if err != nil {
		t.Fatal(err)
	}
	var cmp, worst Row
	var baselines []Row
	for _, r := range rows {
		if r.Algorithm == eval.AlgoCMP {
			cmp = r
			continue
		}
		baselines = append(baselines, r)
		if r.SimSeconds > worst.SimSeconds {
			worst = r
		}
	}
	if cmp.Oblique < 1 {
		t.Error("CMP found no oblique split on Function f")
	}
	// The 20k store is smaller than the discretization sample, so that pass
	// reads it whole and counts as a fourth scan.
	if cmp.Scans > 4 || cmp.Depth != 2 || cmp.Leaves != 3 {
		t.Errorf("CMP: %d scans, depth %d, %d leaves; want <= 4 scans (3 rounds) and a depth-2, 3-leaf tree",
			cmp.Scans, cmp.Depth, cmp.Leaves)
	}
	if len(baselines) != 3 {
		t.Fatalf("%d baseline rows, want 3", len(baselines))
	}
	for _, r := range baselines {
		if r.Depth <= cmp.Depth {
			t.Errorf("%s tree depth %d, not deeper than CMP's %d", r.Algorithm, r.Depth, cmp.Depth)
		}
	}
	if cmp.SimSeconds >= worst.SimSeconds {
		t.Errorf("CMP (%v) not faster than the slowest baseline (%v)", cmp.SimSeconds, worst.SimSeconds)
	}
}

func TestMemoryShape(t *testing.T) {
	o := miniOpts()
	o.Sizes = []int{10_000}
	rows, err := o.Memory()
	if err != nil {
		t.Fatal(err)
	}
	mem := map[string]float64{}
	for _, r := range rows {
		mem[r.Algorithm] = r.MemoryMB
	}
	// RainForest reserves its fixed AVC buffer; every CMP variant stays under it.
	for _, algo := range []string{eval.AlgoCMPS, eval.AlgoCMPB, eval.AlgoCMP} {
		if mem[algo] >= mem[eval.AlgoRainForest] {
			t.Errorf("%s memory %.2f MB not below RainForest's %.2f MB",
				algo, mem[algo], mem[eval.AlgoRainForest])
		}
	}
}

func TestPrintAndCSV(t *testing.T) {
	rows := []Row{{
		Figure: "Figure 14", Workload: "Function 2", Algorithm: "cmp",
		N: 1000, SimSeconds: 1.5, WallSeconds: 0.1, Scans: 5,
		MemoryMB: 0.5, Leaves: 7, Depth: 3, Oblique: 1,
	}}
	var buf bytes.Buffer
	PrintRows(&buf, rows)
	if !strings.Contains(buf.String(), "Function 2") {
		t.Error("PrintRows lost the workload")
	}
	buf.Reset()
	if err := WriteCSVRows(&buf, rows); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "figure,") {
		t.Errorf("CSV output malformed:\n%s", buf.String())
	}
}

func TestDiskSourceRoundTrip(t *testing.T) {
	o := miniOpts()
	o.UseDisk = true
	o.Dir = t.TempDir()
	src, cleanup, err := o.source(synth.F1, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	if src.NumRecords() != 3000 {
		t.Fatalf("NumRecords = %d", src.NumRecords())
	}
	// A second call reuses the cached file.
	src2, cleanup2, err := o.source(synth.F1, 3000, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup2()
	if src2.NumRecords() != 3000 {
		t.Error("cached dataset file unreadable")
	}
}

func TestGiniCurveExperiment(t *testing.T) {
	o := miniOpts()
	curve, err := o.GiniCurve(synth.F2, "salary")
	if err != nil {
		t.Fatal(err)
	}
	if len(curve.Boundaries) < 5 {
		t.Fatalf("only %d boundaries", len(curve.Boundaries))
	}
	var buf bytes.Buffer
	PrintGiniCurve(&buf, curve)
	if !strings.Contains(buf.String(), "gini curve of \"salary\"") {
		t.Error("curve rendering malformed")
	}
	if _, err := o.GiniCurve(synth.F2, "nope"); err == nil {
		t.Error("unknown attribute accepted")
	}
}

func TestTreesComparisonExperiment(t *testing.T) {
	o := miniOpts()
	o.N = 30_000
	uni, multi, err := o.TreesComparison()
	if err != nil {
		t.Fatal(err)
	}
	// The paper's illustration: the univariate tree staircases around the
	// linear boundary, the multivariate one expresses it directly.
	if multi.CountLinearSplits() == 0 {
		t.Error("multivariate tree has no linear split")
	}
	if multi.Leaves() >= uni.Leaves() {
		t.Errorf("multivariate tree (%d leaves) not smaller than univariate (%d)",
			multi.Leaves(), uni.Leaves())
	}
	if multi.Depth() >= uni.Depth() {
		t.Errorf("multivariate depth %d not below univariate %d", multi.Depth(), uni.Depth())
	}
	var buf bytes.Buffer
	PrintTrees(&buf, uni, multi)
	if !strings.Contains(buf.String(), "Figure 13") {
		t.Error("tree rendering malformed")
	}
}

func TestLearningCurveExperiment(t *testing.T) {
	o := miniOpts()
	o.Sizes = []int{3000, 24_000}
	rows, err := o.LearningCurve(synth.F7)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Accuracy grows with training size for the full-data algorithm.
	var small, large float64
	for _, r := range rows {
		if r.Algorithm == "cmp-s" {
			if r.N == 3000 {
				small = r.TestAcc
			} else {
				large = r.TestAcc
			}
		}
	}
	if large <= small {
		t.Errorf("full-data accuracy did not grow with N: %.4f -> %.4f", small, large)
	}
}

// TestInference runs the inference benchmark at toy scale and sanity-checks
// the rows and the JSON round-trip.
func TestInference(t *testing.T) {
	o := Defaults()
	o.N = 4_000
	res, err := o.Inference()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(res.Rows))
	}
	var hotFlat, hotPtr float64
	for _, r := range res.Rows {
		if r.NsPerRecord <= 0 || r.MRecordsPerSec <= 0 || r.SpeedupVsPointer <= 0 {
			t.Errorf("non-positive measurement: %+v", r)
		}
		if r.Set == "hot" && r.Mode == "flat" {
			hotFlat = r.NsPerRecord
		}
		if r.Set == "hot" && r.Mode == "pointer" {
			hotPtr = r.NsPerRecord
		}
	}
	if hotFlat == 0 || hotPtr == 0 {
		t.Fatal("hot pointer/flat rows missing")
	}
	if hotFlat >= hotPtr {
		t.Errorf("flat walk (%.1f ns) not faster than pointer walk (%.1f ns)", hotFlat, hotPtr)
	}
	var buf strings.Builder
	if err := WriteInferJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var back InferResult
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Records != res.Records || len(back.Rows) != len(res.Rows) {
		t.Error("JSON round-trip lost data")
	}
	PrintInference(io.Discard, res)
}

// TestBuildqBench pins the quantized-build benchmark's shape: 12 rows (raw
// and quantized at workers {1,2,8} x cache {off,on}), positive
// measurements, the quantized-trees-identical differential check, and a
// lossless JSON round-trip. Speedup magnitudes are asserted only by the CI
// bench gate at its committed scale; at this test's size they are noise.
func TestBuildqBench(t *testing.T) {
	o := Defaults()
	o.N = 3_000
	o.Dir = t.TempDir()
	res, err := o.BuildqBench()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 12 {
		t.Fatalf("%d rows, want 12", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Set != "buildq" {
			t.Errorf("row set %q, want buildq", r.Set)
		}
		if r.NsPerRecord <= 0 || r.MRecordsPerSec <= 0 || r.SpeedupVsPointer <= 0 {
			t.Errorf("non-positive measurement: %+v", r)
		}
	}
	if !res.TreesIdentical {
		t.Error("quantized trees differ across worker/cache configurations")
	}
	if res.SpeedupSerial <= 0 {
		t.Errorf("speedup_serial = %v", res.SpeedupSerial)
	}
	var buf strings.Builder
	if err := WriteBuildqJSON(&buf, res); err != nil {
		t.Fatal(err)
	}
	var back BuildqResult
	if err := json.Unmarshal([]byte(buf.String()), &back); err != nil {
		t.Fatal(err)
	}
	if back.Records != res.Records || len(back.Rows) != len(res.Rows) {
		t.Error("JSON round-trip lost data")
	}
	PrintBuildqBench(io.Discard, res)
}
