package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"text/tabwriter"

	"cmpdt/internal/core"
	"cmpdt/internal/forest"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// ForestResult is the forest benchmark baseline BENCH_forest.json records:
// the ensemble's determinism invariant (checked, not assumed), its
// out-of-bag estimate, and the serving-path throughput rows in the same
// shape the inference baseline uses, so benchdiff gates both files with one
// key scheme.
type ForestResult struct {
	Workload    string  `json:"workload"`
	Records     int     `json:"records"`
	Attrs       int     `json:"attrs"`
	Trees       int     `json:"trees"`
	FeatureFrac float64 `json:"feature_frac"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	// ForestsIdentical is true when the serialized model is bit-identical
	// across scan worker counts {1, 2, 8} crossed with page cache
	// {off, on} over the same on-disk store.
	ForestsIdentical bool    `json:"forests_identical"`
	OOBError         float64 `json:"oob_error"`
	OOBCount         int     `json:"oob_count"`
	TotalNodes       int     `json:"total_nodes"`
	// Rows measures the ensemble serving paths; Set is "forest" and Mode is
	// one of "pointer" (vote over linked-node walks), "vote" (compiled
	// multi-tree flat walk), "prob" (probability averaging), or
	// "vote-batch" (the sharded batch path; Workers 0 means GOMAXPROCS).
	Rows []InferRow `json:"rows"`
}

// forestBenchTrees keeps the bench forest small enough for CI but large
// enough that tree-order bugs in the compiled layout would surface.
const forestBenchTrees = 16

// ForestBench trains a bagged forest on Function 2, verifies the
// determinism invariant across worker counts and cache configurations over
// one shared on-disk store, and measures the ensemble serving paths.
// Eval.Tree.CacheBytes sets the cached runs' capacity (default 64 MiB).
func (o Opts) ForestBench() (*ForestResult, error) {
	dir := o.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "cmpdt-forest")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	path := filepath.Join(dir, fmt.Sprintf("forest-f2-%d-%d.rec", o.N, o.Seed))
	tbl := synth.Generate(synth.F2, o.N, o.Seed)
	fsrc, err := storage.WriteTable(path, tbl)
	if err != nil {
		return nil, err
	}

	cacheBytes := o.Eval.Tree.CacheBytes
	if cacheBytes <= 0 {
		cacheBytes = 64 << 20
	}
	cfg := forest.Config{
		Trees:       forestBenchTrees,
		FeatureFrac: 0.7,
		Seed:        o.Seed,
		Tree:        core.Default(core.CMPB),
	}
	cfg.Tree.Intervals = o.Intervals
	cfg.Tree.MaxDepth = 10
	cfg.Tree.InMemoryNodeRecords = 1024

	// The differential sweep: every (workers, cache) combination must
	// serialize to the same bytes. The first run's forest is kept for the
	// serving-path measurements.
	var ref *forest.Forest
	var refBytes []byte
	identical := true
	for _, combo := range []struct {
		workers int
		cache   int64
	}{
		{1, 0}, {2, 0}, {8, 0}, {1, cacheBytes}, {2, cacheBytes}, {8, cacheBytes},
	} {
		c := cfg
		c.Tree.Workers = combo.workers
		c.Tree.CacheBytes = combo.cache
		res, err := forest.Train(fsrc, c)
		if err != nil {
			return nil, fmt.Errorf("forest bench (workers=%d cache=%d): %w", combo.workers, combo.cache, err)
		}
		var buf bytes.Buffer
		if err := res.Forest.WriteJSON(&buf); err != nil {
			return nil, err
		}
		if ref == nil {
			ref, refBytes = res.Forest, buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), refBytes) {
			identical = false
		}
	}

	out := &ForestResult{
		Workload:         synth.F2.String(),
		Records:          o.N,
		Attrs:            tbl.Schema().NumAttrs(),
		Trees:            ref.NumTrees(),
		FeatureFrac:      cfg.FeatureFrac,
		GOMAXPROCS:       runtime.GOMAXPROCS(0),
		ForestsIdentical: identical,
		OOBError:         ref.OOBError,
		OOBCount:         ref.OOBCount,
		TotalNodes:       ref.TotalNodes(),
	}

	cf := ref.Compile()
	n := tbl.NumRecords()
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = tbl.Row(i)
	}
	dst := make([]int, n)
	probs := make([]float64, tbl.Schema().NumClasses())

	add := func(mode string, workers int, ns, pointerNs, allocs float64) {
		out.Rows = append(out.Rows, InferRow{
			Set:              "forest",
			Mode:             mode,
			Workers:          workers,
			NsPerRecord:      ns,
			MRecordsPerSec:   1e3 / ns,
			SpeedupVsPointer: pointerNs / ns,
			AllocsPerRecord:  allocs,
		})
	}

	pointerPass := func() {
		s := 0
		for i := 0; i < n; i++ {
			s += pointerVote(ref, rows[i])
		}
		inferSink += s
	}
	votePass := func() {
		s := 0
		for i := 0; i < n; i++ {
			s += cf.Predict(rows[i])
		}
		inferSink += s
	}
	probPass := func() {
		s := 0
		for i := 0; i < n; i++ {
			s += cf.PredictProb(rows[i], probs)
		}
		inferSink += s
	}
	batch1Pass := func() { cf.PredictBatchWorkers(dst, rows, 1) }
	batchPPass := func() { cf.PredictBatchWorkers(dst, rows, 0) }

	pointerNs := timeMode(n, pointerPass)
	voteNs := timeMode(n, votePass)
	probNs := timeMode(n, probPass)
	batch1Ns := timeMode(n, batch1Pass)
	batchPNs := timeMode(n, batchPPass)
	add("pointer", 1, pointerNs, pointerNs, allocsPerRecord(n, pointerPass))
	add("vote", 1, voteNs, pointerNs, allocsPerRecord(n, votePass))
	add("prob", 1, probNs, pointerNs, allocsPerRecord(n, probPass))
	add("vote-batch", 1, batch1Ns, pointerNs, allocsPerRecord(n, batch1Pass))
	add("vote-batch", 0, batchPNs, pointerNs, allocsPerRecord(n, batchPPass))
	return out, nil
}

// pointerVote is the naive ensemble baseline: walk every linked tree and
// majority-vote, ties to the lowest class (the semantics the compiled path
// must reproduce).
func pointerVote(f *forest.Forest, vals []float64) int {
	var votes [64]int32
	nc := f.Schema.NumClasses()
	v := votes[:nc]
	for i := range v {
		v[i] = 0
	}
	for _, t := range f.Trees {
		v[t.Predict(vals)]++
	}
	best := 0
	for c := 1; c < nc; c++ {
		if v[c] > v[best] {
			best = c
		}
	}
	return best
}

// PrintForestBench renders the result as an aligned table.
func PrintForestBench(w io.Writer, r *ForestResult) {
	fmt.Fprintf(w, "workload %s, %d records x %d attrs, %d trees (feature_frac %.2f, %d nodes), GOMAXPROCS %d\n",
		r.Workload, r.Records, r.Attrs, r.Trees, r.FeatureFrac, r.TotalNodes, r.GOMAXPROCS)
	fmt.Fprintf(w, "forests_identical %v, oob_error %.4f over %d records\n",
		r.ForestsIdentical, r.OOBError, r.OOBCount)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "set\tmode\tworkers\tns/record\tMrec/s\tspeedup\tallocs/rec")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.2f\t%.2fx\t%.4f\n",
			row.Set, row.Mode, row.Workers, row.NsPerRecord, row.MRecordsPerSec, row.SpeedupVsPointer, row.AllocsPerRecord)
	}
	tw.Flush()
}

// WriteForestJSON writes the machine-readable baseline consumed by
// BENCH_forest.json.
func WriteForestJSON(w io.Writer, r *ForestResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
