package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"cmpdt/internal/core"
	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

// InferRow is one inference-path measurement.
type InferRow struct {
	// Set distinguishes the two record regimes: "hot" cycles a
	// cache-resident pool of rows (isolating the tree-walk cost, the
	// serving hot path), "scan" streams the full table (DRAM-bound bulk
	// scoring throughput).
	Set string `json:"set"`
	// Mode is "pointer" (the linked Node walk), "flat" (the compiled
	// array walk) or "batch" (the sharded PredictTable path).
	Mode string `json:"mode"`
	// Workers is the shard count for batch rows, 1 otherwise. Zero is the
	// GOMAXPROCS sentinel: the row ran at full parallelism, whatever that
	// is on the recording machine, so baselines compare across machines.
	Workers int `json:"workers"`
	// NsPerRecord is wall time per classified record.
	NsPerRecord float64 `json:"ns_per_record"`
	// MRecordsPerSec is throughput in millions of records per second.
	MRecordsPerSec float64 `json:"mrecords_per_sec"`
	// SpeedupVsPointer is the same set's pointer-walk ns/record divided
	// by this row's (1.0 for the pointer rows themselves).
	SpeedupVsPointer float64 `json:"speedup_vs_pointer"`
	// AllocsPerRecord is heap allocations per classified record (mallocs
	// metered over full passes; the CI bench gate fails on any increase).
	AllocsPerRecord float64 `json:"allocs_per_record"`
}

// InferResult is the inference benchmark baseline BENCH_infer.json records.
type InferResult struct {
	Workload   string     `json:"workload"`
	Records    int        `json:"records"`
	Attrs      int        `json:"attrs"`
	TreeNodes  int        `json:"tree_nodes"`
	TreeDepth  int        `json:"tree_depth"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Rows       []InferRow `json:"rows"`
}

// inferMinWindow is how long each mode is timed; long enough that the
// per-round clock reads vanish into the noise.
const inferMinWindow = 200 * time.Millisecond

// timeMode runs predictAll (one full pass over n records) in a timed loop
// and returns ns per record.
func timeMode(n int, predictAll func()) float64 {
	predictAll() // warm caches and the branch predictor
	rounds := 0
	start := time.Now()
	for {
		predictAll()
		rounds++
		if time.Since(start) >= inferMinWindow {
			break
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(rounds*n)
}

// allocsPerRecord meters heap allocations per classified record: mallocs
// delta over a handful of full passes after a warm-up pass. Serial modes
// must report exactly 0; sharded modes pay a few goroutine/WaitGroup
// allocations per pass, amortized over n records.
func allocsPerRecord(n int, predictAll func()) float64 {
	predictAll()
	const passes = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < passes; i++ {
		predictAll()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(passes*n)
}

// inferSink keeps prediction loops observable so they cannot be eliminated.
var inferSink int

// hotPoolSize is the row-pool size of the "hot" regime: a power of two (the
// wrap is a mask) small enough to stay cache-resident.
const hotPoolSize = 4096

// Inference benchmarks the serving paths on the Function-2 tree: the
// pointer-linked walk, the compiled flat walk, and the sharded batch path
// at 1 and GOMAXPROCS workers, each under the "hot" (cache-resident rows)
// and "scan" (full-table streaming) regimes. The tree is trained with CMP-B
// over o.N records and every mode classifies the same training data.
func (o Opts) Inference() (*InferResult, error) {
	tbl := synth.Generate(synth.F2, o.N, o.Seed)
	cfg := core.Default(core.CMPB)
	cfg.Intervals = o.Intervals
	res, err := core.Build(storage.NewMem(tbl), cfg)
	if err != nil {
		return nil, err
	}
	t := res.Tree
	c := tree.Compile(t)
	if o.Eval.Tree.Obs != nil {
		c.SetBatchObserver(o.Eval.Tree.Obs.Registry().Histogram("infer_batch_ns", obs.DefaultLatencyBounds))
	}
	n := tbl.NumRecords()
	dst := make([]int, n)

	out := &InferResult{
		Workload:   synth.F2.String(),
		Records:    n,
		Attrs:      tbl.Schema().NumAttrs(),
		TreeNodes:  t.Size(),
		TreeDepth:  t.Depth(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	add := func(set, mode string, workers int, ns, pointerNs, allocs float64) {
		out.Rows = append(out.Rows, InferRow{
			Set:              set,
			Mode:             mode,
			Workers:          workers,
			NsPerRecord:      ns,
			MRecordsPerSec:   1e3 / ns,
			SpeedupVsPointer: pointerNs / ns,
			AllocsPerRecord:  allocs,
		})
	}

	// Hot regime: cycle a cache-resident pool so the tree walk, not DRAM
	// latency on the records, is what is measured.
	pool := hotPoolSize
	if pool > n {
		pool = 1 << uint(bitsLen(n)-1) // largest power of two <= n
	}
	rows := make([][]float64, pool)
	for i := range rows {
		rows[i] = tbl.Row(i)
	}
	hotPtrPass := func() {
		s := 0
		for i := 0; i < pool; i++ {
			s += t.Predict(rows[i])
		}
		inferSink += s
	}
	hotFlatPass := func() {
		s := 0
		for i := 0; i < pool; i++ {
			s += c.Predict(rows[i])
		}
		inferSink += s
	}
	hotPtr := timeMode(pool, hotPtrPass)
	hotFlat := timeMode(pool, hotFlatPass)
	add("hot", "pointer", 1, hotPtr, hotPtr, allocsPerRecord(pool, hotPtrPass))
	add("hot", "flat", 1, hotFlat, hotPtr, allocsPerRecord(pool, hotFlatPass))

	// Scan regime: every mode streams the full table.
	scanPtrPass := func() {
		s := 0
		for i := 0; i < n; i++ {
			s += t.Predict(tbl.Row(i))
		}
		inferSink += s
	}
	scanFlatPass := func() {
		s := 0
		for i := 0; i < n; i++ {
			s += c.Predict(tbl.Row(i))
		}
		inferSink += s
	}
	batch1Pass := func() { c.PredictTable(dst, tbl, 1) }
	batchPPass := func() { c.PredictTable(dst, tbl, 0) }
	scanPtr := timeMode(n, scanPtrPass)
	scanFlat := timeMode(n, scanFlatPass)
	batch1 := timeMode(n, batch1Pass)
	batchP := timeMode(n, batchPPass)
	add("scan", "pointer", 1, scanPtr, scanPtr, allocsPerRecord(n, scanPtrPass))
	add("scan", "flat", 1, scanFlat, scanPtr, allocsPerRecord(n, scanFlatPass))
	add("scan", "batch", 1, batch1, scanPtr, allocsPerRecord(n, batch1Pass))
	add("scan", "batch", 0, batchP, scanPtr, allocsPerRecord(n, batchPPass))
	return out, nil
}

// bitsLen returns the number of bits needed to represent n (n >= 1).
func bitsLen(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}

// PrintInference renders the result as an aligned table.
func PrintInference(w io.Writer, r *InferResult) {
	fmt.Fprintf(w, "workload %s, %d records x %d attrs, tree %d nodes depth %d, GOMAXPROCS %d\n",
		r.Workload, r.Records, r.Attrs, r.TreeNodes, r.TreeDepth, r.GOMAXPROCS)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "set\tmode\tworkers\tns/record\tMrec/s\tspeedup\tallocs/rec")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.1f\t%.1f\t%.2fx\t%.4f\n",
			row.Set, row.Mode, row.Workers, row.NsPerRecord, row.MRecordsPerSec, row.SpeedupVsPointer, row.AllocsPerRecord)
	}
	tw.Flush()
}

// WriteInferJSON writes the machine-readable baseline consumed by
// BENCH_infer.json.
func WriteInferJSON(w io.Writer, r *InferResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
