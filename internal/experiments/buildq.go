package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"text/tabwriter"
	"time"

	"cmpdt/internal/core"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// BuildqResult is the quantized-build baseline BENCH_buildq.json records:
// raw vs bin-coded CMP-B build throughput over a disk-resident Function-2
// store across worker counts and cache settings, plus the differential
// check that every quantized configuration serializes the identical tree.
type BuildqResult struct {
	Workload   string `json:"workload"`
	Records    int    `json:"records"`
	Intervals  int    `json:"intervals"`
	CacheBytes int64  `json:"cache_bytes"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// TreesIdentical is true when the quantized builds at workers {1, 2, 8}
	// crossed with cache {off, on} all serialize to byte-identical trees.
	TreesIdentical bool `json:"trees_identical"`
	// SpeedupSerial is the headline number: raw build ns/record divided by
	// quantized build ns/record at workers=1 with the cache off.
	SpeedupSerial float64 `json:"speedup_serial"`
	// Rows reuses the shared benchmark row shape so benchdiff gates this
	// file with the same key scheme as the other baselines. Set is
	// "buildq"; Mode is "raw/cache=off", "raw/cache=on", "quant/cache=off"
	// or "quant/cache=on"; SpeedupVsPointer holds raw-over-this for the
	// matching (workers, cache) pair, so raw rows read 1.0.
	Rows []InferRow `json:"rows"`
}

// buildqCacheBytes is the cached configurations' default capacity; large
// enough that the raw store is fully resident, so the quantized speedup
// measured under it is pure compute, not saved I/O.
const buildqCacheBytes = 64 << 20

// BuildqBench measures what bin coding buys the build: a CMP-B tree over a
// disk-resident Function-2 store is built raw (interval scan over float
// records) and quantized (dense histogram scan over bin codes) at workers
// {1, 2, 8} crossed with page cache {off, on}. Each build runs fresh over
// the same file; ns/record is build wall time over the record count.
func (o Opts) BuildqBench() (*BuildqResult, error) {
	disk := o
	disk.UseDisk = true
	src, cleanup, err := disk.source(synth.F2, o.N, o.Seed)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	f, ok := src.(*storage.File)
	if !ok {
		return nil, fmt.Errorf("experiments: buildq bench needs a file source, got %T", src)
	}

	cacheBytes := o.Eval.Tree.CacheBytes
	if cacheBytes <= 0 {
		cacheBytes = buildqCacheBytes
	}
	n := f.NumRecords()
	out := &BuildqResult{
		Workload:   synth.F2.String(),
		Records:    n,
		Intervals:  o.Intervals,
		CacheBytes: cacheBytes,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	type cfgKey struct {
		workers int
		cached  bool
	}
	rawNs := make(map[cfgKey]float64)
	var quantTrees [][]byte
	for _, quant := range []bool{false, true} {
		for _, workers := range []int{1, 2, 8} {
			for _, cached := range []bool{false, true} {
				cfg := core.Default(core.CMPB)
				cfg.Intervals = o.Intervals
				cfg.Seed = o.Seed
				cfg.Workers = workers
				cfg.Quantize = quant
				if cached {
					cfg.CacheBytes = cacheBytes
				}
				mode := "raw"
				if quant {
					mode = "quant"
				}
				mode += "/cache="
				if cached {
					mode += "on"
				} else {
					mode += "off"
				}
				start := time.Now()
				res, err := core.Build(f, cfg)
				if err != nil {
					return nil, fmt.Errorf("experiments: buildq %s workers=%d: %w", mode, workers, err)
				}
				ns := float64(time.Since(start).Nanoseconds()) / float64(n)
				k := cfgKey{workers, cached}
				if !quant {
					rawNs[k] = ns
				} else {
					var buf bytes.Buffer
					if err := res.Tree.WriteJSON(&buf); err != nil {
						return nil, err
					}
					quantTrees = append(quantTrees, buf.Bytes())
				}
				out.Rows = append(out.Rows, InferRow{
					Set:              "buildq",
					Mode:             mode,
					Workers:          workers,
					NsPerRecord:      ns,
					MRecordsPerSec:   1e3 / ns,
					SpeedupVsPointer: rawNs[k] / ns,
				})
			}
		}
	}

	out.TreesIdentical = true
	for _, tr := range quantTrees[1:] {
		if !bytes.Equal(tr, quantTrees[0]) {
			out.TreesIdentical = false
		}
	}
	out.SpeedupSerial = out.Rows[6].SpeedupVsPointer // quant/cache=off, workers=1
	return out, nil
}

// PrintBuildqBench renders the result as an aligned table.
func PrintBuildqBench(w io.Writer, r *BuildqResult) {
	fmt.Fprintf(w, "workload %s, %d records, %d intervals, cache %d MiB, GOMAXPROCS %d\n",
		r.Workload, r.Records, r.Intervals, r.CacheBytes>>20, r.GOMAXPROCS)
	fmt.Fprintf(w, "quantized trees identical: %v, serial speedup %.2fx\n",
		r.TreesIdentical, r.SpeedupSerial)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "mode\tworkers\tns/record\tMrec/s\tspeedup vs raw")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%.2f\t%.2fx\n",
			row.Mode, row.Workers, row.NsPerRecord, row.MRecordsPerSec, row.SpeedupVsPointer)
	}
	tw.Flush()
}

// WriteBuildqJSON writes the machine-readable baseline consumed by
// make bench-buildq (BENCH_buildq.json).
func WriteBuildqJSON(w io.Writer, r *BuildqResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
