package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// units is the catalogue of every metric the benchmark knows, with its
// unit. The end-to-end names come first, then the per-layer names grouped
// by the module they describe.
var units = map[string]string{
	"setup_s":        "s",
	"records_per_s":  "records/s",
	"latency_p50_ms": "ms",
	"latency_p90_ms": "ms",
	"latency_p99_ms": "ms",
	"accuracy":       "fraction",
	"max_rss_mb":     "MiB",
	"ok_frac":        "fraction",

	"storage.scans":                 "count",
	"storage.bytes_read_per_record": "B/record",
	"storage.scan_ns_per_record":    "ns/record",
	"storage.cache_hit_ratio":       "fraction",
	"storage.physical_pages_read":   "count",
	"storage.code_bytes_per_record": "B/record",

	"core.init_ms":              "ms",
	"core.scan_ms":              "ms",
	"core.sort_ms":              "ms",
	"core.resolve_ms":           "ms",
	"core.oblique_ms":           "ms",
	"core.decide_ms":            "ms",
	"core.collect_ms":           "ms",
	"core.prune_ms":             "ms",
	"core.phase_coverage":       "ratio",
	"core.rounds":               "count",
	"core.quantize_ms":          "ms",
	"core.buffered_records":     "count",
	"core.prediction_hit_ratio": "fraction",
	"core.double_splits":        "count",
	"core.oblique_splits":       "count",
	"core.reverts":              "count",
	"core.peak_memory_mb":       "MiB",
	"core.shard_imbalance_max":  "ratio",

	"stats.scans_saved": "count",
	"stats.hit_ratio":   "fraction",

	"forest.total_nodes": "count",
	"forest.oob_error":   "fraction",

	"tree.nodes":               "count",
	"tree.model_bytes":         "B",
	"tree.model_load_ms":       "ms",
	"tree.score_ns_per_record": "ns/record",

	"serve.handler_us_p50":     "us",
	"serve.submit_us_p50":      "us",
	"serve.codec_us_p50":       "us",
	"serve.dispatch_us_p50":    "us",
	"serve.queue_wait_us_p50":  "us",
	"serve.queue_wait_us_mean": "us",
	"serve.batch_records_mean": "records",
	"serve.shed":               "count",

	"runtime.allocs_per_record": "allocs/record",
	"runtime.bytes_per_record":  "B/record",
	"runtime.gc_count":          "count",
	"runtime.gc_pause_ms":       "ms",

	"machine.probe_ms":     "ms",
	"bench.trace_overhead": "ratio",
}

// endToEnd is the result line of an untraced run, in BENCHMARK.json order.
// latency_p99_ms stays on the report line only: on a shared host it is set
// by host stalls, not by the program.
var endToEnd = []string{
	"setup_s", "records_per_s", "latency_p50_ms", "latency_p90_ms",
	"accuracy", "max_rss_mb", "ok_frac",
}

// perLayer is the result line of a traced run: the per-layer metrics that
// every workload measures. The report line above it carries the rest,
// null where they do not apply.
var perLayer = []string{
	"storage.scans", "storage.bytes_read_per_record", "storage.scan_ns_per_record",
	"storage.cache_hit_ratio", "storage.physical_pages_read",
	"core.init_ms", "core.scan_ms", "core.decide_ms", "core.collect_ms", "core.prune_ms",
	"core.phase_coverage", "core.rounds", "core.buffered_records",
	"core.double_splits", "core.oblique_splits", "core.reverts",
	"core.peak_memory_mb", "core.shard_imbalance_max",
	"stats.scans_saved",
	"tree.nodes", "tree.model_bytes", "tree.model_load_ms", "tree.score_ns_per_record",
	"serve.handler_us_p50", "serve.submit_us_p50", "serve.codec_us_p50", "serve.dispatch_us_p50",
	"serve.queue_wait_us_mean", "serve.batch_records_mean", "serve.shed",
	"runtime.allocs_per_record", "runtime.bytes_per_record", "runtime.gc_count", "runtime.gc_pause_ms",
	"machine.probe_ms", "bench.trace_overhead",
}

// measure is one metric as measured. Value is nil when the metric does not
// apply to the workload or could not be measured; Reason then says why.
type measure struct {
	Value  *float64 `json:"value"`
	Unit   string   `json:"unit"`
	Reason string   `json:"reason,omitempty"`
}

type metrics map[string]measure

func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("perfbench: metric " + name + " is not in the catalogue")
	}
	return u
}

func (m metrics) set(name string, v float64) {
	m[name] = measure{Value: &v, Unit: unitOf(name)}
}

// none records that name was not measured on this workload, and why.
func (m metrics) none(name, reason string) {
	m[name] = measure{Unit: unitOf(name), Reason: reason}
}

// median returns the median of xs (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// nearestRank returns the q-quantile of sorted by the nearest-rank rule:
// the ceil(q*N)-th smallest value.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// mib converts bytes to MiB.
func mib(b int64) float64 { return float64(b) / (1 << 20) }

// settle collects garbage and returns freed memory to the OS, so the next
// phase's peak resident set starts from what is live.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// resetPeakRSS restarts the kernel's peak-resident-set counter (VmHWM) at
// the current resident set, so a later peakRSS covers only what follows.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSS returns VmHWM in bytes.
func peakRSS() (int64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		f := strings.Fields(string(line[len("VmHWM:"):]))
		if len(f) != 2 || f[1] != "kB" {
			break
		}
		kb, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, err
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// startPeak settles the heap and restarts the peak resident set, so the
// next peakMiB covers only what runs in between.
func startPeak() error {
	settle()
	return resetPeakRSS()
}

func peakMiB() (float64, error) {
	b, err := peakRSS()
	return mib(b), err
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	allocs, bytes, gcs uint64
	pause              time.Duration
}

type memMeter struct{ start runtime.MemStats }

func startMem() *memMeter {
	m := &memMeter{}
	runtime.ReadMemStats(&m.start)
	return m
}

func (m *memMeter) stop() memDelta {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	return memDelta{
		allocs: end.Mallocs - m.start.Mallocs,
		bytes:  end.TotalAlloc - m.start.TotalAlloc,
		gcs:    uint64(end.NumGC - m.start.NumGC),
		pause:  time.Duration(end.PauseTotalNs - m.start.PauseTotalNs),
	}
}

// setRuntime writes the runtime.* metrics for d spread over records.
func setRuntime(m metrics, d memDelta, records int64) {
	m.set("runtime.allocs_per_record", float64(d.allocs)/float64(records))
	m.set("runtime.bytes_per_record", float64(d.bytes)/float64(records))
	m.set("runtime.gc_count", float64(d.gcs))
	m.set("runtime.gc_pause_ms", millis(d.pause))
}

// machine describes the host a run measured.
type machine struct {
	NumCPU        int       `json:"num_cpu"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	GoVersion     string    `json:"go_version"`
	GOARCH        string    `json:"goarch"`
	CPUModel      string    `json:"cpu_model"`
	Seed          int64     `json:"seed"`
	ProbeBeforeMs []float64 `json:"probe_before_ms"`
	ProbeAfterMs  []float64 `json:"probe_after_ms"`
}

func describeMachine(seed int64, before, after []float64) machine {
	return machine{
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GoVersion:     runtime.Version(),
		GOARCH:        runtime.GOARCH,
		CPUModel:      cpuModel(),
		Seed:          seed,
		ProbeBeforeMs: before,
		ProbeAfterMs:  after,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// probeSink keeps the calibration loop's result live.
var probeSink uint64

// probe times a fixed integer loop five times. The work never changes, so
// its wall time shows how much CPU the host gave this process around the
// run.
func probe() []float64 {
	out := make([]float64, 5)
	for r := range out {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 10_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		probeSink += x
		out[r] = millis(time.Since(start))
	}
	return out
}
