package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"
)

// ReportSchemaVersion identifies the emitted JSON layout. The CI bench
// gate (cmd/benchdiff) and the golden-file schema test pin this contract:
// bump it when a key is added, renamed, or removed.
//
// v3 added the serve block (null outside cmpserve).
// v4 added the quant block (always present; enabled=false on raw builds).
// v5 added the stream block (null outside cmpstream).
// v6 added the stats block (sufficient-statistics cache counters).
// v7 removed the stats block with the cache it described.
const ReportSchemaVersion = 7

// PhaseStat is one phase's accumulated time.
type PhaseStat struct {
	Ns    int64 `json:"ns"`
	Count int64 `json:"count"`
}

// RoundReport is one construction round's phase breakdown. Round 0 is the
// discretization pass; rounds 1..N are scan rounds.
type RoundReport struct {
	Round int `json:"round"`
	// Scans counts completed full storage passes this round; the sum over
	// all rounds equals storage.Stats.Scans exactly.
	Scans int64 `json:"scans"`
	// Phases maps every phase name (present even when zero) to its time.
	Phases map[string]PhaseStat `json:"phases"`
	// WorkerRecords and WorkerNs report each scan worker's share of this
	// round's pass, indexed by worker.
	WorkerRecords []int64 `json:"worker_records"`
	WorkerNs      []int64 `json:"worker_ns"`
	// ShardImbalance is max/mean over WorkerRecords (1.0 when balanced,
	// serial, or no records were routed this round).
	ShardImbalance float64 `json:"shard_imbalance"`
}

// BuildSummary mirrors core.Stats into the report (obs cannot import core:
// core imports obs).
type BuildSummary struct {
	Algorithm       string `json:"algorithm"`
	Records         int    `json:"records"`
	Workers         int    `json:"workers"`
	Seed            int64  `json:"seed"`
	Rounds          int    `json:"rounds"`
	Scans           int    `json:"scans"`
	BufferedRecords int64  `json:"buffered_records"`
	PeakMemoryBytes int64  `json:"peak_memory_bytes"`
	PredictionHits  int    `json:"prediction_hits"`
	PredictionTotal int    `json:"prediction_total"`
	DoubleSplits    int    `json:"double_splits"`
	ObliqueSplits   int    `json:"oblique_splits"`
	Reverts         int    `json:"reverts"`
	SkippedRecords  int64  `json:"skipped_records"`
	TreeNodes       int    `json:"tree_nodes"`
	TreeLeaves      int    `json:"tree_leaves"`
	TreeDepth       int    `json:"tree_depth"`
	WallNs          int64  `json:"wall_ns"`
}

// IOSummary mirrors storage.Stats into the report.
type IOSummary struct {
	Scans        int64 `json:"scans"`
	RecordsRead  int64 `json:"records_read"`
	BytesRead    int64 `json:"bytes_read"`
	PagesRead    int64 `json:"pages_read"`
	BytesWritten int64 `json:"bytes_written"`
	PagesWritten int64 `json:"pages_written"`
	Retries      int64 `json:"retries"`
	CorruptPages int64 `json:"corrupt_pages"`
	// The cache counters split the logical reads above from physical page
	// traffic: physical page reads = cache_misses + prefetched_pages. All
	// zero when no page cache is attached.
	CacheHits       int64 `json:"cache_hits"`
	CacheMisses     int64 `json:"cache_misses"`
	CacheEvictions  int64 `json:"cache_evictions"`
	PrefetchedPages int64 `json:"prefetched_pages"`
}

// QuantSummary is the quantized-build block of the report. Always present;
// a raw build reports enabled=false with interval_scan_rounds set and the
// remaining fields zero.
type QuantSummary struct {
	Enabled bool `json:"enabled"`
	// BinsPerAttr is each attribute's code-table size (numeric: cut points
	// + 1; categorical: the cardinality). Null on raw builds.
	BinsPerAttr []int `json:"bins_per_attr"`
	// QuantizeNs is the wall time of the discretize + encode passes (for a
	// quantized forest: every member's index walk plus the one index
	// build); zero when the training source was already bin-coded.
	QuantizeNs int64 `json:"quantize_ns"`
	// CodeBytesPerRecord is the encoded record size (per-attr code widths
	// plus the 2-byte label).
	CodeBytesPerRecord int64 `json:"code_bytes_per_record"`
	// DenseScanRounds and IntervalScanRounds partition the build's rounds
	// by scan kind; exactly one of the two equals the round count.
	DenseScanRounds    int `json:"dense_scan_rounds"`
	IntervalScanRounds int `json:"interval_scan_rounds"`
}

// ServeSummary is the serving-daemon block of the report, filled only by
// cmd/cmpserve (null elsewhere). It condenses the serve_* registry metrics
// into the handful of fields an operator dashboards first.
type ServeSummary struct {
	ModelVersion int64  `json:"model_version"`
	ModelKind    string `json:"model_kind"`
	ModelPath    string `json:"model_path"`
	// Requests counts admitted prediction requests (single + batch);
	// Records counts records scored through them.
	Requests int64 `json:"requests"`
	Records  int64 `json:"records"`
	// Shed counts requests rejected at admission with 429.
	Shed int64 `json:"shed"`
	// Expired counts requests whose deadline fired before scoring finished.
	Expired         int64 `json:"expired"`
	ReloadSuccesses int64 `json:"reload_successes"`
	ReloadFailures  int64 `json:"reload_failures"`
	// ReloadBadModel counts the subset of failures that were structural
	// (cmpdt.ErrBadModel): retrying the same file cannot succeed.
	ReloadBadModel int64 `json:"reload_bad_model"`
	QueueDepth     int64 `json:"queue_depth"`
	// Latency percentiles of whole-request wall time, nanoseconds.
	P50Ns int64 `json:"p50_ns"`
	P99Ns int64 `json:"p99_ns"`
}

// StreamSummary is the online-training block of the report, filled only by
// cmd/cmpstream (null elsewhere). It mirrors stream.Stats plus the snapshot
// publication count.
type StreamSummary struct {
	RecordsIngested int64 `json:"records_ingested"`
	SplitsCommitted int64 `json:"splits_committed"`
	// LeafFreezes counts warming leaves whose cut points were fixed;
	// Regrows counts stale subtrees collapsed by the drift handler.
	LeafFreezes int64 `json:"leaf_freezes"`
	Regrows     int64 `json:"regrows"`
	// SnapshotsPublished counts models committed to the publish directory.
	SnapshotsPublished int64 `json:"snapshots_published"`
	// RecordsToFirstSplit is the 1-based record index of the first committed
	// split (0 if the stream ended before any).
	RecordsToFirstSplit int64 `json:"records_to_first_split"`
	TreeNodes           int   `json:"tree_nodes"`
	TreeLeaves          int   `json:"tree_leaves"`
	TreeDepth           int   `json:"tree_depth"`
	// SketchBytes approximates live sketch memory: warming GK summaries and
	// buffers plus frozen histograms.
	SketchBytes int64 `json:"sketch_bytes"`
}

// RetiredStats is what is left of the schema-v6 statistics-cache block.
// Its fields are always zero and never serialized; the type exists only so
// perfbench, which still reads them for its stats.* metrics, compiles.
// Delete it together with those metrics.
type RetiredStats struct {
	Hits       int64
	Misses     int64
	ScansSaved int
}

// Report is the machine-readable observability report: the -metrics-json
// contract. Key set and nesting are stable for a given SchemaVersion;
// timing values (ns fields, imbalance) vary run to run, everything else is
// deterministic under a fixed seed and worker count.
type Report struct {
	SchemaVersion int          `json:"schema_version"`
	Build         BuildSummary `json:"build"`
	IO            IOSummary    `json:"io"`
	// PhaseTotals sums each phase over every round; every phase name is
	// always present.
	PhaseTotals map[string]PhaseStat `json:"phase_totals"`
	Rounds      []RoundReport        `json:"rounds"`
	// Quant is the quantized-build summary (enabled=false on raw builds).
	Quant QuantSummary `json:"quant"`
	// Stats is always zero and not serialized (see RetiredStats).
	Stats RetiredStats `json:"-"`
	// Metrics snapshots the auxiliary registry (inference latency
	// histograms, tool-specific counters).
	Metrics RegistrySnapshot `json:"metrics"`
	// Serve is the serving-daemon summary; null outside cmd/cmpserve.
	Serve *ServeSummary `json:"serve"`
	// Stream is the online-training summary; null outside cmd/cmpstream.
	Stream *StreamSummary `json:"stream"`
}

// Snapshot assembles the collector's rounds into a Report. Build and IO
// summaries are left zero for the caller to fill (the collector cannot see
// them). Nil-safe: a nil collector yields an empty but schema-complete
// report.
func (c *Collector) Snapshot() *Report {
	rep := &Report{
		SchemaVersion: ReportSchemaVersion,
		PhaseTotals:   emptyPhases(),
		Rounds:        []RoundReport{},
		Metrics:       (*Registry)(nil).Snapshot(),
	}
	if c == nil {
		return rep
	}
	c.mu.Lock()
	rounds := append([]*roundRec(nil), c.rounds...)
	c.mu.Unlock()
	for _, r := range rounds {
		rr := RoundReport{
			Round:          r.round,
			Scans:          r.scans.Load(),
			Phases:         emptyPhases(),
			WorkerRecords:  make([]int64, len(r.workerRecords)),
			WorkerNs:       make([]int64, len(r.workerNs)),
			ShardImbalance: 1,
		}
		for p := Phase(0); p < NumPhases; p++ {
			st := PhaseStat{Ns: r.phaseNs[p].Load(), Count: r.phaseCount[p].Load()}
			rr.Phases[p.String()] = st
			tot := rep.PhaseTotals[p.String()]
			tot.Ns += st.Ns
			tot.Count += st.Count
			rep.PhaseTotals[p.String()] = tot
		}
		var sum, max int64
		for w := range r.workerRecords {
			rr.WorkerRecords[w] = r.workerRecords[w].Load()
			rr.WorkerNs[w] = r.workerNs[w].Load()
			sum += rr.WorkerRecords[w]
			if rr.WorkerRecords[w] > max {
				max = rr.WorkerRecords[w]
			}
		}
		if sum > 0 && len(rr.WorkerRecords) > 0 {
			mean := float64(sum) / float64(len(rr.WorkerRecords))
			rr.ShardImbalance = float64(max) / mean
		}
		rep.Rounds = append(rep.Rounds, rr)
	}
	rep.Metrics = c.reg.Snapshot()
	return rep
}

// emptyPhases returns a phase map with every phase present and zero.
func emptyPhases() map[string]PhaseStat {
	m := make(map[string]PhaseStat, NumPhases)
	for p := Phase(0); p < NumPhases; p++ {
		m[p.String()] = PhaseStat{}
	}
	return m
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders a human-readable phase breakdown.
func (r *Report) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "%s: %d records, %d workers, %d rounds, %d scans (io: %d)\n",
		r.Build.Algorithm, r.Build.Records, r.Build.Workers, r.Build.Rounds,
		r.Build.Scans, r.IO.Scans)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "phase\tcount\ttotal")
	for _, name := range sortedKeys(r.PhaseTotals) {
		st := r.PhaseTotals[name]
		fmt.Fprintf(tw, "%s\t%d\t%.3fms\n", name, st.Count, float64(st.Ns)/1e6)
	}
	return tw.Flush()
}
