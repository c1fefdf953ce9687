package obs

import "testing"

func TestMergeReportsEmpty(t *testing.T) {
	r := MergeReports()
	if r.SchemaVersion != ReportSchemaVersion {
		t.Fatal("schema version missing")
	}
	if len(r.PhaseTotals) != int(NumPhases) {
		t.Fatalf("phase totals incomplete: %d keys", len(r.PhaseTotals))
	}
	if r.Rounds == nil || r.Metrics.Counters == nil {
		t.Fatal("merged report not schema-complete")
	}
}

func TestMergeReportsSumsAndMaxes(t *testing.T) {
	mk := func(scans int64, rounds, depth int, wall int64) *Report {
		rep := (*Collector)(nil).Snapshot()
		rep.Build = BuildSummary{
			Algorithm: "cmp", Records: 100, Workers: 2, Seed: 7,
			Rounds: rounds, Scans: int(scans), TreeNodes: 11, TreeLeaves: 6,
			TreeDepth: depth, WallNs: wall,
		}
		rep.IO = IOSummary{Scans: scans, RecordsRead: 100 * scans, CacheHits: 5}
		rep.PhaseTotals[PhaseScan.String()] = PhaseStat{Ns: 1000, Count: scans}
		rep.Rounds = []RoundReport{{
			Round: 0, Scans: scans, Phases: emptyPhases(),
			WorkerRecords: []int64{50, 50}, WorkerNs: []int64{1, 1}, ShardImbalance: 1,
		}}
		rep.Metrics.Counters["trees"] = 1
		rep.Metrics.Gauges["level"] = wall
		return rep
	}
	m := MergeReports(mk(3, 4, 5, 100), nil, mk(2, 6, 3, 200))
	if m.Build.Scans != 5 || m.IO.Scans != 5 || m.IO.RecordsRead != 500 {
		t.Errorf("sums wrong: scans=%d io.scans=%d records=%d", m.Build.Scans, m.IO.Scans, m.IO.RecordsRead)
	}
	if m.Build.Rounds != 6 || m.Build.TreeDepth != 5 || m.Build.WallNs != 200 {
		t.Errorf("maxes wrong: rounds=%d depth=%d wall=%d", m.Build.Rounds, m.Build.TreeDepth, m.Build.WallNs)
	}
	if m.Build.TreeNodes != 22 || m.Build.TreeLeaves != 12 {
		t.Errorf("tree sizes not summed: %d/%d", m.Build.TreeNodes, m.Build.TreeLeaves)
	}
	if got := m.PhaseTotals[PhaseScan.String()]; got.Ns != 2000 || got.Count != 5 {
		t.Errorf("phase totals wrong: %+v", got)
	}
	if len(m.Rounds) != 1 || m.Rounds[0].Scans != 5 {
		t.Errorf("rounds not folded by index: %+v", m.Rounds)
	}
	if m.Metrics.Counters["trees"] != 2 {
		t.Errorf("counters not summed: %d", m.Metrics.Counters["trees"])
	}
	if m.Metrics.Gauges["level"] != 200 {
		t.Errorf("gauges should take max: %d", m.Metrics.Gauges["level"])
	}
}

func TestMergeReportsHistograms(t *testing.T) {
	snap := func(obsv ...int64) HistogramSnapshot {
		h := NewHistogram(nil)
		for _, v := range obsv {
			h.Observe(v)
		}
		return h.Snapshot()
	}
	a := (*Collector)(nil).Snapshot()
	a.Metrics.Histograms["lat"] = snap(100, 200)
	b := (*Collector)(nil).Snapshot()
	b.Metrics.Histograms["lat"] = snap(50, 400)
	m := MergeReports(a, b)
	h := m.Metrics.Histograms["lat"]
	if h.Count != 4 || h.SumNs != 750 || h.MinNs != 50 || h.MaxNs != 400 {
		t.Fatalf("histogram merge wrong: %+v", h)
	}
}

// TestMergeReportsQuant pins the quant block's merge rules: enabled ORs
// across members, quantize time sums, round counts take the maximum, and
// the code tables and record width come from the first member.
func TestMergeReportsQuant(t *testing.T) {
	mk := func(enabled bool, bins []int, ns int64, codeBytes int64, dense, interval int) *Report {
		rep := (*Collector)(nil).Snapshot()
		rep.Quant = QuantSummary{
			Enabled: enabled, BinsPerAttr: bins, QuantizeNs: ns,
			CodeBytesPerRecord: codeBytes, DenseScanRounds: dense, IntervalScanRounds: interval,
		}
		return rep
	}
	m := MergeReports(nil, mk(false, nil, 0, 0, 0, 7), mk(true, []int{4, 9}, 300, 12, 5, 0), mk(true, []int{4, 8}, 200, 11, 9, 0))
	q := m.Quant
	if !q.Enabled {
		t.Error("enabled must OR across members")
	}
	if q.QuantizeNs != 500 {
		t.Errorf("quantize_ns = %d, want the sum 500", q.QuantizeNs)
	}
	if q.DenseScanRounds != 9 || q.IntervalScanRounds != 7 {
		t.Errorf("round counts = dense %d, interval %d; want the maxima 9 and 7",
			q.DenseScanRounds, q.IntervalScanRounds)
	}
	if q.BinsPerAttr != nil || q.CodeBytesPerRecord != 0 {
		t.Errorf("identity fields = %v/%d, want the first member's nil/0", q.BinsPerAttr, q.CodeBytesPerRecord)
	}

	m = MergeReports(mk(true, []int{4, 9}, 300, 12, 5, 0), mk(true, []int{4, 8}, 200, 11, 3, 0))
	if len(m.Quant.BinsPerAttr) != 2 || m.Quant.BinsPerAttr[1] != 9 || m.Quant.CodeBytesPerRecord != 12 {
		t.Errorf("identity fields = %v/%d, want the first member's [4 9]/12",
			m.Quant.BinsPerAttr, m.Quant.CodeBytesPerRecord)
	}
	if m.Quant.DenseScanRounds != 5 {
		t.Errorf("dense_scan_rounds = %d, want 5", m.Quant.DenseScanRounds)
	}
}
