package obs

// MergeReports aggregates several member reports — one per tree of an
// ensemble build — into a single schema-complete report. Additive facts
// (scans, I/O, phase times, registry counters, tree sizes) are summed;
// structural maxima (rounds, depth, wall time) take the largest member,
// since members typically build concurrently; identity fields (algorithm,
// records, workers, seed) come from the first report, which the caller
// usually overwrites with ensemble-level values. Nil members are skipped;
// no input yields an empty but schema-complete report.
func MergeReports(reports ...*Report) *Report {
	out := &Report{
		SchemaVersion: ReportSchemaVersion,
		PhaseTotals:   emptyPhases(),
		Rounds:        []RoundReport{},
		Metrics:       (*Registry)(nil).Snapshot(),
	}
	first := true
	for _, r := range reports {
		if r == nil {
			continue
		}
		if first {
			out.Build = r.Build
			out.Quant = r.Quant
			first = false
		} else {
			mergeBuild(&out.Build, &r.Build)
			mergeQuant(&out.Quant, &r.Quant)
		}
		addIO(&out.IO, &r.IO)
		for name, st := range r.PhaseTotals {
			tot := out.PhaseTotals[name]
			tot.Ns += st.Ns
			tot.Count += st.Count
			out.PhaseTotals[name] = tot
		}
		mergeRounds(out, r.Rounds)
		mergeRegistry(&out.Metrics, &r.Metrics)
	}
	return out
}

// mergeBuild folds b into dst: sums for additive counters, max for
// structural extremes. Identity fields (Algorithm/Records/Workers/Seed)
// keep dst's values.
func mergeBuild(dst, b *BuildSummary) {
	if b.Rounds > dst.Rounds {
		dst.Rounds = b.Rounds
	}
	dst.Scans += b.Scans
	dst.BufferedRecords += b.BufferedRecords
	if b.PeakMemoryBytes > dst.PeakMemoryBytes {
		dst.PeakMemoryBytes = b.PeakMemoryBytes
	}
	dst.PredictionHits += b.PredictionHits
	dst.PredictionTotal += b.PredictionTotal
	dst.DoubleSplits += b.DoubleSplits
	dst.ObliqueSplits += b.ObliqueSplits
	dst.Reverts += b.Reverts
	dst.SkippedRecords += b.SkippedRecords
	dst.TreeNodes += b.TreeNodes
	dst.TreeLeaves += b.TreeLeaves
	if b.TreeDepth > dst.TreeDepth {
		dst.TreeDepth = b.TreeDepth
	}
	if b.WallNs > dst.WallNs {
		dst.WallNs = b.WallNs
	}
}

func addIO(dst, s *IOSummary) {
	dst.Scans += s.Scans
	dst.RecordsRead += s.RecordsRead
	dst.BytesRead += s.BytesRead
	dst.PagesRead += s.PagesRead
	dst.BytesWritten += s.BytesWritten
	dst.PagesWritten += s.PagesWritten
	dst.Retries += s.Retries
	dst.CorruptPages += s.CorruptPages
	dst.CacheHits += s.CacheHits
	dst.CacheMisses += s.CacheMisses
	dst.CacheEvictions += s.CacheEvictions
	dst.PrefetchedPages += s.PrefetchedPages
}

// mergeQuant folds a member's quant block in: enabled if any member was
// quantized, quantize time summed (members quantize independently), and
// round counts maxed like Build.Rounds. The identity fields (code tables and
// record width) keep dst's, i.e. the first member's, values.
func mergeQuant(dst, q *QuantSummary) {
	dst.Enabled = dst.Enabled || q.Enabled
	dst.QuantizeNs += q.QuantizeNs
	if q.DenseScanRounds > dst.DenseScanRounds {
		dst.DenseScanRounds = q.DenseScanRounds
	}
	if q.IntervalScanRounds > dst.IntervalScanRounds {
		dst.IntervalScanRounds = q.IntervalScanRounds
	}
}

// mergeRounds folds member rounds into the output by round index: scans and
// phase times sum; per-worker shard detail does not aggregate across
// members and is dropped.
func mergeRounds(out *Report, rounds []RoundReport) {
	for _, rr := range rounds {
		for len(out.Rounds) <= rr.Round {
			out.Rounds = append(out.Rounds, RoundReport{
				Round:          len(out.Rounds),
				Phases:         emptyPhases(),
				WorkerRecords:  []int64{},
				WorkerNs:       []int64{},
				ShardImbalance: 1,
			})
		}
		dst := &out.Rounds[rr.Round]
		dst.Scans += rr.Scans
		for name, st := range rr.Phases {
			tot := dst.Phases[name]
			tot.Ns += st.Ns
			tot.Count += st.Count
			dst.Phases[name] = tot
		}
	}
}

// mergeRegistry folds a member snapshot in: counters sum, gauges take the
// maximum (they are point-in-time levels, not totals), and histograms with
// identical bucket bounds merge exactly (quantiles recomputed from the
// summed buckets); a bound mismatch keeps the larger-count member.
func mergeRegistry(dst *RegistrySnapshot, s *RegistrySnapshot) {
	for k, v := range s.Counters {
		dst.Counters[k] += v
	}
	for k, v := range s.Gauges {
		if cur, ok := dst.Gauges[k]; !ok || v > cur {
			dst.Gauges[k] = v
		}
	}
	for k, h := range s.Histograms {
		cur, ok := dst.Histograms[k]
		if !ok {
			dst.Histograms[k] = h
			continue
		}
		dst.Histograms[k] = mergeHistogram(cur, h)
	}
}

func mergeHistogram(a, b HistogramSnapshot) HistogramSnapshot {
	if len(a.Bounds) != len(b.Bounds) || !sameBounds(a.Bounds, b.Bounds) {
		if b.Count > a.Count {
			return b
		}
		return a
	}
	out := HistogramSnapshot{
		Count:  a.Count + b.Count,
		SumNs:  a.SumNs + b.SumNs,
		Bounds: append([]int64(nil), a.Bounds...),
	}
	out.Buckets = make([]int64, len(a.Buckets))
	for i := range out.Buckets {
		out.Buckets[i] = a.Buckets[i] + b.Buckets[i]
	}
	out.MaxNs = a.MaxNs
	if b.MaxNs > out.MaxNs {
		out.MaxNs = b.MaxNs
	}
	switch {
	case a.Count == 0:
		out.MinNs = b.MinNs
	case b.Count == 0:
		out.MinNs = a.MinNs
	default:
		out.MinNs = a.MinNs
		if b.MinNs < out.MinNs {
			out.MinNs = b.MinNs
		}
	}
	if out.Count > 0 {
		out.MeanNs = float64(out.SumNs) / float64(out.Count)
	}
	out.P50Ns = out.quantile(0.50)
	out.P90Ns = out.quantile(0.90)
	out.P99Ns = out.quantile(0.99)
	return out
}

func sameBounds(a, b []int64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
