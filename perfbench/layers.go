package main

import (
	"os"
	"time"

	"cmpdt"
	"cmpdt/internal/storage"
)

// reportLayers fills the storage, core and stats metrics from the Observer
// reports of traced builds. Counts and phase times are per build; ratios
// pool every build.
func reportLayers(m metrics, reps []*cmpdt.BuildReport, quantized bool) {
	var (
		builds                                       = float64(len(reps))
		scans, bytesRead, records, pages             int64
		cacheHits, cacheMisses, prefetched, physical int64
		wall, phaseSum                               int64
		rounds, buffered, predHits, predTotal        int64
		doubles, obliques, reverts                   int64
		peakMem                                      int64
		imbalance                                    = 1.0
		statsHits, statsMisses, scansSaved           int64
		quantNs                                      int64
		codeBytes                                    int64
		quantReported                                = true
	)
	phases := map[string]int64{}
	for _, r := range reps {
		scans += r.IO.Scans
		bytesRead += r.IO.BytesRead
		records += int64(r.Build.Records)
		pages += r.IO.PagesRead
		cacheHits += r.IO.CacheHits
		cacheMisses += r.IO.CacheMisses
		prefetched += r.IO.PrefetchedPages
		if r.IO.CacheHits+r.IO.CacheMisses > 0 {
			physical += r.IO.CacheMisses + r.IO.PrefetchedPages
		} else {
			physical += r.IO.PagesRead
		}
		wall += r.Build.WallNs
		for name, st := range r.PhaseTotals {
			phases[name] += st.Ns
			phaseSum += st.Ns
		}
		for _, rr := range r.Rounds {
			if rr.ShardImbalance > imbalance {
				imbalance = rr.ShardImbalance
			}
		}
		rounds += int64(r.Build.Rounds)
		buffered += r.Build.BufferedRecords
		predHits += int64(r.Build.PredictionHits)
		predTotal += int64(r.Build.PredictionTotal)
		doubles += int64(r.Build.DoubleSplits)
		obliques += int64(r.Build.ObliqueSplits)
		reverts += int64(r.Build.Reverts)
		if r.Build.PeakMemoryBytes > peakMem {
			peakMem = r.Build.PeakMemoryBytes
		}
		statsHits += r.Stats.Hits
		statsMisses += r.Stats.Misses
		scansSaved += int64(r.Stats.ScansSaved)
		quantReported = quantReported && r.Quant.Enabled
		quantNs += r.Quant.QuantizeNs
		codeBytes = r.Quant.CodeBytesPerRecord
	}

	m.set("storage.scans", float64(scans)/builds)
	m.set("storage.bytes_read_per_record", float64(bytesRead)/float64(records))
	// Logical page reads the page cache served; zero when no cache is
	// attached, since every read then goes to the file.
	m.set("storage.cache_hit_ratio", float64(cacheHits)/float64(pages))
	m.set("storage.physical_pages_read", float64(physical)/builds)

	for _, p := range []string{"init", "scan", "sort", "resolve", "oblique", "decide", "collect", "prune"} {
		m.set("core."+p+"_ms", float64(phases[p])/builds/1e6)
	}
	m.set("core.phase_coverage", float64(phaseSum)/float64(wall))
	m.set("core.rounds", float64(rounds)/builds)
	m.set("core.buffered_records", float64(buffered)/builds)
	if predTotal > 0 {
		m.set("core.prediction_hit_ratio", float64(predHits)/float64(predTotal))
	} else {
		m.none("core.prediction_hit_ratio", "the builds made no split predictions")
	}
	m.set("core.double_splits", float64(doubles)/builds)
	m.set("core.oblique_splits", float64(obliques)/builds)
	m.set("core.reverts", float64(reverts)/builds)
	m.set("core.peak_memory_mb", mib(peakMem))
	m.set("core.shard_imbalance_max", imbalance)

	switch {
	case !quantized:
		m.none("core.quantize_ms", "raw build: no quantize pass")
		m.none("storage.code_bytes_per_record", "raw build: records are scanned uncoded")
	case !quantReported:
		m.none("core.quantize_ms", "the forest's merged Observer report has no quant block")
		m.none("storage.code_bytes_per_record", "the forest's merged Observer report has no quant block")
	default:
		m.set("core.quantize_ms", float64(quantNs)/builds/1e6)
		m.set("storage.code_bytes_per_record", float64(codeBytes))
	}

	m.set("stats.scans_saved", float64(scansSaved)/builds)
	if statsHits+statsMisses > 0 {
		m.set("stats.hit_ratio", float64(statsHits)/float64(statsHits+statsMisses))
	} else {
		m.none("stats.hit_ratio", "no statistics-cache lookups: the cache is off by default")
	}
}

// scanNsPerRecord times OpenFile plus one Scan pass over the store at path,
// three times, and returns the median cost per record.
func scanNsPerRecord(path string) (float64, error) {
	var per []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		f, err := storage.OpenFile(path)
		if err != nil {
			return 0, err
		}
		sum := 0.0
		err = f.Scan(func(_ int, vals []float64, _ int) error {
			sum += vals[0]
			return nil
		})
		d := time.Since(start)
		if err != nil {
			return 0, err
		}
		per = append(per, float64(d.Nanoseconds())/float64(f.NumRecords()))
	}
	return median(per), nil
}

// treeLayers measures the model file at path: its size, how long
// LoadPredictor takes, and what scoring costs per record when each of
// requests goes through its own PredictBatchWorkers call on one worker, as
// the server's dispatcher scores it. It returns that cost in ns/record.
func treeLayers(m metrics, p model, path string, requests [][][]float64) (float64, error) {
	switch t := p.(type) {
	case *cmpdt.Tree:
		m.set("tree.nodes", float64(t.Size()))
	case *cmpdt.Forest:
		m.set("tree.nodes", float64(t.TotalNodes()))
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	m.set("tree.model_bytes", float64(st.Size()))
	var loads []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := cmpdt.LoadPredictor(path); err != nil {
			return 0, err
		}
		loads = append(loads, millis(time.Since(start)))
	}
	m.set("tree.model_load_ms", median(loads))

	records, widest := 0, 0
	for _, r := range requests {
		records += len(r)
		widest = max(widest, len(r))
	}
	dst := make([]int, widest)
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < 200*time.Millisecond {
		t0 := time.Now()
		for _, r := range requests {
			p.PredictBatchWorkers(dst[:len(r)], r, 1)
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(records))
	}
	ns := median(per)
	m.set("tree.score_ns_per_record", ns)
	return ns, nil
}

// forestLayers fills the forest metrics, null for a single tree.
func forestLayers(m metrics, p model) {
	f, ok := p.(*cmpdt.Forest)
	if !ok {
		m.none("forest.total_nodes", "single-tree workload")
		m.none("forest.oob_error", "single-tree workload")
		return
	}
	m.set("forest.total_nodes", float64(f.TotalNodes()))
	m.set("forest.oob_error", f.OOBError())
}
