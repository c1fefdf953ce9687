// Package storage provides the record sources the classifiers scan.
//
// The paper's central cost is disk I/O on training sets too large for
// memory: every algorithm is characterized by how many sequential scans it
// makes and what it writes back. This package therefore offers two
// interchangeable record sources — a binary on-disk file and an in-memory
// table — both of which meter scans, records, bytes and pages through the
// same Stats structure, so experiments can report the paper's I/O shape
// independent of the machine they run on.
package storage

import (
	"cmpdt/internal/dataset"
	"cmpdt/internal/obs"
)

// PageSize is the simulated disk page size used for page accounting.
const PageSize = 8192

// Stats meters the I/O a record source has served.
type Stats struct {
	Scans        int64 // completed full sequential scans
	RecordsRead  int64
	BytesRead    int64
	PagesRead    int64
	BytesWritten int64
	PagesWritten int64
	// Retries counts transient read failures that were retried (File
	// sources under a RetryPolicy; always zero for Mem).
	Retries int64
	// CorruptPages counts pages whose checksum failed verification
	// (FormatV2 File sources; corruption aborts the scan).
	CorruptPages int64

	// The cache counters below meter physical page traffic and are only
	// touched by File sources with a page cache attached (always zero for
	// Mem and uncached File scans). Physical page reads for a cached scan
	// are CacheMisses + PrefetchedPages; the logical counters above are
	// unchanged by caching, so the paper's scan-count cost model holds
	// whatever the cache configuration.

	// CacheHits counts demand page requests served from the cache without
	// physical I/O.
	CacheHits int64
	// CacheMisses counts demand page requests that went to disk: cache
	// fills plus the rare bypass reads taken when every frame is pinned.
	CacheMisses int64
	// Evictions counts resident pages evicted to make room for a fill.
	Evictions int64
	// PrefetchedPages counts pages filled by sequential readahead before
	// any scanner demanded them.
	PrefetchedPages int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Scans += other.Scans
	s.RecordsRead += other.RecordsRead
	s.BytesRead += other.BytesRead
	s.PagesRead += other.PagesRead
	s.BytesWritten += other.BytesWritten
	s.PagesWritten += other.PagesWritten
	s.Retries += other.Retries
	s.CorruptPages += other.CorruptPages
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.Evictions += other.Evictions
	s.PrefetchedPages += other.PrefetchedPages
}

// Summary mirrors s into an observability report's I/O section.
func (s Stats) Summary() obs.IOSummary {
	return obs.IOSummary{
		Scans:           s.Scans,
		RecordsRead:     s.RecordsRead,
		BytesRead:       s.BytesRead,
		PagesRead:       s.PagesRead,
		BytesWritten:    s.BytesWritten,
		PagesWritten:    s.PagesWritten,
		Retries:         s.Retries,
		CorruptPages:    s.CorruptPages,
		CacheHits:       s.CacheHits,
		CacheMisses:     s.CacheMisses,
		CacheEvictions:  s.Evictions,
		PrefetchedPages: s.PrefetchedPages,
	}
}

// Source is a scannable training set. Implementations meter their I/O.
type Source interface {
	// Schema returns the dataset schema.
	Schema() *dataset.Schema
	// NumRecords returns the number of records.
	NumRecords() int
	// Scan calls fn for every record in storage order. The vals slice is
	// reused between calls; fn must copy it to retain it. A non-nil error
	// from fn aborts the scan and is returned.
	Scan(fn func(rid int, vals []float64, label int) error) error
	// Stats returns cumulative I/O counters.
	Stats() Stats
	// ResetStats zeroes the counters.
	ResetStats()
}

// recordBytes returns the on-disk/simulated size of one record: one float64
// per attribute plus a 2-byte class label.
func recordBytes(schema *dataset.Schema) int64 {
	return int64(schema.NumAttrs())*8 + 2
}

// pagesFor converts a byte count to pages, rounding up.
func pagesFor(bytes int64) int64 {
	return (bytes + PageSize - 1) / PageSize
}

// Mem adapts an in-memory dataset.Table to Source, metering I/O as if the
// table lived on disk in the binary record format. It lets small experiments
// and tests exercise exactly the same scan-counting paths as the file store.
type Mem struct {
	table *dataset.Table
	stats Stats
}

// NewMem wraps a table.
func NewMem(t *dataset.Table) *Mem { return &Mem{table: t} }

// Schema implements Source.
func (m *Mem) Schema() *dataset.Schema { return m.table.Schema() }

// NumRecords implements Source.
func (m *Mem) NumRecords() int { return m.table.NumRecords() }

// Scan implements Source.
func (m *Mem) Scan(fn func(rid int, vals []float64, label int) error) error {
	if err := m.ScanRange(0, m.table.NumRecords(), &m.stats, fn); err != nil {
		return err
	}
	m.stats.Scans++
	return nil
}

// ScanRange implements RangeSource: records lo <= rid < hi in rid order.
// I/O is accounted into stats when non-nil, into the source's own counters
// otherwise (not safe under concurrent calls — see RangeSource).
func (m *Mem) ScanRange(lo, hi int, stats *Stats, fn func(rid int, vals []float64, label int) error) error {
	n := m.table.NumRecords()
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if stats == nil {
		stats = &m.stats
	}
	rb := recordBytes(m.table.Schema())
	account := func(recs int) {
		stats.RecordsRead += int64(recs)
		bytes := int64(recs) * rb
		stats.BytesRead += bytes
		stats.PagesRead += pagesFor(bytes)
	}
	for i := lo; i < hi; i++ {
		if err := fn(i, m.table.Row(i), m.table.Label(i)); err != nil {
			account(i - lo + 1)
			return err
		}
	}
	if hi > lo {
		account(hi - lo)
	}
	return nil
}

// AddStats implements RangeSource.
func (m *Mem) AddStats(s Stats) { m.stats.Add(s) }

// Stats implements Source.
func (m *Mem) Stats() Stats { return m.stats }

// ResetStats implements Source.
func (m *Mem) ResetStats() { m.stats = Stats{} }

// Table returns the wrapped table.
func (m *Mem) Table() *dataset.Table { return m.table }
