package storage

import (
	"fmt"
	"math/rand"
	"sort"

	"cmpdt/internal/dataset"
)

// Mask assigns every record of an underlying source a multiplicity: how
// many times the record appears in a derived (virtual) view. A bootstrap
// sample drawn with replacement is exactly such a multiplicity vector, so
// an ensemble can train each tree on its own resample of one shared store
// without copying a single record — the mask is a few bytes per record and
// the data stays where it is, behind whatever page cache the store carries.
type Mask struct {
	counts []uint32
	// cum[i] is the number of virtual records contributed by records
	// [0, i); cum[len(counts)] is the virtual total. A record u therefore
	// covers the dense virtual-rid span [cum[u], cum[u]+counts[u]).
	cum []int64
}

// NewMask wraps a multiplicity vector. The slice is retained.
func NewMask(counts []uint32) *Mask {
	m := &Mask{counts: counts, cum: make([]int64, len(counts)+1)}
	for i, c := range counts {
		m.cum[i+1] = m.cum[i] + int64(c)
	}
	return m
}

// BootstrapMask draws n records with replacement from [0, n) using a
// deterministic generator seeded with seed, and returns the resulting
// multiplicity mask. The same (n, seed) pair always yields the same mask.
func BootstrapMask(n int, seed int64) *Mask {
	counts := make([]uint32, n)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		counts[rng.Intn(n)]++
	}
	return NewMask(counts)
}

// FullMask includes every record exactly once — the identity mask, under
// which a Masked view is record-for-record equivalent to its source.
func FullMask(n int) *Mask {
	counts := make([]uint32, n)
	for i := range counts {
		counts[i] = 1
	}
	return NewMask(counts)
}

// Len returns the number of virtual records the mask presents.
func (m *Mask) Len() int { return int(m.cum[len(m.counts)]) }

// NumSource returns the number of underlying records the mask covers.
func (m *Mask) NumSource() int { return len(m.counts) }

// Count returns record rid's multiplicity.
func (m *Mask) Count(rid int) int { return int(m.counts[rid]) }

// Offset returns the first virtual rid record rid covers: its copies are
// the virtual records [Offset(rid), Offset(rid)+Count(rid)).
func (m *Mask) Offset(rid int) int { return int(m.cum[rid]) }

// InBag reports whether record rid appears at least once.
func (m *Mask) InBag(rid int) bool { return m.counts[rid] > 0 }

// OutOfBag returns how many underlying records have multiplicity zero —
// the out-of-bag set a bagged ensemble estimates generalization error on.
func (m *Mask) OutOfBag() int {
	oob := 0
	for _, c := range m.counts {
		if c == 0 {
			oob++
		}
	}
	return oob
}

// recordOf returns the underlying record covering virtual rid v.
func (m *Mask) recordOf(v int64) int {
	return sort.Search(len(m.counts), func(u int) bool { return m.cum[u+1] > v })
}

// Masked presents a masked view of a RangeSource: a dense virtual record
// space 0..Len-1 in which underlying record u appears Count(u) times,
// contiguously and in storage order. The view itself implements
// RangeSource, so the level-synchronous builders — including their
// partitioned parallel scans — run over it unchanged, and several views
// over one store can scan concurrently (each ScanRange meters into private
// Stats and the underlying store is only ever read through stats-carrying
// range scans, which File and Mem document as concurrency-safe).
//
// Accounting splits the same way the page cache does: the logical counters
// (RecordsRead/BytesRead/PagesRead/Scans) are metered at *virtual* record
// granularity — the records the training algorithm consumed — while the
// physical and reliability counters (cache hits/misses/evictions/
// prefetches, retries, corrupt pages) pass through from the underlying
// store untouched. Virtual-granularity logical metering keeps the totals
// independent of the worker count: a boundary record split across two
// workers' virtual ranges is read twice physically but its copies are
// consumed exactly once each.
type Masked struct {
	src   RangeSource
	mask  *Mask
	rb    int64
	stats Stats
}

// NewMasked wraps src under mask. The mask must cover exactly src's
// records.
func NewMasked(src RangeSource, mask *Mask) (*Masked, error) {
	if mask.NumSource() != src.NumRecords() {
		return nil, fmt.Errorf("storage: mask covers %d records, source has %d",
			mask.NumSource(), src.NumRecords())
	}
	return &Masked{src: src, mask: mask, rb: recordBytes(src.Schema())}, nil
}

// Schema implements Source.
func (mv *Masked) Schema() *dataset.Schema { return mv.src.Schema() }

// NumRecords implements Source: the virtual record count.
func (mv *Masked) NumRecords() int { return mv.mask.Len() }

// Mask returns the view's multiplicity mask.
func (mv *Masked) Mask() *Mask { return mv.mask }

// Scan implements Source over the virtual record space. One full pass
// counts as one scan, exactly like the underlying sources.
func (mv *Masked) Scan(fn func(rid int, vals []float64, label int) error) error {
	err := mv.ScanRange(0, mv.mask.Len(), &mv.stats, fn)
	if err == nil {
		mv.stats.Scans++
	}
	return err
}

// ScanRange implements RangeSource over virtual rids: every virtual record
// lo <= rid < hi in rid order, each underlying record delivered once per
// retained multiplicity. The virtual range maps to one contiguous
// underlying range, so a partitioned parallel scan over the view is a
// partitioned (sequential) scan over the store.
func (mv *Masked) ScanRange(lo, hi int, stats *Stats, fn func(rid int, vals []float64, label int) error) error {
	if stats == nil {
		stats = &mv.stats
	}
	n := mv.mask.Len()
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if hi <= lo {
		return nil
	}
	u0 := mv.mask.recordOf(int64(lo))
	u1 := mv.mask.recordOf(int64(hi-1)) + 1
	delivered := 0
	var phys Stats
	err := mv.src.ScanRange(u0, u1, &phys, func(u int, vals []float64, label int) error {
		start := mv.mask.cum[u]
		if start < int64(lo) {
			start = int64(lo)
		}
		end := mv.mask.cum[u] + int64(mv.mask.counts[u])
		if end > int64(hi) {
			end = int64(hi)
		}
		for v := start; v < end; v++ {
			// The record counts as read even when fn aborts on it,
			// matching the underlying sources' error accounting.
			delivered++
			if err := fn(int(v), vals, label); err != nil {
				return err
			}
		}
		return nil
	})
	// Logical I/O at virtual granularity: what the consumer was fed.
	stats.RecordsRead += int64(delivered)
	bytes := int64(delivered) * mv.rb
	stats.BytesRead += bytes
	stats.PagesRead += pagesFor(bytes)
	// Physical and reliability counters pass through unchanged.
	stats.Retries += phys.Retries
	stats.CorruptPages += phys.CorruptPages
	stats.CacheHits += phys.CacheHits
	stats.CacheMisses += phys.CacheMisses
	stats.Evictions += phys.Evictions
	stats.PrefetchedPages += phys.PrefetchedPages
	return err
}

// AddStats implements RangeSource.
func (mv *Masked) AddStats(s Stats) { mv.stats.Add(s) }

// Stats implements Source.
func (mv *Masked) Stats() Stats { return mv.stats }

// ResetStats implements Source. The underlying store's counters are left
// alone: several views may share it.
func (mv *Masked) ResetStats() { mv.stats = Stats{} }

// SetCacheBytes implements Cacheable by forwarding to the underlying store
// when it is cacheable (a no-op otherwise). Ensembles sharing one store
// should size its cache once, directly, rather than through every view.
func (mv *Masked) SetCacheBytes(n int64) {
	if c, ok := mv.src.(Cacheable); ok {
		c.SetCacheBytes(n)
	}
}
