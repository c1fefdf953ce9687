package core

// The forest quantize path. A quantized forest trains every tree on its own
// bootstrap view of one store, and each tree quantizes its view with its
// own cut points. Done per tree by discretize and encode, that costs a sort
// of every numeric attribute's sample plus two store scans per tree. An
// Index instead scans the store once and sorts each numeric attribute once
// in a total order (value, then record id), as SLIQ and SPRINT presort
// their attribute lists. A tree then derives from its bootstrap mask
// exactly the Quantizer and code records discretize and encode would have
// produced over the masked view: the sample is expanded from per-rank
// multiplicities instead of sorted, every record's code is a lookup in a
// rank→code table merged against the cuts, and the rows are written in one
// sequential pass.
//
// The one divergence is a column mixing -0 and +0: the index orders the two
// zeros by record id, where sort.Float64s left their order unspecified, so
// a cut or the top-bin representative may carry the other zero's sign.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"cmpdt/internal/dataset"
	"cmpdt/internal/quantile"
	"cmpdt/internal/storage"
)

// Index is a value-sorted index of a raw store, built by NewIndex and
// shared read-only by any number of concurrent BuildIndexed calls. It
// keeps, per record, its label and whether it passed validation; per
// numeric attribute, every valid record's rank and the valid values in
// rank order (12 bytes per value); per categorical attribute, every
// record's category (2 bytes per value).
type Index struct {
	schema *dataset.Schema
	n      int
	labels []uint16
	// invalid lists the records failing Schema.RecordDefect, ascending,
	// with defects[i] describing invalid[i].
	invalid []int32
	defects []string
	// rank[a][u] is valid record u's position in sorted[a], the valid
	// values of numeric attribute a in (value, record id) order; -1 for
	// invalid records. Both are nil for categorical attributes.
	rank   [][]int32
	sorted [][]float64
	// cat[a][u] is record u's category for categorical attribute a (0 for
	// invalid records); nil for numeric attributes.
	cat   [][]uint16
	stats storage.Stats
}

// NewIndex builds the index with one scan of src, metered into the index's
// own Stats (src's counters are untouched, so concurrent readers of src are
// unaffected) and cancellable through ctx. Invalid records do not fail the
// build: they are recorded, and each BuildIndexed call applies its own
// validation policy to the ones its mask draws. The scan reads parallel
// contiguous record ranges concurrently, and the numeric attributes are
// then sorted concurrently, at most parallel at a time (<= 0 means one).
// The index does not depend on parallel.
func NewIndex(ctx context.Context, src storage.RangeSource, parallel int) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	schema := src.Schema()
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if schema.NumClasses() > math.MaxUint16 {
		return nil, fmt.Errorf("core: %d classes exceed the index's label encoding", schema.NumClasses())
	}
	n := src.NumRecords()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("core: %d records exceed the index's record ids", n)
	}
	if parallel < 1 {
		parallel = 1
	}
	na := schema.NumAttrs()
	ix := &Index{
		schema: schema,
		n:      n,
		labels: make([]uint16, n),
		rank:   make([][]int32, na),
		sorted: make([][]float64, na),
		cat:    make([][]uint16, na),
	}
	// A valid record's entry lands in slot u of each numeric column, so
	// ranges write disjoint slots; the invalid records' slots are squeezed
	// out before the sort.
	numeric := schema.NumericAttrs()
	cols := make([][]indexEntry, na)
	for _, a := range numeric {
		cols[a] = make([]indexEntry, n)
	}
	for a := range schema.Attrs {
		if schema.Attrs[a].Kind == dataset.Categorical {
			ix.cat[a] = make([]uint16, n)
		}
	}
	// Each range lists its own invalid records; ranges are contiguous and
	// in worker order, so concatenating the lists keeps invalid ascending.
	type rangeInvalid struct {
		ids     []int32
		defects []string
	}
	invalid := make([]rangeInvalid, parallel)
	err := storage.ParallelScan(ctx, meteredRanges{src, &ix.stats}, parallel, func(w, u int, vals []float64, label int) error {
		if d := schema.RecordDefect(vals, label); d != "" {
			inv := &invalid[w]
			inv.ids = append(inv.ids, int32(u))
			inv.defects = append(inv.defects, d)
			return nil
		}
		ix.labels[u] = uint16(label)
		for a, v := range vals {
			if col := cols[a]; col != nil {
				col[u] = indexEntry{v, int32(u)}
			} else {
				ix.cat[a][u] = uint16(v)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, inv := range invalid {
		ix.invalid = append(ix.invalid, inv.ids...)
		ix.defects = append(ix.defects, inv.defects...)
	}

	sem := make(chan struct{}, parallel)
	var wg sync.WaitGroup
	for _, a := range numeric {
		if err := ctx.Err(); err != nil {
			wg.Wait()
			return nil, err
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(a int) {
			defer wg.Done()
			defer func() { <-sem }()
			col := sortEntries(dropSlots(cols[a], ix.invalid))
			rank := make([]int32, n)
			for u := range rank {
				rank[u] = -1
			}
			sorted := make([]float64, len(col))
			for r, e := range col {
				sorted[r] = e.v
				rank[e.u] = int32(r)
			}
			ix.rank[a], ix.sorted[a] = rank, sorted
			cols[a] = nil
		}(a)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return ix, nil
}

// meteredRanges is a RangeSource whose completed parallel passes are
// metered into stats instead of the source's own counters.
type meteredRanges struct {
	storage.RangeSource
	stats *storage.Stats
}

func (m meteredRanges) AddStats(s storage.Stats) { m.stats.Add(s) }

// dropSlots removes from col, in place, the entries at the ascending
// positions skip, keeping the others in order.
func dropSlots(col []indexEntry, skip []int32) []indexEntry {
	if len(skip) == 0 {
		return col
	}
	w := int(skip[0])
	for i, s := range skip {
		end := len(col)
		if i+1 < len(skip) {
			end = int(skip[i+1])
		}
		w += copy(col[w:], col[s+1:end])
	}
	return col[:w]
}

// indexEntry is one valid value of a numeric attribute and its record.
// Sorting an attribute's entries in (value, record id) order yields both
// its ranks and its sorted values. Record ids are unique, so the order is
// total and does not depend on the sort implementation.
type indexEntry struct {
	v float64
	u int32
}

// sortKey maps a finite value to a uint64 whose unsigned order is the
// values' numeric order, with -0 and +0 mapped alike so that they tie.
func sortKey(v float64) uint64 {
	if v == 0 {
		v = 0 // +0
	}
	bits := math.Float64bits(v)
	if bits>>63 != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// sortEntries sorts col, which holds entries in ascending record order, by
// (value, record id): a least-significant-digit radix sort over sortKey,
// one byte per pass. Each pass is stable, so equal values keep their
// record order. Passes on a byte every key shares are skipped. The sorted
// entries are returned in col or in a buffer of the same length.
func sortEntries(col []indexEntry) []indexEntry {
	if len(col) < 2 {
		return col
	}
	var counts [8][256]int
	for _, e := range col {
		k := sortKey(e.v)
		for d := range counts {
			counts[d][byte(k>>(8*d))]++
		}
	}
	var buf []indexEntry
	for d := range counts {
		c := &counts[d]
		if c[byte(sortKey(col[0].v)>>(8*d))] == len(col) {
			continue
		}
		if buf == nil {
			buf = make([]indexEntry, len(col))
		}
		off := 0
		for i, k := range c {
			c[i] = off
			off += k
		}
		shift := 8 * d
		for _, e := range col {
			b := byte(sortKey(e.v) >> shift)
			buf[c[b]] = e
			c[b]++
		}
		col, buf = buf, col
	}
	return col
}

// Schema returns the indexed store's schema.
func (ix *Index) Schema() *dataset.Schema { return ix.schema }

// NumRecords returns the number of indexed records.
func (ix *Index) NumRecords() int { return ix.n }

// Stats returns the I/O of the index's one scan.
func (ix *Index) Stats() storage.Stats { return ix.stats }

// memoryBytes returns the index's retained size: labels, ranks, sorted
// values, categories and the invalid-record list (not its defect strings).
func (ix *Index) memoryBytes() int64 {
	total := int64(len(ix.labels))*2 + int64(len(ix.invalid))*4
	for a := range ix.rank {
		total += int64(len(ix.rank[a]))*4 + int64(len(ix.sorted[a]))*8 + int64(len(ix.cat[a]))*2
	}
	return total
}

// BuildIndexed trains one quantized tree over the bootstrap view mask of
// the store ix indexes. The tree, its Quantizer, its Stats.SkippedRecords
// and a ValidateStrict error are those BuildContext returns over
// storage.NewMasked(src, mask) with cfg.Quantize set (see the file comment
// for the one exception). The view is quantized by walking the index
// instead of sorting and scanning, so no raw pass is made: Stats.Scans and
// Result.IO count only the scans of the tree's code store, and the index's
// one scan is the caller's to account.
func BuildIndexed(ctx context.Context, ix *Index, mask *storage.Mask, cfg Config) (res *Result, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("core: build panicked: %v", r)
		}
	}()
	cfg, err = cfg.normalize()
	if err != nil {
		return nil, err
	}
	if mask.NumSource() != ix.n {
		return nil, fmt.Errorf("core: mask covers %d records, index has %d", mask.NumSource(), ix.n)
	}
	if mask.Len() == 0 {
		return nil, errors.New("core: empty training set")
	}
	return buildQuantized(ctx, ix.schema, cfg, func(b *qbuilder) (func(), error) {
		return nil, b.quantizeIndexed(ix, mask)
	})
}

// quantizeIndexed is quantizeSource over an index: it derives the
// Quantizer and the code store that discretize and encode would produce
// over the masked view, with no sort and no scan.
func (b *qbuilder) quantizeIndexed(ix *Index, mask *storage.Mask) error {
	start := time.Now()
	defer func() { b.stats.QuantizeNs = time.Since(start).Nanoseconds() }()

	// mult[u] is record u's multiplicity in the view, zeroed for invalid
	// records once they are counted or, under ValidateStrict, reported at
	// the first virtual record they cover.
	mult := make([]uint32, ix.n)
	for u := range mult {
		mult[u] = uint32(mask.Count(u))
	}
	var skipped int64
	for i, u := range ix.invalid {
		c := mult[u]
		if c == 0 {
			continue
		}
		if b.cfg.Validation == ValidateStrict {
			return errInvalidRecord(mask.Offset(int(u)), ix.defects[i])
		}
		skipped += int64(c)
		mult[u] = 0
	}
	valid := int64(mask.Len()) - skipped

	var attrs []storage.QuantAttr
	var err error
	if b.cfg.DiscretizeSample < 0 {
		attrs, err = b.sketchIndexed(ix, mult)
	} else {
		attrs, err = b.sampleIndexed(ix, mult, mask.Len())
	}
	if err != nil {
		return err
	}
	q, err := storage.NewQuantizer(b.schema, attrs)
	if err != nil {
		return err
	}
	b.q = q

	// rank→code tables: one merge of each attribute's sorted values
	// against its cuts (code = the number of cuts below the value, as
	// Quantizer.Encode's binary search computes). The numeric attributes
	// outside cutAttrs have one bin and need none: their codes stay 0.
	codeOf := make([][]uint16, b.na)
	for _, a := range b.cutAttrs {
		cuts := attrs[a].Cuts
		sorted := ix.sorted[a]
		tab := make([]uint16, len(sorted))
		c := 0
		for r, v := range sorted {
			for c < len(cuts) && cuts[c] < v {
				c++
			}
			tab[r] = uint16(c)
		}
		codeOf[a] = tab
	}

	var cats []int
	for a := range ix.cat {
		if ix.cat[a] != nil {
			cats = append(cats, a)
		}
	}
	qm := storage.NewQuantMemCap(q, int(valid))
	row := make([]uint16, b.na)
	for u, m := range mult {
		if u&ctxCheckMask == 0 {
			if err := b.ctx.Err(); err != nil {
				return err
			}
		}
		if m == 0 {
			continue
		}
		for _, a := range b.cutAttrs {
			row[a] = codeOf[a][ix.rank[a][u]]
		}
		for _, a := range cats {
			row[a] = ix.cat[a][u]
		}
		label := int(ix.labels[u])
		for ; m > 0; m-- {
			if err := qm.AppendCodes(row, label); err != nil {
				return err
			}
		}
	}
	b.stats.SkippedRecords = skipped
	b.qsrc = qm
	return nil
}

// sampleIndexed is discretize's sampling branch over an index: the sample
// is the first DiscretizeSample valid virtual records, as a prefix of the
// view's record order, so its per-record multiplicities are mult up to the
// record where the sample fills and part of that record's. Counted by rank
// and expanded, they give each attribute's sample already sorted.
func (b *qbuilder) sampleIndexed(ix *Index, mult []uint32, total int) ([]storage.QuantAttr, error) {
	sampleCap := b.cfg.DiscretizeSample
	if sampleCap == 0 || sampleCap > total {
		sampleCap = total
	}
	// Records [0, stop) enter the sample whole; record stop contributes
	// its first part copies.
	stop, part, left := len(mult), uint32(0), sampleCap
	for u, m := range mult {
		if int(m) >= left {
			stop, part, left = u, uint32(left), 0
			break
		}
		left -= int(m)
	}
	// Two slack slots let the expansion below write a rank's first two
	// copies without branching on its count.
	size := sampleCap - left
	buf := make([]float64, size+2)
	sample := buf[:size]
	attrMax := make([]float64, b.na)
	disc := make([]*quantile.Discretizer, b.na)
	var counts []uint32
	for _, a := range b.cutAttrs {
		if err := b.ctx.Err(); err != nil {
			return nil, err
		}
		rank, sorted := ix.rank[a], ix.sorted[a]
		if counts == nil {
			counts = make([]uint32, len(sorted))
		}
		for u, m := range mult[:stop] {
			if m != 0 {
				counts[rank[u]] += m
			}
		}
		if part != 0 {
			counts[rank[stop]] += part
		}
		w := 0
		for r, c := range counts {
			v := sorted[r]
			buf[w], buf[w+1] = v, v
			for k := 2; k < int(c); k++ {
				buf[w+k] = v
			}
			w += int(c)
		}
		clear(counts)
		attrMax[a] = negInf
		if len(sample) > 0 {
			attrMax[a] = sample[len(sample)-1]
		}
		d, err := quantile.EqualDepthSorted(sample, b.cfg.QuantizeBins)
		if err != nil {
			return nil, fmt.Errorf("core: discretizing %s: %w", b.schema.Attrs[a].Name, err)
		}
		disc[a] = d
	}
	return b.quantTables(disc, attrMax), nil
}

// sketchIndexed is discretize's Greenwald-Khanna branch over an index:
// every valid virtual record's value, fed in the view's record order.
func (b *qbuilder) sketchIndexed(ix *Index, mult []uint32) ([]storage.QuantAttr, error) {
	attrMax := make([]float64, b.na)
	disc := make([]*quantile.Discretizer, b.na)
	for _, a := range b.cutAttrs {
		if err := b.ctx.Err(); err != nil {
			return nil, err
		}
		gk, err := quantile.NewGK(gkEpsilon(b.cfg.QuantizeBins))
		if err != nil {
			return nil, err
		}
		rank, sorted := ix.rank[a], ix.sorted[a]
		attrMax[a] = negInf
		for u, m := range mult {
			if m == 0 {
				continue
			}
			v := sorted[rank[u]]
			if v > attrMax[a] {
				attrMax[a] = v
			}
			for ; m > 0; m-- {
				gk.Add(v)
			}
		}
		d, err := gk.Discretizer(b.cfg.QuantizeBins)
		if err != nil {
			return nil, fmt.Errorf("core: discretizing %s: %w", b.schema.Attrs[a].Name, err)
		}
		disc[a] = d
	}
	return b.quantTables(disc, attrMax), nil
}
