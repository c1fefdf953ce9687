package storage

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"cmpdt/internal/dataset"
	"cmpdt/internal/quantile"
)

// magicQ1 identifies a CMPDQ1 quantized record store: the CMPDT2 page layout
// (8 KiB pages, CRC32C seals, records spanning pages) over bin-coded records
// instead of float64 ones. The magic is the same length as CMPDT1/CMPDT2 so
// all offset arithmetic is shared.
const magicQ1 = "CMPDQ1\n"

// QuantAttr is one attribute's code↔breakpoint table. For a numeric
// attribute, Cuts holds the ascending equal-depth cut points: bin code c
// covers raw values v with Cuts[c-1] < v <= Cuts[c], so c <= k exactly when
// v <= Cuts[k] — emitted split thresholds stay in raw feature units. Max is
// the representative of the top bin (any value above the last cut, normally
// the observed attribute maximum). For a categorical attribute Cuts is nil
// and the code is the category index itself.
type QuantAttr struct {
	Cuts []float64 `json:"cuts,omitempty"`
	Max  float64   `json:"max"`
}

// Quantizer maps raw records to compact bin codes and back. Each attribute's
// code occupies one byte when it has at most 256 bins, two bytes otherwise;
// a record is the concatenated codes plus a 2-byte class label.
type Quantizer struct {
	schema  *dataset.Schema
	disc    []*quantile.Discretizer // per attr over its cuts; nil for categorical
	max     []float64               // per attr: QuantAttr.Max
	bins    []int
	width   []int
	recSize int64
}

// NewQuantizer validates the per-attribute tables against the schema and
// builds a quantizer. Numeric cut points must be strictly ascending and
// finite, with Max above the last cut (so the top bin's representative
// re-encodes to the top bin); categorical attributes must have nil cuts. No
// attribute may exceed 65536 bins.
func NewQuantizer(schema *dataset.Schema, attrs []QuantAttr) (*Quantizer, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if schema.NumClasses() > math.MaxUint16 {
		return nil, fmt.Errorf("storage: %d classes exceed label encoding", schema.NumClasses())
	}
	if len(attrs) != schema.NumAttrs() {
		return nil, fmt.Errorf("storage: %d quant tables for %d attributes", len(attrs), schema.NumAttrs())
	}
	q := &Quantizer{
		schema: schema,
		disc:   make([]*quantile.Discretizer, len(attrs)),
		max:    make([]float64, len(attrs)),
		bins:   make([]int, len(attrs)),
		width:  make([]int, len(attrs)),
	}
	var recSize int64 = 2 // label
	for a := range attrs {
		attr := &schema.Attrs[a]
		cuts := attrs[a].Cuts
		if attr.Kind == dataset.Categorical {
			if len(cuts) != 0 {
				return nil, fmt.Errorf("storage: categorical attribute %q has cut points", attr.Name)
			}
			q.bins[a] = attr.Cardinality()
		} else {
			for i, c := range cuts {
				if math.IsNaN(c) || math.IsInf(c, 0) {
					return nil, fmt.Errorf("storage: attribute %q cut %d is not finite", attr.Name, i)
				}
				if i > 0 && c <= cuts[i-1] {
					return nil, fmt.Errorf("storage: attribute %q cuts not strictly ascending at %d", attr.Name, i)
				}
			}
			if len(cuts) > 0 {
				if m := attrs[a].Max; math.IsNaN(m) || math.IsInf(m, 0) || m <= cuts[len(cuts)-1] {
					return nil, fmt.Errorf("storage: attribute %q max %v not above last cut %v",
						attr.Name, attrs[a].Max, cuts[len(cuts)-1])
				}
			}
			q.bins[a] = len(cuts) + 1
		}
		if q.bins[a] < 1 || q.bins[a] > math.MaxUint16+1 {
			return nil, fmt.Errorf("storage: attribute %q has %d bins, want 1..65536", attr.Name, q.bins[a])
		}
		q.max[a] = attrs[a].Max
		if attr.Kind == dataset.Numeric {
			d, err := quantile.FromCuts(cuts)
			if err != nil {
				return nil, err
			}
			q.disc[a] = d
		}
		q.width[a] = 1
		if q.bins[a] > 256 {
			q.width[a] = 2
		}
		recSize += int64(q.width[a])
	}
	q.recSize = recSize
	return q, nil
}

// Schema returns the schema the tables were built for.
func (q *Quantizer) Schema() *dataset.Schema { return q.schema }

// NumAttrs returns the number of attributes.
func (q *Quantizer) NumAttrs() int { return len(q.bins) }

// Bins returns the number of bin codes attribute a can take.
func (q *Quantizer) Bins(a int) int { return q.bins[a] }

// RecordBytes returns the encoded size of one record: the per-attribute code
// widths plus the 2-byte label.
func (q *Quantizer) RecordBytes() int64 { return q.recSize }

// Tables returns a deep copy of the per-attribute tables.
func (q *Quantizer) Tables() []QuantAttr {
	out := make([]QuantAttr, len(q.disc))
	for a, d := range q.disc {
		out[a].Max = q.max[a]
		if d != nil {
			out[a].Cuts = d.Cuts()
		}
	}
	return out
}

// Encode maps one raw record to bin codes. codes must have NumAttrs entries.
// Values are assumed valid (categorical integral and in range, numeric not
// NaN) — callers validate upstream, this is the per-record hot path. A
// numeric code is the number of cuts below the value, the attribute's
// Discretizer.Interval.
func (q *Quantizer) Encode(vals []float64, codes []uint16) {
	for a, d := range q.disc {
		if d == nil {
			codes[a] = uint16(vals[a])
			continue
		}
		codes[a] = uint16(d.Interval(vals[a]))
	}
}

// Decode maps bin codes back to representative raw values: cut c for
// interior numeric bins (which re-encodes to c exactly, since values equal
// to a cut fall below it), Max for the top bin, the category index for
// categorical attributes.
func (q *Quantizer) Decode(codes []uint16, vals []float64) {
	for a, d := range q.disc {
		if d == nil {
			vals[a] = float64(codes[a])
			continue
		}
		if c := int(codes[a]); c < d.Bins()-1 {
			vals[a] = d.Boundary(c)
		} else {
			vals[a] = q.max[a]
		}
	}
}

// Threshold returns the raw-unit split threshold of numeric attribute a's
// bin boundary c: raw value v satisfies v <= Threshold(a, c) exactly when
// its bin code satisfies code <= c. c must be in [0, Bins(a)-1).
func (q *Quantizer) Threshold(a, c int) float64 { return q.disc[a].Boundary(c) }

// encodeRecord packs codes+label into buf using the per-attribute widths.
func (q *Quantizer) encodeRecord(codes []uint16, label int, buf []byte) {
	off := 0
	for a, w := range q.width {
		if w == 1 {
			buf[off] = byte(codes[a])
			off++
		} else {
			binary.LittleEndian.PutUint16(buf[off:], codes[a])
			off += 2
		}
	}
	binary.LittleEndian.PutUint16(buf[off:], uint16(label))
}

// decodeRecord unpacks one encoded record into codes, returning the label.
func (q *Quantizer) decodeRecord(rec []byte, codes []uint16) int {
	off := 0
	for a, w := range q.width {
		if w == 1 {
			codes[a] = uint16(rec[off])
			off++
		} else {
			codes[a] = binary.LittleEndian.Uint16(rec[off:])
			off += 2
		}
	}
	return int(binary.LittleEndian.Uint16(rec[off:]))
}

// checkCodes validates one code record against the bin counts.
func (q *Quantizer) checkCodes(codes []uint16, label int) error {
	if len(codes) != len(q.bins) {
		return fmt.Errorf("storage: record has %d codes, quantizer has %d attributes", len(codes), len(q.bins))
	}
	if label < 0 || label >= q.schema.NumClasses() {
		return fmt.Errorf("storage: label %d out of range", label)
	}
	for a, c := range codes {
		if int(c) >= q.bins[a] {
			return fmt.Errorf("storage: attribute %q code %d out of range [0,%d)",
				q.schema.Attrs[a].Name, c, q.bins[a])
		}
	}
	return nil
}

// CodeSource is a scannable bin-coded training set. Like RangeSource it
// can be read by disjoint record ranges, for partitioned concurrent scans.
type CodeSource interface {
	Schema() *dataset.Schema
	NumRecords() int
	// Quantizer returns the code↔breakpoint tables the records were encoded
	// with.
	Quantizer() *Quantizer
	// ScanCodes calls fn for every record in storage order. The codes slice
	// is reused between calls; fn must copy it to retain it.
	ScanCodes(fn func(rid int, codes []uint16, label int) error) error
	// ScanCodesRange is ScanCodes over records lo <= rid < hi, with
	// RangeSource.ScanRange's accounting contract.
	ScanCodesRange(lo, hi int, stats *Stats, fn func(rid int, codes []uint16, label int) error) error
	// AddStats merges externally accumulated counters, as
	// RangeSource.AddStats.
	AddStats(s Stats)
	Stats() Stats
	ResetStats()
}

// QuantWriter streams bin-coded records into a new CMPDQ1 store. Lifecycle
// matches Writer: CreateQuantFile, Append/AppendCodes repeatedly, then
// exactly one of Close or Abort.
type QuantWriter struct {
	w     *Writer
	q     *Quantizer
	codes []uint16

	closed    bool
	closeFile *QuantFile
	closeErr  error
}

// CreateQuantFile starts writing a quantized record store at path,
// truncating any existing file. The quantizer's tables are persisted in the
// header, so the finished store decodes without external state.
func CreateQuantFile(path string, q *Quantizer) (*QuantWriter, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		path:    path,
		f:       f,
		bw:      bufio.NewWriterSize(f, 4*PageSize),
		schema:  q.schema,
		buf:     make([]byte, q.recSize),
		version: FormatV2,
		page:    make([]byte, 0, pagePayload),
		quant:   q.Tables(),
	}
	if err := w.writeHeader(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &QuantWriter{w: w, q: q, codes: make([]uint16, q.NumAttrs())}, nil
}

// AppendCodes writes one already-encoded record.
func (qw *QuantWriter) AppendCodes(codes []uint16, label int) error {
	if qw.closed {
		return ErrWriterClosed
	}
	if err := qw.q.checkCodes(codes, label); err != nil {
		return err
	}
	qw.q.encodeRecord(codes, label, qw.w.buf)
	if err := qw.w.appendPaged(qw.w.buf); err != nil {
		return err
	}
	qw.w.n++
	return nil
}

// Append quantizes one raw record and writes it. Categorical values must be
// integral and in range; numeric values must not be NaN.
func (qw *QuantWriter) Append(vals []float64, label int) error {
	if qw.closed {
		return ErrWriterClosed
	}
	if len(vals) != qw.q.NumAttrs() {
		return fmt.Errorf("storage: record has %d values, schema has %d attributes",
			len(vals), qw.q.NumAttrs())
	}
	for a, v := range vals {
		attr := &qw.q.schema.Attrs[a]
		if math.IsNaN(v) {
			return fmt.Errorf("storage: attribute %q is NaN", attr.Name)
		}
		if attr.Kind == dataset.Categorical && (v != math.Trunc(v) || v < 0 || int(v) >= attr.Cardinality()) {
			return fmt.Errorf("storage: attribute %q value %v not a valid category index", attr.Name, v)
		}
	}
	qw.q.Encode(vals, qw.codes)
	return qw.AppendCodes(qw.codes, label)
}

// Close finalizes the store and opens it for reading; idempotent, and any
// failure removes the partial file.
func (qw *QuantWriter) Close() (*QuantFile, error) {
	if qw.closed {
		return qw.closeFile, qw.closeErr
	}
	qw.closed = true
	qw.w.closed = true
	if err := qw.w.finishSeal(); err != nil {
		qw.closeErr = err
		return nil, err
	}
	qf, err := OpenQuantFile(qw.w.path)
	if err != nil {
		os.Remove(qw.w.path)
		qw.closeErr = err
		return nil, err
	}
	qw.closeFile = qf
	return qf, nil
}

// Abort discards an in-progress write; a no-op after Close.
func (qw *QuantWriter) Abort() {
	if qw.closed {
		return
	}
	qw.closed = true
	qw.w.Abort()
}

// QuantFile is a read-only quantized record store. It wraps the regular
// page-file machinery — the cache, retry policy, fault injector, readahead,
// CRC verification, and Stats accounting are byte-for-byte the File paths,
// over records a fraction of the float encoding's size — so a logical scan
// touches proportionally fewer pages.
type QuantFile struct {
	f *File
	q *Quantizer
}

// OpenQuantFile opens an existing CMPDQ1 store, validating the header, the
// quantization tables, and the physical size against the record count.
func OpenQuantFile(path string) (*QuantFile, error) {
	h, err := readHeader(path, func(magic string) error {
		if magic != magicQ1 {
			return fmt.Errorf("storage: %s is not a CMPDQ quantized record file", path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if h.Quant == nil {
		return nil, fmt.Errorf("storage: header of %s lacks quantization tables", path)
	}
	q, err := NewQuantizer(h.Schema, h.Quant)
	if err != nil {
		return nil, fmt.Errorf("storage: stored quantizer invalid: %w", err)
	}
	inner, err := h.file(path, FormatV2, q.RecordBytes())
	if err != nil {
		return nil, err
	}
	return &QuantFile{f: inner, q: q}, nil
}

// Schema implements CodeSource.
func (qf *QuantFile) Schema() *dataset.Schema { return qf.f.schema }

// NumRecords implements CodeSource.
func (qf *QuantFile) NumRecords() int { return qf.f.n }

// Path returns the underlying file path.
func (qf *QuantFile) Path() string { return qf.f.path }

// Quantizer implements CodeSource.
func (qf *QuantFile) Quantizer() *Quantizer { return qf.q }

// Stats implements CodeSource.
func (qf *QuantFile) Stats() Stats { return qf.f.stats }

// ResetStats implements CodeSource.
func (qf *QuantFile) ResetStats() { qf.f.stats = Stats{} }

// AddStats implements CodeSource.
func (qf *QuantFile) AddStats(s Stats) { qf.f.stats.Add(s) }

// SetRetryPolicy mirrors File.SetRetryPolicy.
func (qf *QuantFile) SetRetryPolicy(p RetryPolicy) { qf.f.SetRetryPolicy(p) }

// SetFaultInjector mirrors File.SetFaultInjector.
func (qf *QuantFile) SetFaultInjector(fi *FaultInjector) { qf.f.SetFaultInjector(fi) }

// SetCacheBytes mirrors File.SetCacheBytes.
func (qf *QuantFile) SetCacheBytes(n int64) { qf.f.SetCacheBytes(n) }

// SetReadahead mirrors File.SetReadahead.
func (qf *QuantFile) SetReadahead(pages int) { qf.f.SetReadahead(pages) }

// Cache returns the attached page cache, or nil.
func (qf *QuantFile) Cache() *PageCache { return qf.f.cache }

// scanCodes decodes the bin-code record encoding over the shared raw pass.
func (qf *QuantFile) scanCodes(lo, hi int, stats *Stats, fn func(rid int, codes []uint16, label int) error) error {
	codes := make([]uint16, qf.q.NumAttrs())
	return qf.f.scanRaw(lo, hi, stats, func(rid int, rec []byte) error {
		label := qf.q.decodeRecord(rec, codes)
		return fn(rid, codes, label)
	})
}

// ScanCodes implements CodeSource, with Scan's retry/checksum/accounting
// behavior.
func (qf *QuantFile) ScanCodes(fn func(rid int, codes []uint16, label int) error) error {
	if err := qf.scanCodes(0, qf.f.n, &qf.f.stats, fn); err != nil {
		return err
	}
	qf.f.stats.Scans++
	return nil
}

// ScanCodesRange implements CodeSource, with ScanRange's contract.
func (qf *QuantFile) ScanCodesRange(lo, hi int, stats *Stats, fn func(rid int, codes []uint16, label int) error) error {
	if stats == nil {
		stats = &qf.f.stats
	}
	return qf.scanCodes(lo, hi, stats, fn)
}

// Scan implements Source, decoding each record to its bin representatives
// (interior cuts / attribute maxima) in raw feature units. Re-encoding a
// scanned record reproduces its codes exactly.
func (qf *QuantFile) Scan(fn func(rid int, vals []float64, label int) error) error {
	vals := make([]float64, qf.q.NumAttrs())
	codes := make([]uint16, qf.q.NumAttrs())
	err := qf.f.scanRaw(0, qf.f.n, &qf.f.stats, func(rid int, rec []byte) error {
		label := qf.q.decodeRecord(rec, codes)
		qf.q.Decode(codes, vals)
		return fn(rid, vals, label)
	})
	if err != nil {
		return err
	}
	qf.f.stats.Scans++
	return nil
}

// QuantMem is an in-memory bin-coded record store metering I/O as if it were
// a CMPDQ1 file, the quantized counterpart of Mem.
//
// A row may stand for several identical records: a bootstrap view keeps
// each record it drew once, with the number of draws as the row's
// multiplicity (AppendCodesN). Scans then visit each row once, under its
// row index as rid, and a builder reads the multiplicities from Weights;
// the I/O metering counts every record a row stands for, as a scan of the
// expanded store would.
type QuantMem struct {
	q      *Quantizer
	codes  []uint16 // row-major, rows * NumAttrs
	labels []int32
	// weights[i] is row i's multiplicity; nil while every row is one
	// record.
	weights []uint32
	records int64 // the records the rows stand for
	stats   Stats
}

// NewQuantMem returns an empty in-memory code store.
func NewQuantMem(q *Quantizer) *QuantMem { return &QuantMem{q: q} }

// NewQuantMemCap returns an empty in-memory code store with room for n
// rows, so the first n AppendCodes or AppendCodesN calls never reallocate.
func NewQuantMemCap(q *Quantizer, n int) *QuantMem {
	return &QuantMem{q: q, codes: make([]uint16, 0, n*q.NumAttrs()), labels: make([]int32, 0, n)}
}

// AppendCodes adds one encoded record.
func (m *QuantMem) AppendCodes(codes []uint16, label int) error {
	return m.AppendCodesN(codes, label, 1)
}

// AppendCodesN adds one row standing for mult identical encoded records.
// The first multiplicity above 1 makes the store weighted.
func (m *QuantMem) AppendCodesN(codes []uint16, label int, mult uint32) error {
	if mult == 0 {
		return fmt.Errorf("storage: record multiplicity 0")
	}
	if err := m.q.checkCodes(codes, label); err != nil {
		return err
	}
	if mult != 1 && m.weights == nil {
		m.weights = make([]uint32, len(m.labels), cap(m.labels))
		for i := range m.weights {
			m.weights[i] = 1
		}
	}
	m.codes = append(m.codes, codes...)
	m.labels = append(m.labels, int32(label))
	if m.weights != nil {
		m.weights = append(m.weights, mult)
	}
	m.records += int64(mult)
	return nil
}

// Append quantizes one raw record and adds it (validation as QuantWriter).
func (m *QuantMem) Append(vals []float64, label int) error {
	if len(vals) != m.q.NumAttrs() {
		return fmt.Errorf("storage: record has %d values, schema has %d attributes",
			len(vals), m.q.NumAttrs())
	}
	codes := make([]uint16, m.q.NumAttrs())
	m.q.Encode(vals, codes)
	return m.AppendCodes(codes, label)
}

// Schema implements CodeSource.
func (m *QuantMem) Schema() *dataset.Schema { return m.q.schema }

// NumRecords implements CodeSource: the number of rows, which is the number
// of records unless the store is weighted (see WeightedRecords).
func (m *QuantMem) NumRecords() int { return len(m.labels) }

// Weights returns each row's multiplicity, or nil when every row is one
// record. The slice aliases the store and must not be modified.
func (m *QuantMem) Weights() []uint32 { return m.weights }

// WeightedRecords returns the number of records the rows stand for: the sum
// of Weights, or NumRecords for an unweighted store.
func (m *QuantMem) WeightedRecords() int64 { return m.records }

// Quantizer implements CodeSource.
func (m *QuantMem) Quantizer() *Quantizer { return m.q }

// row returns record i's codes, aliasing the store (read-only).
func (m *QuantMem) row(i int) []uint16 {
	k := m.q.NumAttrs()
	return m.codes[i*k : i*k+k : i*k+k]
}

// meter charges a pass over rows [lo, hi) to stats: every record the rows
// stand for, at the encoded record size.
func (m *QuantMem) meter(stats *Stats, lo, hi int) {
	recs := int64(hi - lo)
	if m.weights != nil {
		recs = 0
		for _, w := range m.weights[lo:hi] {
			recs += int64(w)
		}
	}
	stats.RecordsRead += recs
	bytes := recs * m.q.RecordBytes()
	stats.BytesRead += bytes
	stats.PagesRead += pagesFor(bytes)
}

// ScanCodes implements CodeSource, visiting each row once.
func (m *QuantMem) ScanCodes(fn func(rid int, codes []uint16, label int) error) error {
	if err := m.ScanCodesRange(0, len(m.labels), &m.stats, fn); err != nil {
		return err
	}
	m.stats.Scans++
	return nil
}

// Scan implements Source, decoding each record to its bin representatives
// (interior cuts / attribute maxima) in raw feature units, like
// QuantFile.Scan. Re-encoding a scanned record reproduces its codes. Like
// ScanCodes it visits each row of a weighted store once.
func (m *QuantMem) Scan(fn func(rid int, vals []float64, label int) error) error {
	vals := make([]float64, m.q.NumAttrs())
	return m.ScanCodes(func(rid int, codes []uint16, label int) error {
		m.q.Decode(codes, vals)
		return fn(rid, vals, label)
	})
}

// ScanCodesRange implements CodeSource over rows [lo, hi).
func (m *QuantMem) ScanCodesRange(lo, hi int, stats *Stats, fn func(rid int, codes []uint16, label int) error) error {
	n := len(m.labels)
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if stats == nil {
		stats = &m.stats
	}
	for i := lo; i < hi; i++ {
		if err := fn(i, m.row(i), int(m.labels[i])); err != nil {
			m.meter(stats, lo, i+1)
			return err
		}
	}
	if hi > lo {
		m.meter(stats, lo, hi)
	}
	return nil
}

// AddStats implements CodeSource.
func (m *QuantMem) AddStats(s Stats) { m.stats.Add(s) }

// Stats implements CodeSource.
func (m *QuantMem) Stats() Stats { return m.stats }

// ResetStats implements CodeSource.
func (m *QuantMem) ResetStats() { m.stats = Stats{} }

// ParallelScanCodes is ParallelScan over a bin-coded source: [0,
// NumRecords()) splits into at most workers contiguous ranges scanned
// concurrently, with the same cancellation, panic-recovery, and merge-once
// accounting contract (a successful parallel pass is indistinguishable from
// one serial ScanCodes).
func ParallelScanCodes(ctx context.Context, src CodeSource, workers int, fn func(worker, rid int, codes []uint16, label int) error) error {
	return ParallelScanCodesObserved(ctx, src, workers, nil, fn)
}

// ParallelScanCodesObserved is ParallelScanCodes with per-worker
// instrumentation, mirroring ParallelScanObserved.
func ParallelScanCodesObserved(ctx context.Context, src CodeSource, workers int, observe func(WorkerScan), fn func(worker, rid int, codes []uint16, label int) error) error {
	return scanRanges(ctx, src.NumRecords(), workers, observe, src.ScanCodesRange, src.AddStats, fn)
}
