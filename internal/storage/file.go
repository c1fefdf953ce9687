package storage

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"cmpdt/internal/dataset"
)

// The binary record file comes in two versions, distinguished by their magic
// string. Both share the same header (a length-prefixed JSON blob) and the
// same record encoding (one little-endian float64 per attribute plus a
// uint16 class label).
//
//   - CMPDT1 stores records back to back after the header.
//   - CMPDT2 groups the record stream into fixed-size disk pages, each
//     carrying a CRC32C checksum of its payload, so corruption is detected
//     at scan time instead of being silently trained on. Records may span
//     page boundaries; the payload stream is identical to a V1 data region.
const (
	magicV1 = "CMPDT1\n"
	magicV2 = "CMPDT2\n"
)

// Version selects the record file format a Writer produces.
type Version int

const (
	// FormatV1 is the legacy unchecksummed layout.
	FormatV1 Version = 1
	// FormatV2 adds per-page CRC32C checksums (the default).
	FormatV2 Version = 2
)

// pagePayload is the number of record-stream bytes stored per CMPDT2 disk
// page; the remaining 4 bytes hold the page's CRC32C (Castagnoli), stored
// little-endian ahead of the payload.
const pagePayload = PageSize - 4

// castagnoli is the CRC32C table shared by writer and reader.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt is wrapped by scan errors caused by a page whose checksum does
// not match its payload.
var ErrCorrupt = errors.New("page checksum mismatch")

// ErrWriterClosed is returned by Writer.Append after Close or Abort.
var ErrWriterClosed = errors.New("storage: writer is closed")

// fileHeader is the JSON header stored after the magic string. Quant holds
// the per-attribute code↔breakpoint tables of a quantized (CMPDQ1) store and
// is absent from CMPDT1/CMPDT2 files.
type fileHeader struct {
	Schema     *dataset.Schema `json:"schema"`
	NumRecords int             `json:"num_records"`
	Quant      []QuantAttr     `json:"quant,omitempty"`
}

// Writer streams records into a new binary store file.
//
// Lifecycle: CreateFile, Append repeatedly, then exactly one of Close
// (finalize and open for reading) or Abort (discard). Append after either
// returns ErrWriterClosed; Close is idempotent and returns its first result
// again; any failure during Close removes the unusable partial file.
type Writer struct {
	path    string
	f       *os.File
	bw      *bufio.Writer
	schema  *dataset.Schema
	n       int
	buf     []byte
	version Version
	page    []byte // FormatV2: payload bytes awaiting a checksum seal
	// quant carries the bin-code tables of a quantized store; non-nil only
	// for writers created by CreateQuantFile, whose magic and record
	// encoding differ but whose header/page plumbing is shared.
	quant []QuantAttr

	closed    bool
	closeFile *File
	closeErr  error
}

// CreateFile starts writing a binary record store at path in the current
// (checksummed) format, truncating any existing file. Call Append for each
// record, then Close.
func CreateFile(path string, schema *dataset.Schema) (*Writer, error) {
	return CreateFileVersion(path, schema, FormatV2)
}

// CreateFileVersion is CreateFile with an explicit format version;
// FormatV1 writes the legacy unchecksummed layout.
func CreateFileVersion(path string, schema *dataset.Schema, version Version) (*Writer, error) {
	if version != FormatV1 && version != FormatV2 {
		return nil, fmt.Errorf("storage: unknown format version %d", int(version))
	}
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if schema.NumClasses() > math.MaxUint16 {
		return nil, fmt.Errorf("storage: %d classes exceed label encoding", schema.NumClasses())
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		path:    path,
		f:       f,
		bw:      bufio.NewWriterSize(f, 4*PageSize),
		schema:  schema,
		buf:     make([]byte, recordBytes(schema)),
		version: version,
	}
	if version == FormatV2 {
		w.page = make([]byte, 0, pagePayload)
	}
	if err := w.writeHeader(); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return w, nil
}

// headerPad reserves room in the initial header for the final record count
// (written by Close), whose decimal digits grow the JSON.
const headerPad = 24

func (w *Writer) writeHeader() error {
	hdr, err := json.Marshal(fileHeader{Schema: w.schema, NumRecords: w.n, Quant: w.quant})
	if err != nil {
		return err
	}
	for i := 0; i < headerPad; i++ {
		hdr = append(hdr, ' ') // trailing spaces are ignored by json.Unmarshal
	}
	magic := magicV1
	if w.version == FormatV2 {
		magic = magicV2
	}
	if w.quant != nil {
		magic = magicQ1
	}
	if _, err := w.bw.WriteString(magic); err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(hdr)))
	if _, err := w.bw.Write(lenBuf[:]); err != nil {
		return err
	}
	_, err = w.bw.Write(hdr)
	return err
}

// sealPage checksums the pending payload and writes it as one disk page.
func (w *Writer) sealPage() error {
	var crcBuf [4]byte
	binary.LittleEndian.PutUint32(crcBuf[:], crc32.Checksum(w.page, castagnoli))
	if _, err := w.bw.Write(crcBuf[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(w.page); err != nil {
		return err
	}
	w.page = w.page[:0]
	return nil
}

// Append writes one record.
func (w *Writer) Append(vals []float64, label int) error {
	if w.closed {
		return ErrWriterClosed
	}
	if len(vals) != w.schema.NumAttrs() {
		return fmt.Errorf("storage: record has %d values, schema has %d attributes",
			len(vals), w.schema.NumAttrs())
	}
	if label < 0 || label >= w.schema.NumClasses() {
		return fmt.Errorf("storage: label %d out of range", label)
	}
	off := 0
	for _, v := range vals {
		binary.LittleEndian.PutUint64(w.buf[off:], math.Float64bits(v))
		off += 8
	}
	binary.LittleEndian.PutUint16(w.buf[off:], uint16(label))
	if w.version == FormatV1 {
		if _, err := w.bw.Write(w.buf); err != nil {
			return err
		}
		w.n++
		return nil
	}
	if err := w.appendPaged(w.buf); err != nil {
		return err
	}
	w.n++
	return nil
}

// appendPaged streams one encoded record into the checksummed page stream,
// sealing each page as it fills. Records may span page boundaries.
func (w *Writer) appendPaged(rec []byte) error {
	for len(rec) > 0 {
		take := pagePayload - len(w.page)
		if take > len(rec) {
			take = len(rec)
		}
		w.page = append(w.page, rec[:take]...)
		rec = rec[take:]
		if len(w.page) == pagePayload {
			if err := w.sealPage(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Close flushes, rewrites the header with the final record count, and opens
// the finished store for reading. It is idempotent — repeated calls return
// the first call's result — and on any failure the partial file is removed
// so no truncated store is left behind.
func (w *Writer) Close() (*File, error) {
	if w.closed {
		return w.closeFile, w.closeErr
	}
	w.closed = true
	w.closeFile, w.closeErr = w.finish()
	return w.closeFile, w.closeErr
}

func (w *Writer) finish() (*File, error) {
	if err := w.finishSeal(); err != nil {
		return nil, err
	}
	f, err := OpenFile(w.path)
	if err != nil {
		os.Remove(w.path)
		return nil, err
	}
	return f, nil
}

// finishSeal seals the tail page, flushes, rewrites the header in place with
// the final record count, and closes the descriptor. On any failure the
// unusable partial file is removed. Shared by Writer.finish and the
// quantized writer, which reopen the finished file differently.
func (w *Writer) finishSeal() error {
	fail := func(err error) error {
		w.f.Close()
		os.Remove(w.path)
		return err
	}
	if w.version == FormatV2 && len(w.page) > 0 {
		if err := w.sealPage(); err != nil {
			return fail(err)
		}
	}
	if err := w.bw.Flush(); err != nil {
		return fail(err)
	}
	// Rewrite the header in place with the final record count, padded to the
	// exact length reserved by writeHeader so record offsets are unchanged.
	hdr, err := json.Marshal(fileHeader{Schema: w.schema, NumRecords: w.n, Quant: w.quant})
	if err != nil {
		return fail(err)
	}
	hdr0, _ := json.Marshal(fileHeader{Schema: w.schema, NumRecords: 0, Quant: w.quant})
	reserved := len(hdr0) + headerPad
	if len(hdr) > reserved {
		return fail(fmt.Errorf("storage: header grew past reserved %d bytes", reserved))
	}
	for len(hdr) < reserved {
		hdr = append(hdr, ' ')
	}
	if _, err := w.f.WriteAt(hdr, int64(len(magicV1))+4); err != nil {
		return fail(err)
	}
	if err := w.f.Close(); err != nil {
		os.Remove(w.path)
		return err
	}
	return nil
}

// Abort discards an in-progress write, closing and removing the partial
// file. Safe to call after Close (a no-op then).
func (w *Writer) Abort() {
	if w.closed {
		return
	}
	w.closed = true
	w.closeErr = ErrWriterClosed
	w.f.Close()
	os.Remove(w.path)
}

// File is a read-only binary record store with metered scans.
//
// Stats meter the logical record volume (records x record size), identical
// across FormatV1, FormatV2 and Mem, so the paper's I/O cost model stays
// comparable between sources; FormatV2's 4-bytes-per-page checksum overhead
// (~0.05%) is not charged.
type File struct {
	path    string
	schema  *dataset.Schema
	n       int
	version Version
	dataOff int64
	recSize int64
	stats   Stats

	retry  RetryPolicy
	faults *FaultInjector

	cache      *PageCache
	cacheBytes int64
	readahead  int
}

// OpenFile opens an existing store in either format, validating the header
// and the file's physical size against its declared record count.
func OpenFile(path string) (*File, error) {
	var version Version
	h, err := readHeader(path, func(magic string) error {
		switch magic {
		case magicV1:
			version = FormatV1
		case magicV2:
			version = FormatV2
		case magicQ1:
			return fmt.Errorf("storage: %s is a quantized (CMPDQ1) store; use OpenQuantFile", path)
		default:
			return fmt.Errorf("storage: %s is not a CMPDT record file", path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return h.file(path, version, recordBytes(h.Schema))
}

// storeHeader is a store's decoded header, where its records begin and
// how long the file is.
type storeHeader struct {
	fileHeader
	dataOff, size int64
}

// readHeader reads the magic of the store at path, which check vets, and
// the length-prefixed JSON header after it. A declared length running
// past the end of the file is rejected before anything is allocated, so
// the header is bounded by the file's size and nothing else; it must hold
// a valid schema and a record count of at least zero.
func readHeader(path string, check func(magic string) error) (*storeHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(f)
	magic := make([]byte, len(magicV1))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("storage: reading magic: %w", err)
	}
	if err := check(string(magic)); err != nil {
		return nil, err
	}
	var lenBuf [4]byte
	if _, err := io.ReadFull(br, lenBuf[:]); err != nil {
		return nil, fmt.Errorf("storage: reading header length: %w", err)
	}
	hdrLen := int64(binary.LittleEndian.Uint32(lenBuf[:]))
	h := &storeHeader{dataOff: int64(len(magic)) + 4 + hdrLen, size: st.Size()}
	if h.dataOff > h.size {
		return nil, fmt.Errorf("storage: header length %d runs past the end of %s (%d bytes)", hdrLen, path, h.size)
	}
	hdrBytes := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdrBytes); err != nil {
		return nil, fmt.Errorf("storage: reading header: %w", err)
	}
	if err := json.Unmarshal(hdrBytes, &h.fileHeader); err != nil {
		return nil, fmt.Errorf("storage: decoding header: %w", err)
	}
	if h.Schema == nil {
		return nil, fmt.Errorf("storage: header of %s lacks a schema", path)
	}
	if err := h.Schema.Validate(); err != nil {
		return nil, fmt.Errorf("storage: stored schema invalid: %w", err)
	}
	if h.NumRecords < 0 {
		return nil, fmt.Errorf("storage: negative record count %d", h.NumRecords)
	}
	return h, nil
}

// file returns the store h heads as a File of recSize-byte records in the
// given format, checking the file holds every record it declares.
func (h *storeHeader) file(path string, version Version, recSize int64) (*File, error) {
	out := &File{
		path:      path,
		schema:    h.Schema,
		n:         h.NumRecords,
		version:   version,
		dataOff:   h.dataOff,
		recSize:   recSize,
		retry:     DefaultRetryPolicy,
		readahead: DefaultReadahead,
	}
	if want := out.dataOff + out.diskDataLen(); h.size < want {
		return nil, fmt.Errorf("storage: %s truncated: %d bytes, need %d for %d records",
			path, h.size, want, out.n)
	}
	return out, nil
}

// diskDataLen returns the physical size of the data region implied by the
// record count: raw records for V1, checksummed pages for V2.
func (f *File) diskDataLen() int64 {
	logical := int64(f.n) * f.recSize
	if f.version == FormatV1 {
		return logical
	}
	return logical + 4*pagesIn(logical)
}

// pagesIn returns how many CMPDT2 pages hold a logical byte count.
func pagesIn(logical int64) int64 {
	return (logical + pagePayload - 1) / pagePayload
}

// Schema implements Source.
func (f *File) Schema() *dataset.Schema { return f.schema }

// NumRecords implements Source.
func (f *File) NumRecords() int { return f.n }

// Path returns the underlying file path.
func (f *File) Path() string { return f.path }

// Format returns the store's on-disk format version.
func (f *File) Format() Version { return f.version }

// SetRetryPolicy replaces the transient-error retry policy (default
// DefaultRetryPolicy). Call before scanning; not safe concurrently with
// scans.
func (f *File) SetRetryPolicy(p RetryPolicy) { f.retry = p }

// SetFaultInjector routes every subsequent read through fi (nil disables).
// Call before scanning; not safe concurrently with scans.
func (f *File) SetFaultInjector(fi *FaultInjector) { f.faults = fi }

// SetCacheBytes attaches a page cache holding n bytes of pages, shared by
// every subsequent Scan/ScanRange/ParallelScan over this file. n <= 0
// detaches the cache; calling again with the current capacity is a no-op
// that keeps the warm cache (so layered callers can each request the same
// size without flushing it). Only FormatV2 scans use the cache — FormatV1
// has no page structure to pin. Call before scanning; not safe concurrently
// with scans.
func (f *File) SetCacheBytes(n int64) {
	if n <= 0 {
		f.cache, f.cacheBytes = nil, 0
		return
	}
	if f.cache != nil && f.cacheBytes == n {
		return
	}
	f.cacheBytes = n
	f.cache = NewPageCache(n)
}

// Cache returns the attached page cache, or nil.
func (f *File) Cache() *PageCache { return f.cache }

// SetReadahead sets how many pages past a demand miss a cached sequential
// scan prefetches (default DefaultReadahead; 0 disables). Call before
// scanning; not safe concurrently with scans.
func (f *File) SetReadahead(pages int) {
	if pages < 0 {
		pages = 0
	}
	f.readahead = pages
}

// readFullAt fills p from r at disk offset off, retrying transient failures
// under the file's retry policy (counting each retry into stats) and
// converting EOF into an explicit truncation error.
func (f *File) readFullAt(r io.ReaderAt, p []byte, off int64, stats *Stats) error {
	done := 0
	failures := 0
	for done < len(p) {
		n, err := r.ReadAt(p[done:], off+int64(done))
		done += n
		if done == len(p) {
			return nil
		}
		if err == nil {
			continue
		}
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("storage: %s truncated at offset %d: %w", f.path, off+int64(done), io.ErrUnexpectedEOF)
		}
		if !IsTransient(err) {
			return err
		}
		if n > 0 {
			failures = 0 // progress resets the consecutive-failure budget
		}
		failures++
		if failures > f.retry.MaxRetries {
			return fmt.Errorf("storage: read at offset %d of %s failed after %d retries: %w",
				off+int64(done), f.path, f.retry.MaxRetries, err)
		}
		stats.Retries++
		if f.retry.Backoff > 0 {
			time.Sleep(f.retry.Backoff << (failures - 1))
		}
	}
	return nil
}

// wrapReader applies the configured fault injector, if any.
func (f *File) wrapReader(file *os.File) io.ReaderAt {
	if f.faults != nil {
		return f.faults.Wrap(file)
	}
	return file
}

// rawReader streams the V1 data region sequentially through retry-backed
// positioned reads.
type rawReader struct {
	f        *File
	r        io.ReaderAt
	off, end int64
	buf      []byte
	avail    []byte
	stats    *Stats
}

func (rr *rawReader) Read(p []byte) (int, error) {
	if len(rr.avail) == 0 {
		if rr.off >= rr.end {
			return 0, io.EOF
		}
		chunk := int64(len(rr.buf))
		if rem := rr.end - rr.off; rem < chunk {
			chunk = rem
		}
		if err := rr.f.readFullAt(rr.r, rr.buf[:chunk], rr.off, rr.stats); err != nil {
			return 0, err
		}
		rr.off += chunk
		rr.avail = rr.buf[:chunk]
	}
	n := copy(p, rr.avail)
	rr.avail = rr.avail[n:]
	return n, nil
}

// pageReader streams the V2 payload, verifying each page's checksum as it
// is loaded. A checksum mismatch surfaces as an error wrapping ErrCorrupt
// and is counted into stats.CorruptPages.
type pageReader struct {
	f        *File
	r        io.ReaderAt
	page     int64 // next page index
	numPages int64
	dataLen  int64 // logical payload bytes in the whole file
	buf      []byte
	avail    []byte
	stats    *Stats
}

func (pr *pageReader) Read(p []byte) (int, error) {
	if len(pr.avail) == 0 {
		if pr.page >= pr.numPages {
			return 0, io.EOF
		}
		n, err := pr.f.readPageAt(pr.r, pr.page, pr.dataLen, pr.buf, pr.stats)
		if err != nil {
			return 0, err
		}
		pr.avail = pr.buf[4 : 4+n]
		pr.page++
	}
	n := copy(p, pr.avail)
	pr.avail = pr.avail[n:]
	return n, nil
}

// readPageAt performs the single physical read of one CMPDT2 disk page into
// buf (at least PageSize bytes: the 4-byte CRC word followed by the
// payload), verifying its checksum, and returns the payload length. It is
// the one physical-read path shared by the uncached page reader and the
// page-cache fill, so retry (stats.Retries) and corruption
// (stats.CorruptPages) accounting is identical whether or not a cache is
// attached.
func (f *File) readPageAt(r io.ReaderAt, page, dataLen int64, buf []byte, stats *Stats) (int, error) {
	payloadLen := int64(pagePayload)
	if rem := dataLen - page*pagePayload; rem < payloadLen {
		payloadLen = rem
	}
	diskOff := f.dataOff + page*PageSize
	if err := f.readFullAt(r, buf[:4+payloadLen], diskOff, stats); err != nil {
		return 0, err
	}
	want := binary.LittleEndian.Uint32(buf[:4])
	payload := buf[4 : 4+payloadLen]
	if got := crc32.Checksum(payload, castagnoli); got != want {
		stats.CorruptPages++
		return 0, fmt.Errorf("storage: page %d of %s: %w (crc %08x, want %08x)",
			page, f.path, ErrCorrupt, got, want)
	}
	return int(payloadLen), nil
}

// cachedPageReader streams the V2 payload through the file's page cache.
// Pages are filled — read, retried, CRC-verified — once per residency and
// served zero-copy from the pinned frame afterwards; a demand miss triggers
// synchronous readahead of the next pages so a cold sequential scan fills
// the pool in page order. Because fills reuse readPageAt one page at a time,
// the physical ReadAt sequence of a cold scan is identical to the uncached
// reader's, so deterministic fault injection lands on the same reads and
// Stats.Retries/CorruptPages match the uncached path. The reader keeps the
// page it is consuming pinned; Close releases it.
type cachedPageReader struct {
	f         *File
	r         io.ReaderAt
	page      int64 // next page index
	numPages  int64
	dataLen   int64
	readahead int
	stats     *Stats
	cur       *frame // pinned frame backing avail, if any
	avail     []byte
	scratch   []byte // private buffer for pinned-out bypass reads
}

func (cr *cachedPageReader) Read(p []byte) (int, error) {
	if len(cr.avail) == 0 {
		cr.unpin()
		if cr.page >= cr.numPages {
			return 0, io.EOF
		}
		payload, err := cr.load(cr.page)
		if err != nil {
			return 0, err
		}
		cr.avail = payload
		cr.page++
	}
	n := copy(p, cr.avail)
	cr.avail = cr.avail[n:]
	return n, nil
}

// Close releases the pinned frame; scanRecords defers it so an aborted scan
// cannot leak a pin.
func (cr *cachedPageReader) Close() error {
	cr.unpin()
	cr.avail = nil
	return nil
}

func (cr *cachedPageReader) unpin() {
	if cr.cur != nil {
		cr.f.cache.release(cr.cur)
		cr.cur = nil
	}
}

// fillFunc returns the cache-fill callback for one page, closing over this
// reader's (possibly fault-injected) ReaderAt and stats.
func (cr *cachedPageReader) fillFunc(page int64) func(dst []byte) (int, error) {
	return func(dst []byte) (int, error) {
		return cr.f.readPageAt(cr.r, page, cr.dataLen, dst, cr.stats)
	}
}

// load produces page's payload: from the cache when possible, via a private
// bypass read when every frame is pinned. After performing a demand fill it
// prefetches the next readahead pages synchronously (stopping early at EOF
// or a full pool); a prefetch fill error is as fatal as the demand read it
// stands in for, keeping fault accounting identical to the uncached path.
func (cr *cachedPageReader) load(page int64) ([]byte, error) {
	c := cr.f.cache
	fr, filled, err := c.acquire(page, cr.stats, false, cr.fillFunc(page))
	if err == errNoFrame {
		if cr.scratch == nil {
			cr.scratch = make([]byte, PageSize)
		}
		n, err := cr.f.readPageAt(cr.r, page, cr.dataLen, cr.scratch, cr.stats)
		if err != nil {
			return nil, err
		}
		cr.stats.CacheMisses++
		return cr.scratch[4 : 4+n], nil
	}
	if err != nil {
		return nil, err
	}
	cr.cur = fr
	if filled {
		for ahead := page + 1; ahead < cr.numPages && ahead <= page+int64(cr.readahead); ahead++ {
			if _, _, err := c.acquire(ahead, cr.stats, true, cr.fillFunc(ahead)); err != nil {
				if err == errNoFrame {
					break
				}
				cr.unpin()
				return nil, err
			}
		}
	}
	return fr.payload(), nil
}

// recordReader returns a reader positioned at record startRec of the logical
// record stream, whatever the on-disk format.
func (f *File) recordReader(file *os.File, startRec int, stats *Stats) (io.Reader, error) {
	r := f.wrapReader(file)
	logOff := int64(startRec) * f.recSize
	dataLen := int64(f.n) * f.recSize
	if f.version == FormatV1 {
		return &rawReader{
			f: f, r: r,
			off: f.dataOff + logOff, end: f.dataOff + dataLen,
			buf: make([]byte, 4*PageSize), stats: stats,
		}, nil
	}
	var pr io.Reader
	if f.cache != nil {
		pr = &cachedPageReader{
			f: f, r: r,
			page:      logOff / pagePayload,
			numPages:  pagesIn(dataLen),
			dataLen:   dataLen,
			readahead: f.readahead,
			stats:     stats,
		}
	} else {
		pr = &pageReader{
			f: f, r: r,
			page:     logOff / pagePayload,
			numPages: pagesIn(dataLen),
			dataLen:  dataLen,
			buf:      make([]byte, PageSize),
			stats:    stats,
		}
	}
	if skip := logOff % pagePayload; skip > 0 {
		if _, err := io.CopyN(io.Discard, pr, skip); err != nil {
			if c, ok := pr.(io.Closer); ok {
				c.Close()
			}
			return nil, err
		}
	}
	return pr, nil
}

// scanRaw drives one metered pass over records lo <= rid < hi through a
// private file descriptor, handing fn each record's raw encoded bytes (the
// slice is reused between calls). Float and bin-code scans both reduce to
// it, so retry, checksum, cache, and accounting behavior is decided here
// once, whatever the record encoding.
func (f *File) scanRaw(lo, hi int, stats *Stats, fn func(rid int, rec []byte) error) error {
	if lo < 0 {
		lo = 0
	}
	if hi > f.n {
		hi = f.n
	}
	if lo >= hi {
		return nil
	}
	file, err := os.Open(f.path)
	if err != nil {
		return err
	}
	defer file.Close()
	br, err := f.recordReader(file, lo, stats)
	if err != nil {
		return err
	}
	if c, ok := br.(io.Closer); ok {
		defer c.Close() // release any page the reader still has pinned
	}
	buf := make([]byte, f.recSize)
	account := func(recs int) {
		stats.RecordsRead += int64(recs)
		bytes := int64(recs) * f.recSize
		stats.BytesRead += bytes
		stats.PagesRead += pagesFor(bytes)
	}
	for rid := lo; rid < hi; rid++ {
		if _, err := io.ReadFull(br, buf); err != nil {
			account(rid - lo)
			return fmt.Errorf("storage: record %d of %s: %w", rid, f.path, err)
		}
		if err := fn(rid, buf); err != nil {
			account(rid - lo + 1)
			return err
		}
	}
	account(hi - lo)
	return nil
}

// scanRecords decodes the standard float64-record encoding over scanRaw;
// both Scan and ScanRange reduce to it.
func (f *File) scanRecords(lo, hi int, stats *Stats, fn func(rid int, vals []float64, label int) error) error {
	k := f.schema.NumAttrs()
	vals := make([]float64, k)
	return f.scanRaw(lo, hi, stats, func(rid int, rec []byte) error {
		off := 0
		for i := 0; i < k; i++ {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(rec[off:]))
			off += 8
		}
		return fn(rid, vals, int(binary.LittleEndian.Uint16(rec[off:])))
	})
}

// Scan implements Source, reading the file sequentially with page-sized
// buffering and metering bytes, pages and records. Transient read errors
// are retried under the file's RetryPolicy; checksum mismatches (FormatV2)
// abort with an error wrapping ErrCorrupt.
func (f *File) Scan(fn func(rid int, vals []float64, label int) error) error {
	if err := f.scanRecords(0, f.n, &f.stats, fn); err != nil {
		return err
	}
	f.stats.Scans++
	return nil
}

// ScanRange implements RangeSource: records lo <= rid < hi in rid order,
// read through a private file descriptor so concurrent ranges do not share
// seek position. I/O is accounted into stats when non-nil, into the
// source's own counters otherwise (not safe under concurrent calls — see
// RangeSource). The retry and checksum behavior matches Scan.
func (f *File) ScanRange(lo, hi int, stats *Stats, fn func(rid int, vals []float64, label int) error) error {
	if stats == nil {
		stats = &f.stats
	}
	return f.scanRecords(lo, hi, stats, fn)
}

// AddStats implements RangeSource.
func (f *File) AddStats(s Stats) { f.stats.Add(s) }

// Stats implements Source.
func (f *File) Stats() Stats { return f.stats }

// ResetStats implements Source.
func (f *File) ResetStats() { f.stats = Stats{} }

// WriteTable stores an in-memory table at path and opens it.
func WriteTable(path string, t *dataset.Table) (*File, error) {
	w, err := CreateFile(path, t.Schema())
	if err != nil {
		return nil, err
	}
	for i := 0; i < t.NumRecords(); i++ {
		if err := w.Append(t.Row(i), t.Label(i)); err != nil {
			w.Abort()
			return nil, err
		}
	}
	return w.Close()
}

// ReadAll loads an entire source into memory as a table.
func ReadAll(src Source) (*dataset.Table, error) {
	t, err := dataset.New(src.Schema())
	if err != nil {
		return nil, err
	}
	err = src.Scan(func(rid int, vals []float64, label int) error {
		return t.Append(vals, label)
	})
	if err != nil {
		return nil, err
	}
	return t, nil
}
