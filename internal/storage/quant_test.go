package storage

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/quantile"
)

// quantAttrFromColumn builds one attribute's quantization table the way the
// builder does: equal-depth cuts from the column, observed max as the top
// bin's representative.
func quantAttrFromColumn(t *testing.T, tbl *dataset.Table, a, q int) QuantAttr {
	t.Helper()
	col := tbl.Column(a)
	d, err := quantile.EqualDepth(col, q)
	if err != nil {
		t.Fatal(err)
	}
	max := col[0]
	for _, v := range col {
		if v > max {
			max = v
		}
	}
	cuts := d.Cuts()
	if len(cuts) > 0 && max <= cuts[len(cuts)-1] {
		max = math.Nextafter(cuts[len(cuts)-1], math.Inf(1))
	}
	return QuantAttr{Cuts: cuts, Max: max}
}

// testQuantizer quantizes testTable's two numeric attributes to q bins each.
func testQuantizer(t *testing.T, tbl *dataset.Table, q int) *Quantizer {
	t.Helper()
	attrs := []QuantAttr{
		quantAttrFromColumn(t, tbl, 0, q),
		quantAttrFromColumn(t, tbl, 1, q),
		{}, // categorical: code is the category index
	}
	qz, err := NewQuantizer(tbl.Schema(), attrs)
	if err != nil {
		t.Fatal(err)
	}
	return qz
}

// writeTestQuantFile encodes testTable(n) into a CMPDQ1 store.
func writeTestQuantFile(t *testing.T, path string, n, q int) (*QuantFile, *dataset.Table, *Quantizer) {
	t.Helper()
	tbl := testTable(t, n)
	qz := testQuantizer(t, tbl, q)
	w, err := CreateQuantFile(path, qz)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := w.Append(tbl.Row(i), tbl.Label(i)); err != nil {
			t.Fatal(err)
		}
	}
	qf, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return qf, tbl, qz
}

// largeQuantizer has 60,000 cuts on one numeric attribute, each printed
// with 17 significant digits: its CMPDQ1 header runs past 1 MiB.
func largeQuantizer(tb testing.TB) *Quantizer {
	tb.Helper()
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Numeric}},
		Classes: []string{"n", "y"},
	}
	cuts := make([]float64, 60_000)
	for i := range cuts {
		cuts[i] = float64(i) + 1.0/3
	}
	qz, err := NewQuantizer(schema, []QuantAttr{{Cuts: cuts, Max: 60_000}})
	if err != nil {
		tb.Fatal(err)
	}
	return qz
}

// TestQuantLargeHeaderRoundTrip: a store whose quantization tables run past
// 1 MiB opens and scans back the codes it was written with; the header is
// bounded by the file's size alone.
func TestQuantLargeHeaderRoundTrip(t *testing.T) {
	qz := largeQuantizer(t)
	path := filepath.Join(t.TempDir(), "large.rec")
	w, err := CreateQuantFile(path, qz)
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{0, 1, 30_000.5, 59_999, 60_000}
	for i, v := range vals {
		if err := w.Append([]float64{v}, i%2); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Size() <= 1<<20 {
		t.Fatalf("store is %v bytes (err %v), want a header past 1 MiB", st.Size(), err)
	}
	qf, err := OpenQuantFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := qf.Quantizer().Bins(0); got != 60_001 {
		t.Errorf("reopened quantizer has %d bins, want 60001", got)
	}
	want := make([]uint16, 1)
	err = qf.ScanCodes(func(rid int, codes []uint16, label int) error {
		qz.Encode([]float64{vals[rid]}, want)
		if codes[0] != want[0] || label != rid%2 {
			t.Errorf("record %d: code %d label %d, want %d and %d", rid, codes[0], label, want[0], rid%2)
		}
		return nil
	})
	if err != nil || qf.Stats().RecordsRead != int64(len(vals)) {
		t.Fatalf("scan: err %v, %d records read", err, qf.Stats().RecordsRead)
	}
}

// TestQuantizerCodeIdentity pins the split-translation identity the whole
// quantized path rests on: code(v) <= c exactly when v <= Threshold(a, c),
// and re-encoding a decoded representative reproduces the code.
func TestQuantizerCodeIdentity(t *testing.T) {
	tbl := testTable(t, 500)
	qz := testQuantizer(t, tbl, 16)
	codes := make([]uint16, qz.NumAttrs())
	vals := make([]float64, qz.NumAttrs())
	re := make([]uint16, qz.NumAttrs())
	for i := 0; i < tbl.NumRecords(); i++ {
		row := tbl.Row(i)
		qz.Encode(row, codes)
		for _, a := range []int{0, 1} {
			c := int(codes[a])
			if c >= qz.Bins(a) {
				t.Fatalf("record %d attr %d: code %d out of %d bins", i, a, c, qz.Bins(a))
			}
			if c < qz.Bins(a)-1 && row[a] > qz.Threshold(a, c) {
				t.Fatalf("record %d attr %d: v=%v above its bin's threshold %v", i, a, row[a], qz.Threshold(a, c))
			}
			if c > 0 && row[a] <= qz.Threshold(a, c-1) {
				t.Fatalf("record %d attr %d: v=%v below boundary %d", i, a, row[a], c-1)
			}
		}
		qz.Decode(codes, vals)
		qz.Encode(vals, re)
		for a := range codes {
			if re[a] != codes[a] {
				t.Fatalf("record %d attr %d: representative re-encodes to %d, want %d", i, a, re[a], codes[a])
			}
		}
	}
}

// TestQuantizerValidation is the NewQuantizer rejection table.
func TestQuantizerValidation(t *testing.T) {
	schema := testTable(t, 1).Schema()
	ok := []QuantAttr{{Cuts: []float64{1, 2}, Max: 3}, {Cuts: []float64{0.5}, Max: 1}, {}}
	if _, err := NewQuantizer(schema, ok); err != nil {
		t.Fatalf("valid tables rejected: %v", err)
	}
	cases := []struct {
		name  string
		attrs []QuantAttr
	}{
		{"wrong arity", ok[:2]},
		{"descending cuts", []QuantAttr{{Cuts: []float64{2, 1}, Max: 3}, ok[1], ok[2]}},
		{"duplicate cuts", []QuantAttr{{Cuts: []float64{1, 1}, Max: 3}, ok[1], ok[2]}},
		{"nan cut", []QuantAttr{{Cuts: []float64{math.NaN()}, Max: 3}, ok[1], ok[2]}},
		{"inf cut", []QuantAttr{{Cuts: []float64{math.Inf(1)}, Max: 3}, ok[1], ok[2]}},
		{"max at last cut", []QuantAttr{{Cuts: []float64{1, 2}, Max: 2}, ok[1], ok[2]}},
		{"nan max", []QuantAttr{{Cuts: []float64{1}, Max: math.NaN()}, ok[1], ok[2]}},
		{"categorical with cuts", []QuantAttr{ok[0], ok[1], {Cuts: []float64{0.5}, Max: 1}}},
		{"too many bins", []QuantAttr{{Cuts: make([]float64, math.MaxUint16+1), Max: math.MaxFloat64}, ok[1], ok[2]}},
	}
	for i := range cases[len(cases)-1].attrs[0].Cuts {
		cases[len(cases)-1].attrs[0].Cuts[i] = float64(i)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewQuantizer(schema, tc.attrs); err == nil {
				t.Error("invalid tables accepted")
			}
		})
	}
}

// TestQuantFileRoundTrip writes a store, reopens it, and checks codes,
// labels, representative decoding, and the ≥4x record shrink.
func TestQuantFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.rec")
	qf, tbl, qz := writeTestQuantFile(t, path, 1234, 16)
	if qf.NumRecords() != 1234 {
		t.Fatalf("NumRecords = %d", qf.NumRecords())
	}
	if got, raw := qf.Quantizer().RecordBytes(), recordBytes(tbl.Schema()); got*4 > raw {
		t.Errorf("quantized record %dB not >=4x smaller than raw %dB", got, raw)
	}

	want := make([]uint16, qz.NumAttrs())
	count := 0
	err := qf.ScanCodes(func(rid int, codes []uint16, label int) error {
		if rid != count {
			t.Fatalf("rid %d out of order (want %d)", rid, count)
		}
		qz.Encode(tbl.Row(rid), want)
		for a := range codes {
			if codes[a] != want[a] {
				t.Fatalf("record %d attr %d: code %d, want %d", rid, a, codes[a], want[a])
			}
		}
		if label != tbl.Label(rid) {
			t.Fatalf("record %d label %d, want %d", rid, label, tbl.Label(rid))
		}
		count++
		return nil
	})
	if err != nil || count != 1234 {
		t.Fatalf("scan err=%v count=%d", err, count)
	}
	st := qf.Stats()
	if st.Scans != 1 || st.RecordsRead != 1234 || st.BytesRead != 1234*qz.RecordBytes() {
		t.Errorf("stats = %+v", st)
	}
	if st.PagesRead != pagesFor(st.BytesRead) {
		t.Errorf("PagesRead = %d", st.PagesRead)
	}

	// The Source-compat Scan must deliver representatives that re-encode to
	// the stored codes.
	re := make([]uint16, qz.NumAttrs())
	err = qf.Scan(func(rid int, vals []float64, label int) error {
		qz.Encode(vals, re)
		qz.Encode(tbl.Row(rid), want)
		for a := range re {
			if re[a] != want[a] {
				t.Fatalf("record %d attr %d: representative code %d, want %d", rid, a, re[a], want[a])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuantFileMatchesQuantMem checks the file and in-memory code stores
// deliver identical streams with identical logical accounting.
func TestQuantFileMatchesQuantMem(t *testing.T) {
	path := filepath.Join(t.TempDir(), "agree.rec")
	qf, tbl, qz := writeTestQuantFile(t, path, 321, 16)
	qm := NewQuantMem(qz)
	for i := 0; i < tbl.NumRecords(); i++ {
		if err := qm.Append(tbl.Row(i), tbl.Label(i)); err != nil {
			t.Fatal(err)
		}
	}
	var fromFile, fromMem []int
	flat := func(dst *[]int) func(int, []uint16, int) error {
		return func(rid int, codes []uint16, label int) error {
			for _, c := range codes {
				*dst = append(*dst, int(c))
			}
			*dst = append(*dst, label)
			return nil
		}
	}
	if err := qf.ScanCodes(flat(&fromFile)); err != nil {
		t.Fatal(err)
	}
	if err := qm.ScanCodes(flat(&fromMem)); err != nil {
		t.Fatal(err)
	}
	if len(fromFile) != len(fromMem) {
		t.Fatalf("lengths differ: %d vs %d", len(fromFile), len(fromMem))
	}
	for i := range fromFile {
		if fromFile[i] != fromMem[i] {
			t.Fatalf("streams differ at %d", i)
		}
	}
	if qf.Stats().BytesRead != qm.Stats().BytesRead {
		t.Errorf("BytesRead %d vs %d", qf.Stats().BytesRead, qm.Stats().BytesRead)
	}
}

// TestQuantWideCodes exercises the 2-byte code width: an attribute with more
// than 256 bins must round-trip through uint16 little-endian codes.
func TestQuantWideCodes(t *testing.T) {
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "wide", Kind: dataset.Numeric},
			{Name: "narrow", Kind: dataset.Numeric},
		},
		Classes: []string{"n", "y"},
	}
	cuts := make([]float64, 300)
	for i := range cuts {
		cuts[i] = float64(i)
	}
	qz, err := NewQuantizer(schema, []QuantAttr{
		{Cuts: cuts, Max: 300},
		{Cuts: []float64{5}, Max: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	if qz.RecordBytes() != 2+1+2 {
		t.Fatalf("RecordBytes = %d, want 5", qz.RecordBytes())
	}
	path := filepath.Join(t.TempDir(), "wide.rec")
	w, err := CreateQuantFile(path, qz)
	if err != nil {
		t.Fatal(err)
	}
	n := 400
	for i := 0; i < n; i++ {
		if err := w.Append([]float64{float64(i) - 50.5, float64(i % 11)}, i%2); err != nil {
			t.Fatal(err)
		}
	}
	qf, err := w.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint16, 2)
	err = qf.ScanCodes(func(rid int, codes []uint16, label int) error {
		qz.Encode([]float64{float64(rid) - 50.5, float64(rid % 11)}, want)
		if codes[0] != want[0] || codes[1] != want[1] || label != rid%2 {
			t.Fatalf("record %d: codes %v label %d, want %v %d", rid, codes, label, want, rid%2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQuantCorruptPageDetected flips one payload byte and checks both code
// scan entry points surface ErrCorrupt with page accounting, while clean
// prefixes stay readable — the CRC path is shared with File verbatim.
func TestQuantCorruptPageDetected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.rec")
	qf, _, _ := writeTestQuantFile(t, path, 5000, 16)

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("ScanCodes", func(t *testing.T) {
		qf.ResetStats()
		err := qf.ScanCodes(func(int, []uint16, int) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if st := qf.Stats(); st.CorruptPages != 1 {
			t.Errorf("CorruptPages = %d, want 1", st.CorruptPages)
		}
	})
	t.Run("ScanCodesRange", func(t *testing.T) {
		var st Stats
		err := qf.ScanCodesRange(4900, 5000, &st, func(int, []uint16, int) error { return nil })
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("err = %v, want ErrCorrupt", err)
		}
		if st.CorruptPages != 1 {
			t.Errorf("CorruptPages = %d, want 1", st.CorruptPages)
		}
	})
	t.Run("CleanPrefixStillReadable", func(t *testing.T) {
		var st Stats
		n := 0
		err := qf.ScanCodesRange(0, 300, &st, func(int, []uint16, int) error { n++; return nil })
		if err != nil || n != 300 {
			t.Fatalf("clean-prefix range: err=%v n=%d", err, n)
		}
		if st.CorruptPages != 0 {
			t.Errorf("CorruptPages = %d on a clean range", st.CorruptPages)
		}
	})
}

// TestOpenQuantFileRejectsBadInputs is the corruption table for the CMPDQ1
// header, plus the cross-format guards: a raw store refused by OpenQuantFile,
// a quantized store refused by OpenFile (with a pointer to the right opener).
func TestOpenQuantFileRejectsBadInputs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "good.rec")
	writeTestQuantFile(t, path, 100, 16)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}},
		{"truncated magic", func(b []byte) []byte { return b[:3] }},
		{"truncated header length", func(b []byte) []byte { return b[:len(magicQ1)+2] }},
		{"truncated header", func(b []byte) []byte { return b[:len(magicQ1)+4+5] }},
		{"truncated data", func(b []byte) []byte { return b[:len(b)-10] }},
		{"header not json", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(magicQ1)+4] = '!'
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, "bad.rec")
			if err := os.WriteFile(p, tc.mutate(good), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenQuantFile(p); err == nil {
				t.Error("malformed file accepted")
			}
		})
	}

	t.Run("raw store refused", func(t *testing.T) {
		p := filepath.Join(dir, "raw.rec")
		writeTestFile(t, p, 10, FormatV2)
		if _, err := OpenQuantFile(p); err == nil {
			t.Error("OpenQuantFile accepted a raw CMPDT2 store")
		}
	})
	t.Run("quant store refused by OpenFile", func(t *testing.T) {
		if _, err := OpenFile(path); err == nil {
			t.Error("OpenFile accepted a CMPDQ1 store")
		}
	})
	t.Run("header without quant tables", func(t *testing.T) {
		// Splice a CMPDQ1 magic onto a raw store's header: tables absent.
		p := filepath.Join(dir, "raw2.rec")
		writeTestFile(t, p, 10, FormatV2)
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		copy(raw, magicQ1)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenQuantFile(p); err == nil {
			t.Error("quant store without tables accepted")
		}
	})
}

// TestQuantWriterLifecycle pins the Close/Abort contract for QuantWriter.
func TestQuantWriterLifecycle(t *testing.T) {
	tbl := testTable(t, 3)
	qz := testQuantizer(t, tbl, 4)

	t.Run("AppendAfterClose", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "w.rec")
		w, err := CreateQuantFile(path, qz)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(tbl.Row(0), tbl.Label(0)); err != nil {
			t.Fatal(err)
		}
		f1, err1 := w.Close()
		if err1 != nil {
			t.Fatal(err1)
		}
		if err := w.Append(tbl.Row(1), tbl.Label(1)); !errors.Is(err, ErrWriterClosed) {
			t.Errorf("Append after Close: err = %v, want ErrWriterClosed", err)
		}
		f2, err2 := w.Close()
		if f2 != f1 || err2 != err1 {
			t.Error("second Close did not return the first result")
		}
		if f1.NumRecords() != 1 {
			t.Errorf("NumRecords = %d, want 1", f1.NumRecords())
		}
	})

	t.Run("Abort", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "a.rec")
		w, err := CreateQuantFile(path, qz)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(tbl.Row(0), tbl.Label(0)); err != nil {
			t.Fatal(err)
		}
		w.Abort()
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("partial file survives Abort: %v", err)
		}
		if err := w.Append(tbl.Row(1), tbl.Label(1)); !errors.Is(err, ErrWriterClosed) {
			t.Errorf("Append after Abort: err = %v, want ErrWriterClosed", err)
		}
		w.Abort() // second Abort is a no-op
	})

	t.Run("Validation", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "v.rec")
		w, err := CreateQuantFile(path, qz)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Abort()
		if err := w.Append([]float64{1}, 0); err == nil {
			t.Error("wrong arity accepted")
		}
		if err := w.Append([]float64{1, 2, 0}, 5); err == nil {
			t.Error("bad label accepted")
		}
		if err := w.Append([]float64{math.NaN(), 2, 0}, 1); err == nil {
			t.Error("NaN numeric accepted")
		}
		if err := w.Append([]float64{1, 2, 7}, 1); err == nil {
			t.Error("out-of-range category accepted")
		}
		if err := w.AppendCodes([]uint16{0}, 0); err == nil {
			t.Error("wrong code arity accepted")
		}
		if err := w.AppendCodes([]uint16{math.MaxUint16, 0, 0}, 0); err == nil {
			t.Error("out-of-range code accepted")
		}
		if err := w.Append([]float64{1, 2, 0}, 1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQuantMemWeighted: a store of rows carrying multiplicities scans each
// row once, reports its multiplicities, and meters every pass — whole,
// ranged, parallel and aborted — like the same pass over its expansion.
func TestQuantMemWeighted(t *testing.T) {
	tbl := testTable(t, 200)
	qz := testQuantizer(t, tbl, 16)
	weighted, expanded := NewQuantMemCap(qz, 10), NewQuantMem(qz)
	codes := make([]uint16, qz.NumAttrs())
	var want []uint32
	for i := 0; i < tbl.NumRecords(); i++ {
		qz.Encode(tbl.Row(i), codes)
		mult := uint32(1 + i%4)
		if i < 5 {
			mult = 1 // the store turns weighted at the first multiplicity above 1
		}
		if err := weighted.AppendCodesN(codes, tbl.Label(i), mult); err != nil {
			t.Fatal(err)
		}
		if i == 4 && weighted.Weights() != nil {
			t.Fatal("a store of unit rows reports weights")
		}
		want = append(want, mult)
		for m := mult; m > 0; m-- {
			if err := expanded.AppendCodes(codes, tbl.Label(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := weighted.AppendCodesN(codes, 0, 0); err == nil {
		t.Fatal("AppendCodesN accepted multiplicity 0")
	}
	if weighted.NumRecords() != 200 || weighted.WeightedRecords() != int64(expanded.NumRecords()) {
		t.Fatalf("%d rows standing for %d records, want 200 for %d", weighted.NumRecords(), weighted.WeightedRecords(), expanded.NumRecords())
	}
	for i, w := range weighted.Weights() {
		if w != want[i] {
			t.Fatalf("row %d weight %d, want %d", i, w, want[i])
		}
	}

	rows := 0
	if err := weighted.ScanCodes(func(rid int, _ []uint16, _ int) error {
		if rid != rows {
			t.Fatalf("row %d delivered as rid %d", rows, rid)
		}
		rows++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := expanded.ScanCodes(func(int, []uint16, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if rows != 200 || weighted.Stats() != expanded.Stats() {
		t.Fatalf("scan visited %d rows with Stats %+v; want 200 rows and the expansion's %+v", rows, weighted.Stats(), expanded.Stats())
	}

	// offset(row) is the expansion's index of row's first copy: a ranged
	// pass and an aborted one are metered against the matching expanded
	// passes.
	offset := func(row int) int {
		n := 0
		for _, w := range want[:row] {
			n += int(w)
		}
		return n
	}
	var gotRange, wantRange Stats
	if err := weighted.ScanCodesRange(30, 120, &gotRange, func(int, []uint16, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := expanded.ScanCodesRange(offset(30), offset(120), &wantRange, func(int, []uint16, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if gotRange != wantRange {
		t.Errorf("ranged pass Stats %+v, expansion's %+v", gotRange, wantRange)
	}
	stop := errors.New("stop")
	weighted.ResetStats()
	expanded.ResetStats()
	if err := weighted.ScanCodes(func(rid int, _ []uint16, _ int) error {
		if rid == 77 {
			return stop
		}
		return nil
	}); err != stop {
		t.Fatal(err)
	}
	seen := 0
	if err := expanded.ScanCodes(func(int, []uint16, int) error {
		if seen++; seen == offset(78) {
			return stop
		}
		return nil
	}); err != stop {
		t.Fatal(err)
	}
	if weighted.Stats() != expanded.Stats() {
		t.Errorf("aborted pass Stats %+v, expansion's %+v", weighted.Stats(), expanded.Stats())
	}

	weighted.ResetStats()
	if err := ParallelScanCodes(context.Background(), weighted, 3, func(int, int, []uint16, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	expanded.ResetStats()
	if err := expanded.ScanCodes(func(int, []uint16, int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if weighted.Stats() != expanded.Stats() {
		t.Errorf("parallel pass Stats %+v, expansion's serial %+v", weighted.Stats(), expanded.Stats())
	}
}
