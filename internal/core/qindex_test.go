package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/quantile"
	"cmpdt/internal/storage"
)

// indexSchema mixes a continuous, a heavily tied and a near-constant
// numeric attribute with two categorical ones.
func indexSchema() *dataset.Schema {
	return &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Numeric},
			{Name: "ties", Kind: dataset.Numeric},
			{Name: "c", Kind: dataset.Categorical, Values: []string{"a", "b", "c"}},
			{Name: "flat", Kind: dataset.Numeric},
			{Name: "d", Kind: dataset.Categorical, Values: []string{"p", "q", "r", "s", "t"}},
		},
		Classes: []string{"k0", "k1", "k2"},
	}
}

// indexInput is one differential input: a raw store with some records
// damaged past validity, and a bootstrap-like mask over it.
type indexInput struct {
	src  *corruptSource
	mask *storage.Mask
}

// genIndexInput draws n records; about invalidPct percent are damaged (NaN,
// infinite, out-of-domain category, out-of-range label). Mask counts are 0
// for about zeroPct percent of records and otherwise 1-3, with a few
// records drawn up to heavy times.
func genIndexInput(seed int64, n, invalidPct, zeroPct, heavy int) indexInput {
	rng := rand.New(rand.NewSource(seed))
	schema := indexSchema()
	tbl := dataset.MustNew(schema)
	vals := make([]float64, schema.NumAttrs())
	for i := 0; i < n; i++ {
		vals[0] = math.Round(rng.NormFloat64()*1000) / 8
		vals[1] = float64(rng.Intn(4))
		vals[2] = float64(rng.Intn(3))
		vals[3] = 7
		if rng.Intn(10) == 0 {
			vals[3] = float64(rng.Intn(5))
		}
		vals[4] = float64(rng.Intn(5))
		if err := tbl.Append(vals, rng.Intn(3)); err != nil {
			panic(err)
		}
	}
	damage := []func(v []float64, l int) ([]float64, int){
		func(v []float64, l int) ([]float64, int) { v[0] = math.NaN(); return v, l },
		func(v []float64, l int) ([]float64, int) { v[1] = math.Inf(1); return v, l },
		func(v []float64, l int) ([]float64, int) { v[3] = math.Inf(-1); return v, l },
		func(v []float64, l int) ([]float64, int) { v[2] = 3; return v, l },
		func(v []float64, l int) ([]float64, int) { v[4] = 1.5; return v, l },
		func(v []float64, l int) ([]float64, int) { return v, 3 },
		func(v []float64, l int) ([]float64, int) { return v, -1 },
	}
	bad := map[int]func([]float64, int) ([]float64, int){}
	for i := 0; i < n; i++ {
		if rng.Intn(100) < invalidPct {
			bad[i] = damage[rng.Intn(len(damage))]
		}
	}
	counts := make([]uint32, n)
	for i := range counts {
		switch {
		case rng.Intn(100) < zeroPct:
		case heavy > 0 && rng.Intn(20) == 0:
			counts[i] = uint32(1 + rng.Intn(heavy))
		default:
			counts[i] = uint32(1 + rng.Intn(3))
		}
	}
	return indexInput{
		src:  &corruptSource{Mem: storage.NewMem(tbl), bad: bad},
		mask: storage.NewMask(counts),
	}
}

// quantOutcome is everything a quantize step hands the build: its tables,
// code records, labels and skip count, or its error. A weighted store's
// rows are expanded in row order, each repeated as often as it is
// weighted; rows counts them unexpanded.
type quantOutcome struct {
	err     string
	tables  []storage.QuantAttr
	codes   []uint16
	labels  []int
	skipped int64
	rows    int
}

// newTestQBuilder is a qbuilder ready for its quantize step.
func newTestQBuilder(t testing.TB, schema *dataset.Schema, cfg Config) *qbuilder {
	t.Helper()
	cfg, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := newQBuilder(context.Background(), schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func outcomeOf(t testing.TB, b *qbuilder, err error) quantOutcome {
	t.Helper()
	if err != nil {
		return quantOutcome{err: err.Error()}
	}
	o := quantOutcome{tables: b.q.Tables(), skipped: b.stats.SkippedRecords}
	var weights []uint32
	if qm, ok := b.qsrc.(*storage.QuantMem); ok {
		weights = qm.Weights()
	}
	if err := b.qsrc.ScanCodes(func(rid int, codes []uint16, label int) error {
		o.rows++
		mult := uint32(1)
		if weights != nil {
			mult = weights[rid]
		}
		for ; mult > 0; mult-- {
			o.codes = append(o.codes, codes...)
			o.labels = append(o.labels, label)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return o
}

// quantizeBoth quantizes the masked view of in through discretize+encode
// and through an index walk.
func quantizeBoth(t testing.TB, in indexInput, cfg Config) (want, got quantOutcome) {
	t.Helper()
	schema := in.src.Schema()
	view, err := storage.NewMasked(in.src, in.mask)
	if err != nil {
		t.Fatal(err)
	}
	bw := newTestQBuilder(t, schema, cfg)
	cleanup, err := bw.quantizeSource(view)
	if cleanup != nil {
		defer cleanup()
	}
	want = outcomeOf(t, bw, err)

	ix, err := NewIndex(context.Background(), in.src, 2)
	if err != nil {
		t.Fatal(err)
	}
	bg := newTestQBuilder(t, schema, cfg)
	got = outcomeOf(t, bg, bg.quantizeIndexed(ix, in.mask))
	return want, got
}

// drawnValid is the number of distinct valid records in's mask draws: the
// rows an index walk writes.
func drawnValid(in indexInput) int {
	n := 0
	for u := 0; u < in.mask.NumSource(); u++ {
		if in.mask.Count(u) > 0 && in.src.bad[u] == nil {
			n++
		}
	}
	return n
}

// weightedDefect checks that a successful index walk wrote one row per
// distinct valid record drawn. It describes a mismatch, or returns "".
func weightedDefect(in indexInput, o quantOutcome) string {
	if o.err != "" {
		return ""
	}
	if want := drawnValid(in); o.rows != want {
		return fmt.Sprintf("index walk wrote %d rows for %d distinct valid records drawn", o.rows, want)
	}
	return ""
}

// subsetOf returns the attributes of na whose bit is set in bits, or nil
// (every attribute may split) when none is.
func subsetOf(bits uint, na int) []int {
	var attrs []int
	for a := 0; a < na; a++ {
		if bits&(1<<uint(a)) != 0 {
			attrs = append(attrs, a)
		}
	}
	return attrs
}

// oneCodeDefect checks the one-code rule on a successful outcome: a numeric
// attribute outside cfg.SplitAttrs has a cut-less table and code 0 in every
// record. It describes the first violation, or returns "".
func oneCodeDefect(schema *dataset.Schema, cfg Config, o quantOutcome) string {
	na := schema.NumAttrs()
	allowed, err := SplitAttrMask(cfg.SplitAttrs, na)
	if err != nil {
		return err.Error()
	}
	if o.err != "" || allowed == nil {
		return ""
	}
	for _, a := range schema.NumericAttrs() {
		if allowed[a] {
			continue
		}
		if len(o.tables[a].Cuts) != 0 {
			return fmt.Sprintf("attribute %d may not split but has %d cuts", a, len(o.tables[a].Cuts))
		}
		for i := a; i < len(o.codes); i += na {
			if o.codes[i] != 0 {
				return fmt.Sprintf("attribute %d may not split but record %d has code %d", a, i/na, o.codes[i])
			}
		}
	}
	return ""
}

// diffOutcomes describes the first difference, or returns "".
func diffOutcomes(want, got quantOutcome) string {
	if want.err != got.err {
		return fmt.Sprintf("error %q, discretize+encode %q", got.err, want.err)
	}
	if want.skipped != got.skipped {
		return fmt.Sprintf("skipped %d, discretize+encode %d", got.skipped, want.skipped)
	}
	if len(want.tables) != len(got.tables) {
		return fmt.Sprintf("%d tables, discretize+encode %d", len(got.tables), len(want.tables))
	}
	for a := range want.tables {
		w, g := want.tables[a], got.tables[a]
		if math.Float64bits(w.Max) != math.Float64bits(g.Max) || len(w.Cuts) != len(g.Cuts) {
			return fmt.Sprintf("attribute %d: max %v with %d cuts, discretize+encode %v with %d", a, g.Max, len(g.Cuts), w.Max, len(w.Cuts))
		}
		for i := range w.Cuts {
			if math.Float64bits(w.Cuts[i]) != math.Float64bits(g.Cuts[i]) {
				return fmt.Sprintf("attribute %d cut %d: %v, discretize+encode %v", a, i, g.Cuts[i], w.Cuts[i])
			}
		}
	}
	if len(want.labels) != len(got.labels) {
		return fmt.Sprintf("%d code records, discretize+encode %d", len(got.labels), len(want.labels))
	}
	for i := range want.labels {
		if want.labels[i] != got.labels[i] {
			return fmt.Sprintf("record %d: label %d, discretize+encode %d", i, got.labels[i], want.labels[i])
		}
	}
	for i := range want.codes {
		if want.codes[i] != got.codes[i] {
			return fmt.Sprintf("code %d: %d, discretize+encode %d", i, got.codes[i], want.codes[i])
		}
	}
	return ""
}

// TestIndexWalkMatchesDiscretizeEncode holds the forest quantize path to
// the streaming one: over random masks with zero and heavy multiplicities,
// heavily tied values, invalid records under both validation modes,
// samples below, above and without a cap (GK sketches), and random
// SplitAttrs subsets, the index walk yields the same Quantizer tables, code
// records, labels, skip count and strict-mode error text as
// discretize+encode over the masked view, and both give every numeric
// attribute outside the subset one bin.
func TestIndexWalkMatchesDiscretizeEncode(t *testing.T) {
	strictOK, strictErr := 0, 0
	rng := rand.New(rand.NewSource(20))
	for seed := int64(1); seed <= 12; seed++ {
		n := 50 + int(seed)*37
		invalidPct := []int{0, 1, 5}[seed%3]
		in := genIndexInput(seed, n, invalidPct, 35, 25)
		schema := in.src.Schema()
		total := in.mask.Len()
		for _, sample := range []int{total / 3, total, 2*total + 1, -1} {
			for _, bins := range []int{2, 7, 40} {
				for _, v := range []ValidationPolicy{ValidateStrict, ValidateSkip} {
					cfg := Default(CMPB)
					cfg.Quantize = true
					cfg.QuantizeBins = bins
					cfg.DiscretizeSample = sample
					cfg.Validation = v
					cfg.SplitAttrs = subsetOf(uint(rng.Intn(1<<schema.NumAttrs())), schema.NumAttrs())
					want, got := quantizeBoth(t, in, cfg)
					if d := diffOutcomes(want, got); d != "" {
						t.Fatalf("seed %d n=%d sample=%d bins=%d validation=%d split attrs %v: %s", seed, n, sample, bins, v, cfg.SplitAttrs, d)
					}
					if d := oneCodeDefect(schema, cfg, got) + weightedDefect(in, got); d != "" {
						t.Fatalf("seed %d n=%d sample=%d bins=%d validation=%d split attrs %v: %s", seed, n, sample, bins, v, cfg.SplitAttrs, d)
					}
					if v == ValidateStrict {
						if want.err != "" {
							strictErr++
						} else {
							strictOK++
						}
					}
				}
			}
		}
	}
	// The grid must reach both strict outcomes, or it proves less than it
	// claims.
	if strictOK == 0 || strictErr == 0 {
		t.Fatalf("strict cases: %d built, %d failed; want both", strictOK, strictErr)
	}
}

// TestIndexedStrictErrorNamesVirtualRecord pins the strict-mode error to
// the first invalid virtual record: with records 0-4 drawn twice each and
// record 3 invalid, the error names virtual record 6.
func TestIndexedStrictErrorNamesVirtualRecord(t *testing.T) {
	in := genIndexInput(3, 10, 0, 0, 0)
	in.src.bad = map[int]func([]float64, int) ([]float64, int){
		3: func(v []float64, l int) ([]float64, int) { v[1] = math.NaN(); return v, l },
		8: func(v []float64, l int) ([]float64, int) { return v, 7 },
	}
	in.mask = storage.NewMask([]uint32{2, 2, 2, 2, 2, 0, 0, 0, 1, 0})
	ix, err := NewIndex(context.Background(), in.src, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default(CMPB)
	cfg.Workers = 1
	_, err = BuildIndexed(context.Background(), ix, in.mask, cfg)
	if err == nil || !strings.Contains(err.Error(), "record 6 invalid: attribute \"ties\" is NaN") {
		t.Fatalf("BuildIndexed error %v, want record 6's NaN", err)
	}
	cfg.Validation = ValidateSkip
	res, err := BuildIndexed(context.Background(), ix, in.mask, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SkippedRecords != 3 {
		t.Errorf("skipped %d virtual records, want 3", res.Stats.SkippedRecords)
	}
}

// TestDisallowedAttrStillValidated pins validation to every attribute: a
// NaN in a numeric attribute the tree may not split on, which gets no cut
// points, still fails a strict build and is still skipped under
// ValidateSkip, on both quantize paths.
func TestDisallowedAttrStillValidated(t *testing.T) {
	in := genIndexInput(4, 60, 0, 0, 0)
	in.src.bad = map[int]func([]float64, int) ([]float64, int){
		5: func(v []float64, l int) ([]float64, int) { v[3] = math.NaN(); return v, l },
	}
	in.mask = storage.FullMask(60)
	cfg := Default(CMPB)
	cfg.Quantize = true
	cfg.Workers = 1
	cfg.SplitAttrs = []int{0, 2} // not "flat", attribute 3
	want, got := quantizeBoth(t, in, cfg)
	if d := diffOutcomes(want, got); d != "" {
		t.Fatal(d)
	}
	if !strings.Contains(got.err, "record 5 invalid: attribute \"flat\" is NaN") {
		t.Fatalf("strict quantize error %q, want record 5's NaN", got.err)
	}
	ix, err := NewIndex(context.Background(), in.src, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildIndexed(context.Background(), ix, in.mask, cfg); err == nil {
		t.Fatal("strict BuildIndexed built over a NaN in an attribute it may not split on")
	}

	cfg.Validation = ValidateSkip
	want, got = quantizeBoth(t, in, cfg)
	if d := diffOutcomes(want, got); d != "" {
		t.Fatal(d)
	}
	if d := oneCodeDefect(in.src.Schema(), cfg, got); d != "" {
		t.Fatal(d)
	}
	if got.skipped != 1 || len(got.labels) != 59 {
		t.Fatalf("skipped %d records, kept %d; want 1 and 59", got.skipped, len(got.labels))
	}
	res, err := BuildIndexed(context.Background(), ix, in.mask, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SkippedRecords != 1 {
		t.Errorf("BuildIndexed skipped %d records, want 1", res.Stats.SkippedRecords)
	}
	if bins := res.Stats.QuantBinsPerAttr; bins[3] != 1 || bins[1] != 1 || bins[0] < 2 {
		t.Errorf("bins per attribute %v: want 1 for the numeric attributes outside SplitAttrs", bins)
	}
}

// TestIndexMemory pins the index's footprint: 12 bytes per numeric value,
// 2 per categorical value and 2 per label, plus the invalid-record list.
func TestIndexMemory(t *testing.T) {
	in := genIndexInput(5, 1000, 0, 0, 0)
	ix, err := NewIndex(context.Background(), in.src, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ix.memoryBytes(), int64(1000*(3*12+2*2+2)); got != want {
		t.Errorf("index holds %d bytes, want %d", got, want)
	}
	if s := ix.Stats(); s.Scans != 1 || s.RecordsRead != 1000 {
		t.Errorf("index I/O %+v, want one scan of 1000 records", s)
	}
	if s := in.src.Stats(); s.Scans != 0 || s.RecordsRead != 0 {
		t.Errorf("index build metered into the source's own counters: %+v", s)
	}
}

// serialIndex is NewIndex written plainly: one serial ScanRange over src
// and a comparison sort of each numeric attribute by (value, record id).
func serialIndex(t *testing.T, src storage.RangeSource) *Index {
	t.Helper()
	schema := src.Schema()
	n, na := src.NumRecords(), schema.NumAttrs()
	ix := &Index{schema: schema, n: n, labels: make([]uint16, n),
		rank: make([][]int32, na), sorted: make([][]float64, na), cat: make([][]uint16, na)}
	cols := make([][]indexEntry, na)
	for a := range schema.Attrs {
		if schema.Attrs[a].Kind == dataset.Categorical {
			ix.cat[a] = make([]uint16, n)
		}
	}
	err := src.ScanRange(0, n, &ix.stats, func(u int, vals []float64, label int) error {
		if d := schema.RecordDefect(vals, label); d != "" {
			ix.invalid = append(ix.invalid, int32(u))
			ix.defects = append(ix.defects, d)
			return nil
		}
		ix.labels[u] = uint16(label)
		for a, v := range vals {
			if ix.cat[a] != nil {
				ix.cat[a][u] = uint16(v)
			} else {
				cols[a] = append(cols[a], indexEntry{v, int32(u)})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ix.stats.Scans++
	for _, a := range schema.NumericAttrs() {
		col := cols[a]
		sort.Slice(col, func(i, j int) bool {
			if col[i].v != col[j].v {
				return col[i].v < col[j].v
			}
			return col[i].u < col[j].u
		})
		ix.rank[a] = make([]int32, n)
		for u := range ix.rank[a] {
			ix.rank[a][u] = -1
		}
		ix.sorted[a] = make([]float64, len(col))
		for r, e := range col {
			ix.sorted[a][r] = e.v
			ix.rank[a][e.u] = int32(r)
		}
	}
	return ix
}

// TestNewIndexParallelMatchesSerial holds the parallel index scan to a
// plain serial one: at 1, 2, 3 and 7 ranges, with invalid records at the
// first and last record of ranges and scattered between them, the labels,
// ranks, sorted values, categories, invalid list, defects and I/O Stats
// are identical.
func TestNewIndexParallelMatchesSerial(t *testing.T) {
	const n = 1000
	for _, invalidPct := range []int{0, 4} {
		in := genIndexInput(17, n, invalidPct, 0, 0)
		nan := func(v []float64, l int) ([]float64, int) { v[0] = math.NaN(); return v, l }
		for _, parallel := range []int{2, 3, 7} {
			for w := 0; w < parallel; w++ {
				in.src.bad[w*n/parallel] = nan
				in.src.bad[(w+1)*n/parallel-1] = nan
			}
		}
		want := serialIndex(t, in.src)
		if s := in.src.Stats(); s != (storage.Stats{}) {
			t.Fatalf("serial reference metered into the source: %+v", s)
		}
		for _, parallel := range []int{1, 2, 3, 7} {
			got, err := NewIndex(context.Background(), in.src, parallel)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("invalid %d%%, parallel %d", invalidPct, parallel)
			if !reflect.DeepEqual(got.labels, want.labels) {
				t.Errorf("%s: labels differ", name)
			}
			if !reflect.DeepEqual(got.rank, want.rank) || !reflect.DeepEqual(got.sorted, want.sorted) {
				t.Errorf("%s: ranks or sorted values differ", name)
			}
			if !reflect.DeepEqual(got.cat, want.cat) {
				t.Errorf("%s: categories differ", name)
			}
			if !reflect.DeepEqual(got.invalid, want.invalid) || !reflect.DeepEqual(got.defects, want.defects) {
				t.Errorf("%s: invalid records %v (%q), want %v (%q)", name, got.invalid, got.defects, want.invalid, want.defects)
			}
			if got.Stats() != want.Stats() {
				t.Errorf("%s: Stats %+v, want %+v", name, got.Stats(), want.Stats())
			}
			if s := in.src.Stats(); s != (storage.Stats{}) {
				t.Fatalf("%s: index build metered into the source: %+v", name, s)
			}
		}
	}
}

// TestSortEntries holds the radix sort to a comparison sort by (value,
// record id) over negative and positive values, both zeros, ties and
// extremes, down to the empty and single-entry columns.
func TestSortEntries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pool := []float64{math.Copysign(0, -1), 0, 1, -1, 0.5, -0.5, math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e300, -1e-300, 3, 3, 3}
	for _, n := range []int{0, 1, 2, 7, 300, 5000} {
		col := make([]indexEntry, n)
		for u := range col {
			v := pool[rng.Intn(len(pool))]
			if rng.Intn(2) == 0 {
				v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
			}
			col[u] = indexEntry{v, int32(u)}
		}
		want := append([]indexEntry(nil), col...)
		sort.Slice(want, func(i, j int) bool {
			if want[i].v != want[j].v {
				return want[i].v < want[j].v
			}
			return want[i].u < want[j].u
		})
		got := quantile.RadixSort(col, nil, entryValue)
		for i := range want {
			if got[i].u != want[i].u || math.Float64bits(got[i].v) != math.Float64bits(want[i].v) {
				t.Fatalf("n=%d position %d: (%v, %d), want (%v, %d)", n, i, got[i].v, got[i].u, want[i].v, want[i].u)
			}
		}
	}
}

// FuzzIndexWalk is TestIndexWalkMatchesDiscretizeEncode over fuzzed
// inputs; splitBits selects the SplitAttrs subset (0: every attribute).
func FuzzIndexWalk(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(5), uint8(30), uint8(20), uint8(8), int16(50), false, uint8(0))
	f.Add(int64(2), uint16(90), uint8(0), uint8(0), uint8(0), uint8(2), int16(-1), true, uint8(0b10101))
	f.Add(int64(3), uint16(400), uint8(20), uint8(60), uint8(40), uint8(64), int16(0), false, uint8(0b00100))
	f.Add(int64(4), uint16(1), uint8(0), uint8(0), uint8(0), uint8(3), int16(1), true, uint8(0b01010))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, invalidPct, zeroPct, heavy, bins uint8, sample int16, skip bool, splitBits uint8) {
		if n == 0 || n > 2000 || bins < 2 || zeroPct > 95 {
			return
		}
		in := genIndexInput(seed, int(n), int(invalidPct%101), int(zeroPct), int(heavy))
		if in.mask.Len() == 0 {
			return
		}
		cfg := Default(CMPB)
		cfg.Quantize = true
		cfg.QuantizeBins = int(bins)
		cfg.DiscretizeSample = int(sample)
		if skip {
			cfg.Validation = ValidateSkip
		}
		schema := in.src.Schema()
		cfg.SplitAttrs = subsetOf(uint(splitBits), schema.NumAttrs())
		want, got := quantizeBoth(t, in, cfg)
		if d := diffOutcomes(want, got); d != "" {
			t.Fatal(d)
		}
		if d := oneCodeDefect(schema, cfg, got) + weightedDefect(in, got); d != "" {
			t.Fatal(d)
		}
	})
}
