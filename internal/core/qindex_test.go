package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cmpdt/internal/dataset"
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
// code records, labels and skip count, or its error.
type quantOutcome struct {
	err     string
	tables  []storage.QuantAttr
	codes   []uint16
	labels  []int
	skipped int64
}

// newTestQBuilder is a qbuilder ready for its quantize step.
func newTestQBuilder(t testing.TB, schema *dataset.Schema, cfg Config) *qbuilder {
	t.Helper()
	cfg, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	return &qbuilder{
		ctx:     context.Background(),
		cfg:     cfg,
		schema:  schema,
		na:      schema.NumAttrs(),
		nc:      schema.NumClasses(),
		numeric: schema.NumericAttrs(),
	}
}

func outcomeOf(t testing.TB, b *qbuilder, err error) quantOutcome {
	t.Helper()
	if err != nil {
		return quantOutcome{err: err.Error()}
	}
	o := quantOutcome{tables: b.q.Tables(), skipped: b.stats.SkippedRecords}
	if err := b.qsrc.ScanCodes(func(_ int, codes []uint16, label int) error {
		o.codes = append(o.codes, codes...)
		o.labels = append(o.labels, label)
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
// heavily tied values, invalid records under both validation modes, and
// samples below, above and without a cap (GK sketches), the index walk
// yields the same Quantizer tables, code records, labels, skip count and
// strict-mode error text as discretize+encode over the masked view.
func TestIndexWalkMatchesDiscretizeEncode(t *testing.T) {
	strictOK, strictErr := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		n := 50 + int(seed)*37
		invalidPct := []int{0, 1, 5}[seed%3]
		in := genIndexInput(seed, n, invalidPct, 35, 25)
		total := in.mask.Len()
		for _, sample := range []int{total / 3, total, 2*total + 1, -1} {
			for _, bins := range []int{2, 7, 40} {
				for _, v := range []ValidationPolicy{ValidateStrict, ValidateSkip} {
					cfg := Default(CMPB)
					cfg.Quantize = true
					cfg.QuantizeBins = bins
					cfg.DiscretizeSample = sample
					cfg.Validation = v
					want, got := quantizeBoth(t, in, cfg)
					if d := diffOutcomes(want, got); d != "" {
						t.Fatalf("seed %d n=%d sample=%d bins=%d validation=%d: %s", seed, n, sample, bins, v, d)
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
		got := sortEntries(col)
		for i := range want {
			if got[i].u != want[i].u || math.Float64bits(got[i].v) != math.Float64bits(want[i].v) {
				t.Fatalf("n=%d position %d: (%v, %d), want (%v, %d)", n, i, got[i].v, got[i].u, want[i].v, want[i].u)
			}
		}
	}
}

// FuzzIndexWalk is TestIndexWalkMatchesDiscretizeEncode over fuzzed
// inputs.
func FuzzIndexWalk(f *testing.F) {
	f.Add(int64(1), uint16(200), uint8(5), uint8(30), uint8(20), uint8(8), int16(50), false)
	f.Add(int64(2), uint16(90), uint8(0), uint8(0), uint8(0), uint8(2), int16(-1), true)
	f.Add(int64(3), uint16(400), uint8(20), uint8(60), uint8(40), uint8(64), int16(0), false)
	f.Add(int64(4), uint16(1), uint8(0), uint8(0), uint8(0), uint8(3), int16(1), true)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, invalidPct, zeroPct, heavy, bins uint8, sample int16, skip bool) {
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
		want, got := quantizeBoth(t, in, cfg)
		if d := diffOutcomes(want, got); d != "" {
			t.Fatal(d)
		}
	})
}
