package storage

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/quantile"
)

// FuzzOpenQuantFile throws arbitrary bytes at the CMPDQ1 header parser and,
// when a store is accepted, at both scanners: neither may panic. Seeds cover
// a real quantized store, its truncations, and malformed quant tables.
func FuzzOpenQuantFile(f *testing.F) {
	dir, err := os.MkdirTemp("", "fuzz-openquant")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })

	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Numeric},
			{Name: "b", Kind: dataset.Categorical, Values: []string{"u", "v"}},
		},
		Classes: []string{"n", "y"},
	}
	q, err := NewQuantizer(schema, []QuantAttr{
		{Cuts: []float64{10, 20, 30}, Max: 49},
		{},
	})
	if err != nil {
		f.Fatal(err)
	}
	seedPath := filepath.Join(dir, "seed.rec")
	w, err := CreateQuantFile(seedPath, q)
	if err != nil {
		f.Fatal(err)
	}
	for r := 0; r < 50; r++ {
		if err := w.Append([]float64{float64(r), float64(r % 2)}, r%2); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(append(append([]byte(nil), raw...), 0xff, 0xfe))
	f.Add(pastEOF(raw))
	f.Add(largeQuantStore(f, dir))
	f.Add([]byte(magicQ1))
	f.Add([]byte(magicQ1 + "\xff\xff\xff\xff"))
	f.Add([]byte(magicQ1 + "\x10\x00\x00\x00{\"schema\":null}"))
	f.Add([]byte(magicQ1 + "\x14\x00\x00\x00{\"quant\":[{},{},{}]}"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.rec")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		qf, err := OpenQuantFile(path)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		// Accepted stores must scan without panicking; errors are fine.
		_ = qf.ScanCodes(func(int, []uint16, int) error { return nil })
		_ = qf.Scan(func(int, []float64, int) error { return nil })
		var st Stats
		_ = qf.ScanCodesRange(1, qf.NumRecords(), &st, func(int, []uint16, int) error { return nil })
	})
}

// FuzzQuantRoundTrip drives arbitrary raw records through quantize → write →
// reopen → decode and checks the bin-coding identities: stored codes equal
// direct encoding, labels survive, and representatives re-encode to the same
// codes. This exercises both code widths and the record/page spanning logic.
func FuzzQuantRoundTrip(f *testing.F) {
	f.Add(float64(1), float64(-3), uint8(0), uint8(7))
	f.Add(float64(10), float64(1e9), uint8(1), uint8(200))
	f.Add(float64(-1e-9), float64(35), uint8(2), uint8(255))
	f.Add(math.MaxFloat64, -math.MaxFloat64, uint8(1), uint8(3))

	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "narrow", Kind: dataset.Numeric},
			{Name: "wide", Kind: dataset.Numeric},
			{Name: "cat", Kind: dataset.Categorical, Values: []string{"a", "b", "c"}},
		},
		Classes: []string{"n", "y"},
	}
	wideCuts := make([]float64, 400)
	for i := range wideCuts {
		wideCuts[i] = float64(i) * 2.5
	}
	f.Fuzz(func(t *testing.T, v0, v1 float64, cat, n8 uint8) {
		if math.IsNaN(v0) || math.IsNaN(v1) {
			t.Skip()
		}
		q, err := NewQuantizer(schema, []QuantAttr{
			{Cuts: []float64{-10, 0, 1, 64}, Max: 65},
			{Cuts: wideCuts, Max: wideCuts[len(wideCuts)-1] + 1},
			{},
		})
		if err != nil {
			t.Fatal(err)
		}
		n := int(n8)%200 + 1
		path := filepath.Join(t.TempDir(), "rt.rec")
		w, err := CreateQuantFile(path, q)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([][]float64, n)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			rows[i] = []float64{v0 + float64(i), v1 - float64(i)*0.5, float64(int(cat) % 3)}
			labels[i] = i % 2
			if err := w.Append(rows[i], labels[i]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.Close(); err != nil {
			t.Fatal(err)
		}
		qf, err := OpenQuantFile(path)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint16, 3)
		re := make([]uint16, 3)
		vals := make([]float64, 3)
		count := 0
		err = qf.ScanCodes(func(rid int, codes []uint16, label int) error {
			q.Encode(rows[rid], want)
			for a := range codes {
				if codes[a] != want[a] {
					t.Fatalf("record %d attr %d: code %d, want %d", rid, a, codes[a], want[a])
				}
			}
			if label != labels[rid] {
				t.Fatalf("record %d: label %d, want %d", rid, label, labels[rid])
			}
			qf.Quantizer().Decode(codes, vals)
			qf.Quantizer().Encode(vals, re)
			for a := range re {
				if re[a] != codes[a] {
					t.Fatalf("record %d attr %d: representative re-encodes to %d, want %d", rid, a, re[a], codes[a])
				}
			}
			count++
			return nil
		})
		if err != nil || count != n {
			t.Fatalf("scan err=%v count=%d want=%d", err, count, n)
		}
	})
}

// fuzzCuts draws n strictly ascending finite cuts of the given shape:
// spread uniformly, a few ULPs apart around x, clustered with widely
// varying gaps, straddling both zeros among subnormals, or spanning the
// whole float range.
func fuzzCuts(rng *rand.Rand, n int, shape uint8, x float64) []float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e300 {
		x = 0
	}
	cuts := make([]float64, 0, n)
	v := x
	for len(cuts) < n {
		switch shape % 5 {
		case 0:
			v += 1 + rng.Float64()*10
		case 1:
			for k := rng.Intn(3); k >= 0; k-- {
				v = math.Nextafter(v, math.Inf(1))
			}
		case 2:
			v += math.Pow(10, float64(rng.Intn(12)-6))
		case 3:
			if len(cuts) == 0 {
				v = -float64(n/2) * math.SmallestNonzeroFloat64
			}
			v = math.Nextafter(v, math.Inf(1))
		default:
			v = -1e300 + 2e300*float64(len(cuts)+1)/float64(n+1)
		}
		if len(cuts) > 0 && v <= cuts[len(cuts)-1] {
			// A step too small to move v, or a zero crossing: take the
			// next float up instead.
			v = math.Nextafter(cuts[len(cuts)-1], math.Inf(1))
		}
		cuts = append(cuts, v)
	}
	return cuts
}

// FuzzQuantizerEncode holds Encode's grid search to sort.SearchFloat64s
// over every cut, the values one ULP either side of it, the midpoints
// between cuts, both zeros, both infinities, NaN, values outside the cut
// range and random values inside it, for one-cut tables up to 65535 cuts.
// The same probes hold quantile.Discretizer.Interval to the search over
// discretizers made by FromCuts, EqualDepth, EqualWidth and Slice.
func FuzzQuantizerEncode(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(0), 0.0)
	f.Add(int64(2), uint16(1), uint8(1), 1.5)
	f.Add(int64(3), uint16(200), uint8(1), -3.0)
	f.Add(int64(4), uint16(700), uint8(2), 1e6)
	f.Add(int64(5), uint16(40), uint8(3), 0.0)
	f.Add(int64(6), uint16(99), uint8(4), 0.0)
	f.Add(int64(7), uint16(65534), uint8(0x80), 7.0)
	f.Fuzz(func(t *testing.T, seed int64, ncuts uint16, shape uint8, x float64) {
		n := 1 + int(ncuts)%4096
		if shape&0x80 != 0 {
			n = 1 + int(min(ncuts, 65534))
		}
		rng := rand.New(rand.NewSource(seed))
		cuts := fuzzCuts(rng, n, shape, x)
		schema := &dataset.Schema{
			Attrs:   []dataset.Attribute{{Name: "a", Kind: dataset.Numeric}},
			Classes: []string{"n", "y"},
		}
		last := cuts[len(cuts)-1]
		q, err := NewQuantizer(schema, []QuantAttr{{Cuts: cuts, Max: math.Nextafter(last, math.Inf(1))}})
		if err != nil {
			t.Fatal(err)
		}
		probes := []float64{math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), x,
			math.Nextafter(cuts[0], math.Inf(-1)), cuts[0] - 1, last + 1, -math.MaxFloat64, math.MaxFloat64}
		for i, c := range cuts {
			probes = append(probes, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
			if i > 0 {
				probes = append(probes, cuts[i-1]+(c-cuts[i-1])/2)
			}
		}
		for k := 0; k < 64; k++ {
			probes = append(probes, cuts[0]+(last-cuts[0])*rng.Float64())
		}
		codes := make([]uint16, 1)
		for _, v := range probes {
			q.Encode([]float64{v}, codes)
			if want := sort.SearchFloat64s(cuts, v); int(codes[0]) != want {
				t.Fatalf("%d cuts (shape %d): Encode(%v) = %d, want %d", n, shape%5, v, codes[0], want)
			}
		}
		probes = append(probes, math.NaN())
		for _, nd := range fuzzDiscretizers(t, rng, cuts) {
			dc := nd.d.Cuts()
			own := probes
			for _, c := range dc {
				own = append(own, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
			}
			for _, v := range own {
				if got, want := nd.d.Interval(v), sort.SearchFloat64s(dc, v); got != want {
					t.Fatalf("%s over %d cuts (shape %d): Interval(%v) = %d, want %d", nd.name, len(dc), shape%5, v, got, want)
				}
			}
		}
	})
}

// namedDiscretizer is one discretizer fuzzDiscretizers made, with how.
type namedDiscretizer struct {
	name string
	d    *quantile.Discretizer
}

// fuzzDiscretizers makes discretizers of every kind around cuts: over the
// cuts themselves, equal-depth over a sample of the cuts and the values
// between them, equal-width over the cuts' range and a slice of each.
func fuzzDiscretizers(t *testing.T, rng *rand.Rand, cuts []float64) []namedDiscretizer {
	t.Helper()
	d, err := quantile.FromCuts(cuts)
	if err != nil {
		t.Fatal(err)
	}
	out := []namedDiscretizer{{"FromCuts", d}}
	sample := make([]float64, 0, 2*len(cuts))
	for i, c := range cuts {
		sample = append(sample, c)
		if i > 0 && rng.Intn(2) == 0 {
			sample = append(sample, cuts[i-1]+(c-cuts[i-1])/2)
		}
	}
	q := 2 + rng.Intn(min(len(sample), 4096)+1)
	if d, err := quantile.EqualDepth(sample, q); err == nil {
		out = append(out, namedDiscretizer{"EqualDepth", d})
	}
	if d, err := quantile.EqualWidth(cuts[0], cuts[len(cuts)-1], q); err == nil {
		out = append(out, namedDiscretizer{"EqualWidth", d})
	}
	for _, nd := range out {
		if bins := nd.d.Bins(); bins >= 3 {
			lo := rng.Intn(bins - 1)
			out = append(out, namedDiscretizer{nd.name + ".Slice", nd.d.Slice(lo, lo+2+rng.Intn(bins-lo-1))})
		}
	}
	return out
}

// largeQuantStore returns a valid CMPDQ1 store whose header runs past
// 1 MiB (largeQuantizer's), holding two records.
func largeQuantStore(f *testing.F, dir string) []byte {
	path := filepath.Join(dir, "large.rec")
	w, err := CreateQuantFile(path, largeQuantizer(f))
	if err != nil {
		f.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		if err := w.Append([]float64{float64(r)}, r); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := w.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}
