package core

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/quantile"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// discretizeOutcome is what one discretize call returns: per attribute the
// cut points as bits, the observed domain, and the error text.
type discretizeOutcome struct {
	cuts   [][]uint64
	lo, hi []float64
	err    string
}

func discretizeWith(t *testing.T, src storage.Source, cfg Config, bins int) discretizeOutcome {
	t.Helper()
	b := newTestQBuilder(t, src.Schema(), cfg)
	disc, lo, hi, err := b.discretize(src, b.cutAttrs, bins)
	if err != nil {
		return discretizeOutcome{err: err.Error()}
	}
	o := discretizeOutcome{cuts: make([][]uint64, len(disc)), lo: lo, hi: hi}
	for a, d := range disc {
		if d == nil {
			continue
		}
		for _, c := range d.Cuts() {
			o.cuts[a] = append(o.cuts[a], math.Float64bits(c))
		}
	}
	return o
}

// TestDiscretizeParallelMatchesSerial builds the per-attribute
// discretizers at Workers 1, 2 and 8, from a prefix sample, the whole
// table and Greenwald-Khanna sketches: the cuts must be equal bit for bit.
// The serial sample cuts must also be the ones sort.Float64s and
// EqualDepthSorted give over the same sample (the table holds no zero, so
// no zero sign can differ). A table with no valid record fails every
// attribute, and every worker count names the lowest one.
func TestDiscretizeParallelMatchesSerial(t *testing.T) {
	tbl := synth.Generate(synth.F7, 6000, 11)
	src := storage.NewMem(tbl)
	for _, sample := range []int{0, 2500, -1} {
		for _, bins := range []int{2, 16, 300} {
			name := fmt.Sprintf("sample %d bins %d", sample, bins)
			var want discretizeOutcome
			for _, w := range []int{1, 2, 8} {
				cfg := Default(CMPB)
				cfg.Quantize = true
				cfg.DiscretizeSample = sample
				cfg.Workers = w
				got := discretizeWith(t, src, cfg, bins)
				if got.err != "" {
					t.Fatalf("%s workers %d: %s", name, w, got.err)
				}
				if w == 1 {
					want = got
					if sample >= 0 {
						checkSampleCuts(t, name, tbl, sample, bins, got)
					}
					continue
				}
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: workers %d discretize differently from workers 1", name, w)
				}
			}
		}
	}

	small := synth.Generate(synth.F7, 50, 12)
	bad := &corruptSource{Mem: storage.NewMem(small), bad: map[int]func([]float64, int) ([]float64, int){}}
	for rid := 0; rid < small.NumRecords(); rid++ {
		bad.bad[rid] = func(vals []float64, label int) ([]float64, int) {
			vals[0] = math.NaN()
			return vals, label
		}
	}
	wantErr := fmt.Sprintf("core: discretizing %s:", tbl.Schema().Attrs[tbl.Schema().NumericAttrs()[0]].Name)
	for _, sample := range []int{0, -1} {
		var want string
		for _, w := range []int{1, 2, 8} {
			cfg := Default(CMPB)
			cfg.Quantize = true
			cfg.Validation = ValidateSkip
			cfg.DiscretizeSample = sample
			cfg.Workers = w
			got := discretizeWith(t, bad, cfg, 16)
			if w == 1 {
				want = got.err
			} else if got.err != want {
				t.Fatalf("sample %d workers %d: error %q, want %q", sample, w, got.err, want)
			}
		}
		if !strings.HasPrefix(want, wantErr) {
			t.Fatalf("sample %d: error %q does not name the lowest attribute", sample, want)
		}
	}
}

// checkSampleCuts recomputes the sample path's cuts with a comparison sort.
func checkSampleCuts(t *testing.T, name string, tbl *dataset.Table, sample, bins int, got discretizeOutcome) {
	t.Helper()
	n := tbl.NumRecords()
	if sample > 0 && sample < n {
		n = sample
	}
	for _, a := range tbl.Schema().NumericAttrs() {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = tbl.Row(i)[a]
		}
		sort.Float64s(vals)
		d, err := quantile.EqualDepthSorted(vals, bins)
		if err != nil {
			t.Fatal(err)
		}
		var bits []uint64
		for _, c := range d.Cuts() {
			bits = append(bits, math.Float64bits(c))
		}
		if fmt.Sprint(bits) != fmt.Sprint(got.cuts[a]) {
			t.Fatalf("%s: attribute %d cuts differ from a comparison sort's", name, a)
		}
	}
}
