package forest

import (
	"context"
	"fmt"
	"math"
	"testing"

	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// defect overwrites one attribute's value.
type defect struct {
	attr int
	v    float64
}

// defectSource wraps a store and applies the listed records' defects on
// every scan, making them invalid.
type defectSource struct {
	storage.RangeSource
	bad map[int]defect
}

func (d *defectSource) ScanRange(lo, hi int, stats *storage.Stats, fn func(rid int, vals []float64, label int) error) error {
	return d.RangeSource.ScanRange(lo, hi, stats, func(rid int, vals []float64, label int) error {
		if b, ok := d.bad[rid]; ok {
			v := append([]float64(nil), vals...)
			v[b.attr] = b.v
			return fn(rid, v, label)
		}
		return fn(rid, vals, label)
	})
}

// TestForestIndexOOBMatchesFilePass: the out-of-bag estimate a quantized
// forest's trees vote from the index is, bit for bit, the one the
// out-of-bag pass over the store computes for the same trees and masks.
// It holds on every Agrawal function at two seeds and three tree-build
// concurrencies, and over a ValidateSkip store holding NaN, +Inf and
// out-of-range categorical records, which neither tally may score.
func TestForestIndexOOBMatchesFilePass(t *testing.T) {
	const n = 1500
	type source struct {
		name string
		src  storage.RangeSource
	}
	var sources []source
	for fn := synth.F1; fn <= synth.F10; fn++ {
		for _, seed := range []int64{1, 2} {
			sources = append(sources, source{fmt.Sprintf("%v/seed=%d", fn, seed), storage.NewMem(synth.Generate(fn, n, seed))})
		}
	}
	tbl := synth.Generate(synth.F7, n, 3)
	schema := tbl.Schema()
	cat := -1
	for a, at := range schema.Attrs {
		if at.Kind == dataset.Categorical {
			cat = a
			break
		}
	}
	// Every 7th record is damaged, by turns with a NaN, a +Inf and an
	// out-of-range category.
	kinds := []defect{{0, math.NaN()}, {0, math.Inf(1)}, {cat, float64(schema.Attrs[cat].Cardinality())}}
	damaged := &defectSource{RangeSource: storage.NewMem(tbl), bad: map[int]defect{}}
	for rid := 5; rid < n; rid += 7 {
		damaged.bad[rid] = kinds[rid%3]
	}
	sources = append(sources, source{"F7/damaged", damaged})

	for _, s := range sources {
		for _, parallel := range []int{1, 2, 8} {
			cfg := smallConfig(4)
			cfg.Tree.Quantize = true
			cfg.Tree.Validation = core.ValidateSkip
			cfg.Parallel = parallel
			res, err := Train(s.src, cfg)
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", s.name, parallel, err)
			}
			f := res.Forest
			masks := make([]*storage.Mask, cfg.Trees)
			for i := range masks {
				masks[i] = storage.BootstrapMask(n, treeSeed(cfg.Seed, 2*int64(i)))
			}
			file := *f
			file.OOBError, file.OOBCount = 0, 0
			var stats storage.Stats
			if err := computeOOB(context.Background(), s.src, &file, masks, parallel, &stats); err != nil {
				t.Fatal(err)
			}
			if file.OOBCount == 0 {
				t.Fatalf("%s: no out-of-bag record; the test proves nothing", s.name)
			}
			if f.OOBCount != file.OOBCount || math.Float64bits(f.OOBError) != math.Float64bits(file.OOBError) {
				t.Errorf("%s parallel=%d: index votes give OOB count %d error %v, the file pass %d and %v",
					s.name, parallel, f.OOBCount, f.OOBError, file.OOBCount, file.OOBError)
			}
		}
	}

	// The damaged records are out of bag for some tree, so both tallies
	// had to skip them.
	cfg := smallConfig(4)
	masks := make([]*storage.Mask, cfg.Trees)
	for i := range masks {
		masks[i] = storage.BootstrapMask(n, treeSeed(cfg.Seed, 2*int64(i)))
	}
	oob := map[int]int{}
	for rid := range damaged.bad {
		for _, m := range masks {
			if m.Count(rid) == 0 {
				oob[rid%3]++
				break
			}
		}
	}
	if len(oob) != len(kinds) {
		t.Fatalf("out-of-bag damaged records by defect kind: %v; every kind must be out of bag", oob)
	}
}
