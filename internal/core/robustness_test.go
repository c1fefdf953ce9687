package core

import (
	"fmt"
	"testing"

	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// TestRobustnessAcrossSeeds sweeps seeds, algorithms, workloads and both
// scan kernels with the structural validator armed: every build must
// complete without invariant violations and classify its training data
// well. This is the fuzz-ish net over the engine's frontier and the raw
// kernel's pending/nested/merge/revert machinery.
func TestRobustnessAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep")
	}
	debugValidate = true
	defer func() { debugValidate = false }()
	for _, quantize := range []bool{false, true} {
		for _, algo := range []Algorithm{CMPS, CMPB, CMPFull} {
			if quantize && algo == CMPFull {
				continue // rejected: no linear split is searched on codes
			}
			for _, fn := range []synth.Func{synth.F2, synth.F5, synth.F7, synth.FPaper} {
				for seed := int64(1); seed <= 4; seed++ {
					name := fmt.Sprintf("%v/%v/seed%d/quantize=%v", algo, fn, seed, quantize)
					tbl := synth.Generate(fn, 12_000, seed)
					cfg := Default(algo)
					cfg.Seed = seed
					cfg.Intervals = 32
					cfg.InMemoryNodeRecords = 700
					cfg.Quantize = quantize
					res, err := Build(storage.NewMem(tbl), cfg)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					correct := 0
					for i := 0; i < tbl.NumRecords(); i++ {
						if res.Tree.Predict(tbl.Row(i)) == tbl.Label(i) {
							correct++
						}
					}
					if acc := float64(correct) / float64(tbl.NumRecords()); acc < 0.90 {
						t.Errorf("%s: accuracy %.4f", name, acc)
					}
				}
			}
		}
	}
}

// TestTinyDatasets exercises the degenerate ends: the builders must handle
// datasets from one record up without panicking.
func TestTinyDatasets(t *testing.T) {
	for _, algo := range []Algorithm{CMPS, CMPB, CMPFull} {
		for _, n := range []int{1, 2, 3, 7, 50} {
			tbl := synth.Generate(synth.F2, n, 5)
			cfg := Default(algo)
			cfg.Intervals = 8
			res, err := Build(storage.NewMem(tbl), cfg)
			if err != nil {
				t.Fatalf("%v n=%d: %v", algo, n, err)
			}
			if res.Tree == nil || res.Tree.Root == nil {
				t.Fatalf("%v n=%d: nil tree", algo, n)
			}
			// Prediction must work for every training record.
			for i := 0; i < tbl.NumRecords(); i++ {
				res.Tree.Predict(tbl.Row(i))
			}
		}
	}
}
