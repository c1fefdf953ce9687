// Package window implements C4.5-style windowing (Quinlan, 1993), the
// sampling technique the paper's introduction contrasts CMP against: draw a
// small window from the training set, build a tree on it, augment the
// window with records the tree misclassifies, and repeat. Learning time
// drops dramatically, but — as the paper notes, citing Catlett — trees
// built from samples can carry a significant accuracy loss compared with
// exact algorithms run on the full data. The experiments use this package
// to demonstrate exactly that trade-off.
package window

import (
	"errors"
	"fmt"
	"math/rand"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// Config controls windowing.
type Config struct {
	// InitialWindow is the starting sample size (default n/50, at least
	// 500 and at most n).
	InitialWindow int
	// MaxAdditions bounds the misclassified records added per iteration
	// (default InitialWindow/2).
	MaxAdditions int
	// MaxIterations bounds the refinement loop (default 5).
	MaxIterations int
	// Exact configures the in-memory tree built on each window. A zero
	// MaxDepth takes exact.DefaultConfig's stopping rules: MaxDepth, and
	// MinSplitRecords and MinGiniGain where they are zero; the other
	// fields are kept.
	Exact exact.Config
	// Seed drives the sampling.
	Seed int64
}

// DefaultConfig returns Quinlan-flavoured defaults.
func DefaultConfig() Config {
	return Config{MaxIterations: 5, Exact: exact.DefaultConfig(), Seed: 1}
}

// Stats reports what a windowing run did.
type Stats struct {
	// Iterations is the number of window refinements performed.
	Iterations int
	// FinalWindow is the window size the final tree was trained on.
	FinalWindow int
	// Misclassified is the full-dataset misclassification count of the
	// final tree, measured by the last verification scan.
	Misclassified int
}

// Result bundles a finished run.
type Result struct {
	Tree  *tree.Tree
	Stats Stats
	IO    storage.Stats
}

// Build trains a tree by windowing over src. Each iteration costs one
// sequential scan (the verification pass that also collects misclassified
// records); tree building itself happens in memory on the window.
func Build(src storage.Source, cfg Config) (*Result, error) {
	schema := src.Schema()
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	n := src.NumRecords()
	if n == 0 {
		return nil, errors.New("window: empty training set")
	}
	if cfg.MaxIterations <= 0 {
		cfg.MaxIterations = 5
	}
	if cfg.InitialWindow <= 0 {
		cfg.InitialWindow = n / 50
		if cfg.InitialWindow < 500 {
			cfg.InitialWindow = 500
		}
	}
	if cfg.InitialWindow > n {
		cfg.InitialWindow = n
	}
	if cfg.MaxAdditions <= 0 {
		cfg.MaxAdditions = cfg.InitialWindow / 2
	}
	if cfg.Exact.MaxDepth == 0 {
		def := exact.DefaultConfig()
		cfg.Exact.MaxDepth = def.MaxDepth
		if cfg.Exact.MinSplitRecords == 0 {
			cfg.Exact.MinSplitRecords = def.MinSplitRecords
		}
		if cfg.Exact.MinGiniGain == 0 {
			cfg.Exact.MinGiniGain = def.MinGiniGain
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Initial window: reservoir sample over one scan, which also rejects
	// the first record Schema.RecordDefect flags.
	win, err := dataset.New(schema)
	if err != nil {
		return nil, err
	}
	reservoirVals := make([][]float64, 0, cfg.InitialWindow)
	reservoirLabels := make([]int, 0, cfg.InitialWindow)
	seen := 0
	err = src.Scan(func(rid int, vals []float64, label int) error {
		if d := schema.RecordDefect(vals, label); d != "" {
			return fmt.Errorf("window: record %d invalid: %s", rid, d)
		}
		if seen < cfg.InitialWindow {
			reservoirVals = append(reservoirVals, append([]float64(nil), vals...))
			reservoirLabels = append(reservoirLabels, label)
		} else if j := rng.Intn(seen + 1); j < cfg.InitialWindow {
			reservoirVals[j] = append(reservoirVals[j][:0], vals...)
			reservoirLabels[j] = label
		}
		seen++
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range reservoirVals {
		if err := win.Append(reservoirVals[i], reservoirLabels[i]); err != nil {
			return nil, err
		}
	}

	var st Stats
	var t *tree.Tree
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		st.Iterations++
		t = exact.BuildTable(win, cfg.Exact)

		// Verification scan: count misclassifications and collect up to
		// MaxAdditions of them into the window.
		added := 0
		misses := 0
		err := src.Scan(func(rid int, vals []float64, label int) error {
			if t.Predict(vals) == label {
				return nil
			}
			misses++
			if added < cfg.MaxAdditions {
				if err := win.Append(vals, label); err != nil {
					return err
				}
				added++
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		st.Misclassified = misses
		if misses == 0 || added == 0 {
			break
		}
	}
	st.FinalWindow = win.NumRecords()
	return &Result{Tree: t, Stats: st, IO: src.Stats()}, nil
}
