// Package experiments regenerates every table and figure of the paper's
// evaluation section:
//
//	Table 1   — split fidelity of CMP vs the exact algorithm
//	Figure 14 — scalability of CMP-S/CMP-B/CMP on Function 2
//	Figure 15 — scalability on Function 7
//	Figure 16 — CMP vs SPRINT/RainForest/CLOUDS on Function 2
//	Figure 17 — the same comparison on Function 7
//	Figure 18 — the comparison on the linearly-correlated Function f
//	Figure 19 — peak memory across algorithms
//
// Record counts are parameterized: the paper sweeps 200,000-2,500,000
// records on a 1999 workstation; the default sizes here are scaled down so
// a full reproduction finishes in minutes, and the --full flag of
// cmd/cmpbench restores the paper's sizes.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"cmpdt/internal/eval"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// Opts configures an experiment run.
type Opts struct {
	// Sizes are the record counts swept by the scalability figures.
	Sizes []int
	// N is the record count for single-size experiments (figures 16-19).
	N int
	// Intervals per attribute for the discretizing algorithms.
	Intervals int
	// Seed drives dataset generation.
	Seed int64
	// UseDisk stores generated datasets in binary files under Dir and
	// trains from them (the paper's disk-resident setting); otherwise
	// datasets stay in memory with simulated I/O accounting.
	UseDisk bool
	// Dir receives the dataset files when UseDisk is set.
	Dir string
	// Eval carries shared algorithm options.
	Eval eval.Options
}

// Defaults returns laptop-scale settings.
func Defaults() Opts {
	return Opts{
		Sizes:     []int{25_000, 50_000, 100_000, 200_000, 400_000},
		N:         200_000,
		Intervals: 100,
		Seed:      1,
	}
}

// PaperScale returns the paper's record counts (slow: millions of records).
func PaperScale() Opts {
	o := Defaults()
	o.Sizes = []int{200_000, 500_000, 1_000_000, 1_500_000, 2_000_000, 2_500_000}
	o.N = 1_000_000
	return o
}

func (o Opts) evalOptions() eval.Options {
	e := o.Eval
	if e.Tree.Intervals == 0 {
		e.Tree.Intervals = o.Intervals
	}
	if e.Tree.Seed == 0 {
		e.Tree.Seed = o.Seed
	}
	return e
}

// source materializes a generated dataset as a metered record source.
func (o Opts) source(fn synth.Func, n int, seed int64) (storage.Source, func(), error) {
	if !o.UseDisk {
		tbl := synth.Generate(fn, n, seed)
		return storage.NewMem(tbl), func() {}, nil
	}
	dir := o.Dir
	if dir == "" {
		dir = os.TempDir()
	}
	path := filepath.Join(dir, fmt.Sprintf("cmpdt-%s-%d-%d.rec",
		strings.ReplaceAll(fn.String(), " ", ""), n, seed))
	if f, err := storage.OpenFile(path); err == nil && f.NumRecords() == n {
		return f, func() {}, nil
	}
	w, err := storage.CreateFile(path, synth.Schema())
	if err != nil {
		return nil, nil, err
	}
	if err := synth.GenerateTo(w, fn, n, seed, synth.Options{}); err != nil {
		return nil, nil, err
	}
	f, err := w.Close()
	if err != nil {
		return nil, nil, err
	}
	return f, func() {}, nil
}

// Row is one measurement of one algorithm on one workload size.
type Row struct {
	Figure    string
	Workload  string
	Algorithm string
	N         int

	SimSeconds  float64
	WallSeconds float64
	Scans       int64
	MemoryMB    float64
	Leaves      int
	Depth       int
	Oblique     int
	Accuracy    float64 // training-set accuracy when computed, else 0
}

// runOne trains one algorithm on one workload.
func (o Opts) runOne(figure string, fn synth.Func, n int, algo string, evalOpts eval.Options) (Row, error) {
	src, cleanup, err := o.source(fn, n, o.Seed)
	if err != nil {
		return Row{}, err
	}
	defer cleanup()
	res, _, err := eval.Run(algo, src, nil, nil, evalOpts)
	if err != nil {
		return Row{}, fmt.Errorf("%s on %s (n=%d): %w", algo, fn, n, err)
	}
	return Row{
		Figure:      figure,
		Workload:    fn.String(),
		Algorithm:   algo,
		N:           n,
		SimSeconds:  res.SimSeconds,
		WallSeconds: res.WallTime.Seconds(),
		Scans:       res.Scans,
		MemoryMB:    float64(res.PeakMemBytes) / (1 << 20),
		Leaves:      res.TreeLeaves,
		Depth:       res.TreeDepth,
		Oblique:     res.Oblique,
	}, nil
}

// Scalability regenerates Figures 14 and 15: running time of the CMP family
// as the training set grows.
func (o Opts) Scalability(fn synth.Func) ([]Row, error) {
	figure := "Figure 14"
	if fn == synth.F7 {
		figure = "Figure 15"
	}
	algos := []string{eval.AlgoCMPS, eval.AlgoCMPB, eval.AlgoCMP}
	var rows []Row
	for _, n := range o.Sizes {
		for _, algo := range algos {
			r, err := o.runOne(figure, fn, n, algo, o.evalOptions())
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// Comparison regenerates Figures 16 and 17: CMP against SPRINT, RainForest
// and CLOUDS as the training set grows.
func (o Opts) Comparison(fn synth.Func) ([]Row, error) {
	figure := "Figure 16"
	if fn == synth.F7 {
		figure = "Figure 17"
	}
	algos := []string{eval.AlgoCMP, eval.AlgoSPRINT, eval.AlgoRainForest, eval.AlgoCLOUDS}
	var rows []Row
	for _, n := range o.Sizes {
		for _, algo := range algos {
			r, err := o.runOne(figure, fn, n, algo, o.evalOptions())
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// FunctionF regenerates Figure 18: the linearly-correlated workload where
// CMP's multivariate splits shine. Full CMP runs with the all-pairs
// extension, since the needed (salary, commission) matrix must exist for
// the correlation to be detectable (the paper's Section 2.3 limitation).
func (o Opts) FunctionF() ([]Row, error) {
	var rows []Row
	for _, n := range o.Sizes {
		// Every algorithm stops at 95%-pure nodes, mirroring the original
		// systems' "almost entirely one class" rule; CMP's linear splits
		// reach that purity in two levels while the univariate trees must
		// staircase along the diagonal boundary.
		evalOpts := o.evalOptions()
		evalOpts.Tree.PurityStop = 0.95
		cmpOpts := evalOpts
		cmpOpts.Tree.ObliqueAllPairs = true
		r, err := o.runOne("Figure 18", synth.FPaper, n, eval.AlgoCMP, cmpOpts)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
		for _, algo := range []string{eval.AlgoSPRINT, eval.AlgoRainForest, eval.AlgoCLOUDS} {
			r, err := o.runOne("Figure 18", synth.FPaper, n, algo, evalOpts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// Memory regenerates Figure 19: peak memory of each algorithm as the
// training set grows.
func (o Opts) Memory() ([]Row, error) {
	algos := []string{eval.AlgoCMPS, eval.AlgoCMPB, eval.AlgoCMP,
		eval.AlgoSPRINT, eval.AlgoRainForest}
	var rows []Row
	for _, n := range o.Sizes {
		for _, algo := range algos {
			r, err := o.runOne("Figure 19", synth.F2, n, algo, o.evalOptions())
			if err != nil {
				return nil, err
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// PrintRows renders measurement rows as an aligned table.
func PrintRows(w io.Writer, rows []Row) {
	if len(rows) == 0 {
		return
	}
	fmt.Fprintf(w, "%-10s %-11s %-11s %9s %8s %9s %6s %9s %7s %6s %8s\n",
		"figure", "workload", "algorithm", "records", "sim(s)", "wall(s)",
		"scans", "mem(MB)", "leaves", "depth", "oblique")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %-11s %-11s %9d %8.2f %9.3f %6d %9.2f %7d %6d %8d\n",
			r.Figure, r.Workload, r.Algorithm, r.N, r.SimSeconds, r.WallSeconds,
			r.Scans, r.MemoryMB, r.Leaves, r.Depth, r.Oblique)
	}
}

// WriteCSVRows renders rows as CSV for plotting.
func WriteCSVRows(w io.Writer, rows []Row) error {
	if _, err := fmt.Fprintln(w, "figure,workload,algorithm,records,sim_seconds,wall_seconds,scans,memory_mb,leaves,depth,oblique"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%g,%g,%d,%g,%d,%d,%d\n",
			r.Figure, r.Workload, r.Algorithm, r.N, r.SimSeconds, r.WallSeconds,
			r.Scans, r.MemoryMB, r.Leaves, r.Depth, r.Oblique); err != nil {
			return err
		}
	}
	return nil
}
