package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"cmpdt/internal/core"
	"cmpdt/internal/eval"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

// GiniCurve regenerates the view behind Figure 2: the gini index at every
// interval boundary of one attribute, the estimated lower bound inside each
// interval, and the alive intervals CMP retains.
func (o Opts) GiniCurve(fn synth.Func, attr string) (*core.AttributeCurve, error) {
	src, cleanup, err := o.source(fn, o.N, o.Seed)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	cfg := core.Default(core.CMPS)
	cfg.Intervals = o.Intervals
	cfg.Seed = o.Seed
	return core.AnalyzeAttribute(src, cfg, attr)
}

// PrintGiniCurve renders a curve as an ASCII chart: one row per boundary,
// with a bar proportional to the gini value, estimation rows between them,
// and alive intervals flagged — the textual equivalent of Figure 2's plot.
func PrintGiniCurve(w io.Writer, c *core.AttributeCurve) {
	alive := make(map[int]bool, len(c.Alive))
	for _, k := range c.Alive {
		alive[k] = true
	}
	bar := func(g float64) string {
		if math.IsInf(g, 1) {
			return "(empty)"
		}
		n := int(g * 60)
		if n < 0 {
			n = 0
		}
		return strings.Repeat("#", n)
	}
	fmt.Fprintf(w, "gini curve of %q (gini_min = %.6f, alive intervals marked *)\n", c.Attr, c.GiniMin)
	for k := 0; k < len(c.IntervalEst); k++ {
		mark := " "
		if alive[k] {
			mark = "*"
		}
		fmt.Fprintf(w, " %s interval %3d  est %8.6s %s\n", mark, k, fmtGini(c.IntervalEst[k]), bar(c.IntervalEst[k]))
		if k < len(c.Boundaries) {
			fmt.Fprintf(w, "   boundary %8.6g  gini %8.6f %s\n", c.Boundaries[k], c.BoundaryGini[k], bar(c.BoundaryGini[k]))
		}
	}
}

func fmtGini(g float64) string {
	if math.IsInf(g, 1) {
		return "-"
	}
	return fmt.Sprintf("%.4f", g)
}

// TreesComparison regenerates the Figure 9 / Figure 13 pair: the tree an
// exact univariate classifier (SPRINT) builds for the linearly-correlated
// Function f against the multivariate tree full CMP builds.
func (o Opts) TreesComparison() (univariate, multivariate *tree.Tree, err error) {
	tbl := synth.Generate(synth.FPaper, o.N, o.Seed)

	opts := o.evalOptions()
	opts.Tree.PurityStop = 0.95
	_, univariate, err = eval.Run(eval.AlgoSPRINT, storage.NewMem(tbl), nil, nil, opts)
	if err != nil {
		return nil, nil, err
	}
	opts.Tree.ObliqueAllPairs = true
	_, multivariate, err = eval.Run(eval.AlgoCMP, storage.NewMem(tbl), nil, nil, opts)
	if err != nil {
		return nil, nil, err
	}
	return univariate, multivariate, nil
}

// PrintTrees renders the Figure 9 / Figure 13 comparison.
func PrintTrees(w io.Writer, univariate, multivariate *tree.Tree) {
	fmt.Fprintf(w, "-- univariate tree (SPRINT; cf. Figure 9): %d leaves, depth %d --\n",
		univariate.Leaves(), univariate.Depth())
	io.WriteString(w, univariate.String())
	fmt.Fprintf(w, "\n-- multivariate tree (CMP; cf. Figure 13): %d leaves, depth %d, %d linear split(s) --\n",
		multivariate.Leaves(), multivariate.Depth(), multivariate.CountLinearSplits())
	io.WriteString(w, multivariate.String())
}

// LearningCurveRow records held-out accuracy at one training size — the
// claim behind the paper's citations [12, 13]: larger training sets improve
// the model, which is why approximate-but-scalable construction matters.
type LearningCurveRow struct {
	Algorithm string
	N         int
	TestAcc   float64
	Leaves    int
}

// LearningCurve measures held-out accuracy as the training set grows, for
// full-data CMP and for sampling-based windowing.
func (o Opts) LearningCurve(fn synth.Func) ([]LearningCurveRow, error) {
	test := synth.Generate(fn, 20_000, o.Seed+5000)
	var rows []LearningCurveRow
	for _, n := range o.Sizes {
		train := synth.Generate(fn, n, o.Seed)
		for _, algo := range []string{eval.AlgoCMPS, eval.AlgoWindow} {
			res, _, err := eval.Run(algo, storage.NewMem(train), nil, test, o.evalOptions())
			if err != nil {
				return nil, err
			}
			rows = append(rows, LearningCurveRow{
				Algorithm: algo, N: n, TestAcc: res.TestAccuracy, Leaves: res.TreeLeaves,
			})
		}
	}
	return rows, nil
}

// PrintLearningCurve renders learning-curve rows.
func PrintLearningCurve(w io.Writer, rows []LearningCurveRow) {
	fmt.Fprintf(w, "%-10s %9s %9s %7s\n", "algorithm", "records", "test-acc", "leaves")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %9d %9.4f %7d\n", r.Algorithm, r.N, r.TestAcc, r.Leaves)
	}
}
