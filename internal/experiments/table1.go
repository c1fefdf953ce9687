package experiments

import (
	"fmt"
	"io"
	"math"

	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

// Table1Row compares the first split chosen by the exact algorithm with the
// one CMP-S derives from its discretized histograms, for one dataset and
// one interval count — one line of the paper's Table 1.
type Table1Row struct {
	Dataset   string
	Records   int
	ExactAttr int
	ExactGini float64

	Intervals int
	Alive     int
	CMPAttr   int
	CMPGini   float64

	AttrMatch bool
	GiniMatch bool
}

// table1Dataset is one workload of Table 1.
type table1Dataset struct {
	name      string
	intervals []int
	load      func(o Opts) (*dataset.Table, error)
}

func table1Datasets(o Opts) []table1Dataset {
	statlog := func(name string) func(Opts) (*dataset.Table, error) {
		return func(o Opts) (*dataset.Table, error) { return synth.Statlog(name, o.Seed) }
	}
	agrawal := func(fn synth.Func) func(Opts) (*dataset.Table, error) {
		return func(o Opts) (*dataset.Table, error) { return synth.Generate(fn, o.N, o.Seed), nil }
	}
	return []table1Dataset{
		{name: "Letter", intervals: []int{10, 15}, load: statlog("letter")},
		{name: "Satimage", intervals: []int{10, 15}, load: statlog("satimage")},
		{name: "Segment", intervals: []int{10, 15}, load: statlog("segment")},
		{name: "Shuttle", intervals: []int{10, 15}, load: statlog("shuttle")},
		{name: "Function 2", intervals: []int{50, 100}, load: agrawal(synth.F2)},
		{name: "Function 7", intervals: []int{50, 100}, load: agrawal(synth.F7)},
	}
}

// Table1 regenerates the split-fidelity table: for every dataset, the exact
// first split versus CMP-S's first split at each interval count.
func (o Opts) Table1() ([]Table1Row, error) {
	var rows []Table1Row
	for _, ds := range table1Datasets(o) {
		tbl, err := ds.load(o)
		if err != nil {
			return nil, err
		}
		split, exactG, ok := exact.BestSplit(exact.TableRows(tbl), tbl.Schema())
		if !ok {
			return nil, fmt.Errorf("table1: no exact split for %s", ds.name)
		}
		exactAttr := exactSplitAttr(split)
		for _, q := range ds.intervals {
			cfg := core.Default(core.CMPS)
			cfg.Intervals = q
			cfg.MaxAlive = o.Eval.Tree.MaxAlive
			cfg.MaxDepth = 1
			cfg.DisablePruning = true
			cfg.InMemoryNodeRecords = -1
			cfg.Seed = o.Seed
			res, err := core.Build(storage.NewMem(tbl), cfg)
			if err != nil {
				return nil, fmt.Errorf("table1: CMP on %s (q=%d): %w", ds.name, q, err)
			}
			row := Table1Row{
				Dataset:   ds.name,
				Records:   tbl.NumRecords(),
				ExactAttr: exactAttr,
				ExactGini: exactG,
				Intervals: q,
				Alive:     res.Stats.RootAliveIntervals,
				CMPAttr:   res.Stats.RootSplitAttr,
				CMPGini:   res.Stats.RootSplitGini,
			}
			row.AttrMatch = row.CMPAttr == row.ExactAttr
			row.GiniMatch = math.Abs(row.CMPGini-row.ExactGini) < 1e-9
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func exactSplitAttr(s tree.Split) int {
	if s.Kind == tree.SplitLinear {
		return s.AttrX
	}
	return s.Attr
}

// PrintTable1 renders Table 1 rows the way the paper lays them out: '-'
// marks agreement with the exact algorithm.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "%-11s %9s | %5s %9s | %9s %6s %5s %9s\n",
		"dataset", "records", "attr", "gini", "intervals", "alive", "attr", "gini")
	for _, r := range rows {
		attr := "-"
		if !r.AttrMatch {
			attr = fmt.Sprint(r.CMPAttr)
		}
		gini := "-"
		if !r.GiniMatch {
			gini = fmt.Sprintf("%.6f", r.CMPGini)
		}
		fmt.Fprintf(w, "%-11s %9d | %5d %9.6f | %9d %6d %5s %9s\n",
			r.Dataset, r.Records, r.ExactAttr, r.ExactGini,
			r.Intervals, r.Alive, attr, gini)
	}
}
