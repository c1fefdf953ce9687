package core

import (
	"context"
	"fmt"
	"math"

	"cmpdt/internal/dataset"
	"cmpdt/internal/gini"
	"cmpdt/internal/storage"
)

// AttributeCurve is the root-level gini geometry of one numeric attribute —
// the data behind the paper's Figure 2: the gini index at every interval
// boundary, the hill-climbing estimate inside every interval, and which
// intervals CMP would keep alive.
type AttributeCurve struct {
	Attr string
	// Boundaries are the interval cut values; BoundaryGini[i] is
	// gini^D(S, attr <= Boundaries[i]).
	Boundaries   []float64
	BoundaryGini []float64
	// IntervalEst[k] is the estimated lower bound inside interval k
	// (between Boundaries[k-1] and Boundaries[k]); +Inf marks empty
	// intervals.
	IntervalEst []float64
	// GiniMin is the best boundary value; Alive lists the intervals CMP
	// would retain for exact resolution.
	GiniMin float64
	Alive   []int
}

// AnalyzeAttribute computes the root-level gini curve of one numeric
// attribute (by name) over the source, using the given configuration's
// discretization — Figure 2's view of estimation and alive intervals.
func AnalyzeAttribute(src storage.Source, cfg Config, attrName string) (*AttributeCurve, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	schema := src.Schema()
	attr := schema.AttrIndex(attrName)
	if attr < 0 {
		return nil, fmt.Errorf("core: unknown attribute %q", attrName)
	}
	if schema.Attrs[attr].Kind != dataset.Numeric {
		return nil, fmt.Errorf("core: attribute %q is categorical; the gini curve applies to numeric attributes", attrName)
	}
	if src.NumRecords() == 0 {
		return nil, fmt.Errorf("core: empty training set")
	}
	rs, ok := src.(storage.RangeSource)
	if !ok {
		return nil, ErrNoRangeScan
	}

	cfg.Algorithm = CMPS
	cfg.Obs, cfg.SplitAttrs = nil, nil
	eng, err := newEngine[*bnode](context.Background(), schema, cfg)
	if err != nil {
		return nil, err
	}
	b := &builder{engine: eng, src: rs}
	b.k = b
	b.nid = make([]int32, src.NumRecords())
	b.records = int64(len(b.nid))
	if b.rootDisc, b.attrMin, b.attrMax, err = b.discretize(src, b.numeric, cfg.Intervals); err != nil {
		return nil, err
	}
	b.root = b.admit(b.newBnode(0, b.rootDisc, -1), nil, false)
	b.round = 1
	if err := b.scan(); err != nil {
		return nil, err
	}

	v := b.viewOf(b.root)
	h := v.marg[attr]
	d := v.disc[attr]
	if h == nil || d == nil {
		return nil, fmt.Errorf("core: no histogram for %q", attrName)
	}
	e := evalNumeric(attr, h, v.totals, d)

	curve := &AttributeCurve{
		Attr:        attrName,
		Boundaries:  d.Cuts(),
		IntervalEst: e.ests,
		GiniMin:     e.giniMin,
	}
	curve.BoundaryGini = make([]float64, len(curve.Boundaries))
	for j, cum := range e.cums {
		curve.BoundaryGini[j] = boundaryGiniOf(cum, v.totals)
	}
	curve.Alive = b.selectAlive(&e)
	if math.IsInf(curve.GiniMin, 1) {
		curve.GiniMin = 0
	}
	return curve, nil
}

func boundaryGiniOf(cum, totals []int) float64 {
	return gini.SplitBelow(cum, totals)
}
