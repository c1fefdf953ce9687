package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"cmpdt/internal/histogram"
	"cmpdt/internal/quantile"
)

func TestPendingSplitRoute(t *testing.T) {
	p := &pendingSplit{
		attr: 0,
		gaps: []valueRange{{Lo: 10, Hi: 20}, {Lo: 40, Hi: 50}},
	}
	cases := []struct {
		v        float64
		region   int
		buffered bool
	}{
		{5, 0, false},
		{10, 0, false}, // at a gap's Lo: below it
		{10.5, 0, true},
		{20, 0, true}, // at a gap's Hi: inside
		{25, 1, false},
		{40, 1, false},
		{45, 0, true},
		{50, 0, true},
		{60, 2, false},
	}
	for _, c := range cases {
		region, buffered := p.route(c.v)
		if buffered != c.buffered || (!buffered && region != c.region) {
			t.Errorf("route(%v) = (%d,%v), want (%d,%v)", c.v, region, buffered, c.region, c.buffered)
		}
	}
}

func TestPendingRouteUnboundedGap(t *testing.T) {
	p := &pendingSplit{attr: 0, gaps: []valueRange{{Lo: negInf, Hi: posInf}}}
	for _, v := range []float64{-1e12, 0, 1e12} {
		if _, buffered := p.route(v); !buffered {
			t.Errorf("route(%v) not buffered by the unbounded gap", v)
		}
	}
}

func TestGapsFor(t *testing.T) {
	d, err := quantile.FromCuts([]float64{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	// Adjacent alive intervals 1 and 2 merge into one gap (10, 30].
	gaps := gapsFor(d, []int{1, 2})
	if len(gaps) != 1 || gaps[0].Lo != 10 || gaps[0].Hi != 30 {
		t.Errorf("merged gaps = %+v", gaps)
	}
	// Intervals 0 and 4 are the unbounded edges.
	gaps = gapsFor(d, []int{0, 4})
	if len(gaps) != 2 {
		t.Fatalf("gaps = %+v", gaps)
	}
	if !math.IsInf(gaps[0].Lo, -1) || gaps[0].Hi != 10 {
		t.Errorf("left edge gap = %+v", gaps[0])
	}
	if gaps[1].Lo != 40 || !math.IsInf(gaps[1].Hi, 1) {
		t.Errorf("right edge gap = %+v", gaps[1])
	}
}

func TestBufferSortProperty(t *testing.T) {
	f := func(seed int64, attrRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3
		attr := int(attrRaw) % k
		var b buffer
		b.init(k)
		n := 1 + rng.Intn(50)
		type rec struct {
			vals  []float64
			rid   int
			label int
		}
		byRid := make(map[int]rec)
		for i := 0; i < n; i++ {
			vals := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
			byRid[i] = rec{vals: vals, rid: i, label: i % 2}
			b.add(i, vals, i%2)
		}
		b.sortByAttr(attr)
		if b.Len() != n {
			return false
		}
		for i := 0; i < n; i++ {
			// Sorted by the attribute.
			if i+1 < n && b.Row(i)[attr] > b.Row(i + 1)[attr] {
				return false
			}
			// Rows stay glued to their rid and label.
			want := byRid[b.rid(i)]
			if b.Label(i) != want.label {
				return false
			}
			for a := 0; a < k; a++ {
				if b.Row(i)[a] != want.vals[a] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRegionCounts(t *testing.T) {
	b := &builder{engine: engine[*bnode]{nc: 2}}
	h := histogram.New1D(5, 2)
	for k := 0; k < 5; k++ {
		h.AddN(k, 0, k+1) // bins hold 1,2,3,4,5 of class 0
	}
	// Alive = {1, 2} (one merged run): regions are bin 0 and bins 3-4.
	rc := b.regionCounts(h, []int{1, 2})
	if len(rc) != 2 {
		t.Fatalf("regions = %v", rc)
	}
	if rc[0][0] != 1 || rc[1][0] != 9 {
		t.Errorf("region counts = %v, want [1] and [9]", rc)
	}
	// Alive = {0, 3}: regions are (empty), bins 1-2, bin 4.
	rc = b.regionCounts(h, []int{0, 3})
	if len(rc) != 3 {
		t.Fatalf("regions = %v", rc)
	}
	if rc[0][0] != 0 || rc[1][0] != 5 || rc[2][0] != 5 {
		t.Errorf("region counts = %v, want [0],[5],[5]", rc)
	}
}

func TestSelectAliveKeepsBoundaryAdjacent(t *testing.T) {
	b := &builder{engine: engine[*bnode]{cfg: Config{MaxAlive: 2}}}
	e := &numEval{
		giniMin:      0.30,
		bestBoundary: 4, // between intervals 4 and 5
		ests:         []float64{0.5, 0.10, 0.5, 0.5, 0.29, 0.5, 0.5, 0.5},
	}
	alive := b.selectAlive(e)
	foundAdj := false
	for _, k := range alive {
		if k == 4 || k == 5 {
			foundAdj = true
		}
	}
	if !foundAdj {
		t.Errorf("alive %v lacks a boundary-adjacent interval", alive)
	}
	foundMin := false
	for _, k := range alive {
		if k == 1 {
			foundMin = true
		}
	}
	if !foundMin {
		t.Errorf("alive %v lacks the minimum-estimate interval", alive)
	}
	if len(alive) > 2 || !sort.IntsAreSorted(alive) {
		t.Errorf("alive %v malformed", alive)
	}
}

func TestSelectAliveEmptyWhenBoundaryOptimal(t *testing.T) {
	b := &builder{engine: engine[*bnode]{cfg: Config{MaxAlive: 2}}}
	e := &numEval{
		giniMin:      0.10,
		bestBoundary: 2,
		ests:         []float64{0.5, 0.4, 0.3, 0.2}, // nothing undercuts giniMin
	}
	if alive := b.selectAlive(e); alive != nil {
		t.Errorf("alive %v, want none (boundary provably optimal)", alive)
	}
}

func TestSelectAlivePrefersNeighbours(t *testing.T) {
	b := &builder{engine: engine[*bnode]{cfg: Config{MaxAlive: 3}}}
	e := &numEval{
		giniMin:      0.30,
		bestBoundary: 1,
		// Interval 1 has the min est; its neighbours 0 and 2 also qualify,
		// as does remote interval 6 with a slightly lower est than them.
		ests: []float64{0.25, 0.05, 0.26, 0.5, 0.5, 0.5, 0.20},
	}
	alive := b.selectAlive(e)
	contiguous := len(alive) > 0
	for i := 1; i < len(alive); i++ {
		if alive[i] != alive[i-1]+1 {
			contiguous = false
		}
	}
	if !contiguous {
		t.Errorf("alive %v should form one contiguous gap when neighbours qualify", alive)
	}
}

func TestChildBins(t *testing.T) {
	b := &builder{engine: engine[*bnode]{cfg: Config{Intervals: 100}}}
	cases := map[int]int{
		1_000_000: 100,
		100_000:   100,
		4_000:     20,
		500:       8,
		0:         8,
	}
	for n, want := range cases {
		if got := b.childBins(n); got != want {
			t.Errorf("childBins(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestOccupiedBins(t *testing.T) {
	h := histogram.New1D(4, 2)
	if occupiedBins(h) != 0 {
		t.Error("empty histogram occupied")
	}
	h.Add(2, 0)
	h.Add(2, 1)
	if occupiedBins(h) != 1 {
		t.Error("single-bin occupancy wrong")
	}
	h.Add(0, 1)
	if occupiedBins(h) != 2 {
		t.Error("two-bin occupancy wrong")
	}
}
