package quantile

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestEqualDepthUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 10_000)
	for i := range vals {
		vals[i] = rng.Float64() * 100
	}
	d, err := EqualDepth(vals, 10)
	if err != nil {
		t.Fatal(err)
	}
	if d.Bins() < 8 || d.Bins() > 13 {
		t.Fatalf("uniform data: %d bins, wanted about 10", d.Bins())
	}
	// Populations should be near n/bins.
	counts := make([]int, d.Bins())
	for _, v := range vals {
		counts[d.Interval(v)]++
	}
	want := len(vals) / d.Bins()
	for k, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("bin %d holds %d records, want about %d", k, c, want)
		}
	}
}

func TestEqualDepthPointMassIsolated(t *testing.T) {
	// 60% of values are exactly 0 — the commission pattern. The point mass
	// must land in its own singleton interval.
	rng := rand.New(rand.NewSource(2))
	vals := make([]float64, 5000)
	for i := range vals {
		if i%5 < 3 {
			vals[i] = 0
		} else {
			vals[i] = 1 + rng.Float64()*100
		}
	}
	d, err := EqualDepth(vals, 10)
	if err != nil {
		t.Fatal(err)
	}
	zeroBin := d.Interval(0)
	if !d.Singleton(zeroBin) {
		t.Errorf("interval %d holding the point mass is not marked singleton", zeroBin)
	}
	// Values just above 0 must not share the point-mass interval.
	if d.Interval(1.5) == zeroBin {
		t.Error("non-zero values share the point-mass interval")
	}
}

func TestIntervalMappingConsistent(t *testing.T) {
	f := func(raw []float64, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		q := 2 + int(qRaw)%20
		d, err := EqualDepth(raw, q)
		if err != nil {
			return false
		}
		cuts := d.Cuts()
		if !sort.Float64sAreSorted(cuts) {
			return false
		}
		for _, v := range raw {
			k := d.Interval(v)
			if k < 0 || k >= d.Bins() {
				return false
			}
			// Interval semantics: cuts[k-1] < v <= cuts[k].
			if k > 0 && v <= cuts[k-1] {
				return false
			}
			if k < len(cuts) && v > cuts[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestEqualDepthSortedMatchesEqualDepth: on a sample already in order,
// EqualDepthSorted is EqualDepth without the copy and sort — the same cuts
// and singleton intervals — and it leaves its input untouched.
func TestEqualDepthSortedMatchesEqualDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 2, 50, 999, 5000} {
		for _, q := range []int{2, 10, 100} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = float64(rng.Intn(40)) // heavy ties
				if i%3 == 0 {
					vals[i] = rng.NormFloat64()
				}
			}
			want, err := EqualDepth(vals, q)
			if err != nil {
				t.Fatal(err)
			}
			sort.Float64s(vals)
			before := append([]float64(nil), vals...)
			got, err := EqualDepthSorted(vals, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d q=%d: EqualDepthSorted %+v, EqualDepth %+v", n, q, got, want)
			}
			if !reflect.DeepEqual(vals, before) {
				t.Fatalf("n=%d q=%d: EqualDepthSorted modified its input", n, q)
			}
		}
	}
	if _, err := EqualDepthSorted(nil, 4); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := EqualDepthSorted([]float64{1}, 1); err == nil {
		t.Error("one interval accepted")
	}
}

func TestBoundarySemantics(t *testing.T) {
	d, err := FromCuts([]float64{10, 20, 30})
	if err != nil {
		t.Fatal(err)
	}
	if d.Bins() != 4 {
		t.Fatalf("Bins = %d, want 4", d.Bins())
	}
	cases := map[float64]int{5: 0, 10: 0, 10.5: 1, 20: 1, 25: 2, 30: 2, 31: 3}
	for v, want := range cases {
		if got := d.Interval(v); got != want {
			t.Errorf("Interval(%v) = %d, want %d", v, got, want)
		}
	}
	for i, want := range []float64{10, 20, 30} {
		if got := d.Boundary(i); got != want {
			t.Errorf("Boundary(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestFromCutsRejectsUnsorted(t *testing.T) {
	if _, err := FromCuts([]float64{3, 2}); err == nil {
		t.Error("unsorted cuts accepted")
	}
	if _, err := FromCuts([]float64{2, 2}); err == nil {
		t.Error("duplicate cuts accepted")
	}
}

func TestEqualWidth(t *testing.T) {
	d, err := EqualWidth(0, 100, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.Bins() != 4 {
		t.Fatalf("Bins = %d, want 4", d.Bins())
	}
	for _, c := range []struct {
		v    float64
		want int
	}{{-5, 0}, {25, 0}, {26, 1}, {75, 2}, {99, 3}, {200, 3}} {
		if got := d.Interval(c.v); got != c.want {
			t.Errorf("Interval(%v) = %d, want %d", c.v, got, c.want)
		}
	}
	if d, _ := EqualWidth(5, 5, 4); d.Bins() != 1 {
		t.Error("degenerate range should yield one bin")
	}
	if _, err := EqualWidth(1, 0, 4); err == nil {
		t.Error("max < min accepted")
	}
}

func TestSlice(t *testing.T) {
	d, _ := FromCuts([]float64{10, 20, 30, 40})
	s := d.Slice(1, 4) // intervals 1..3: cuts 20, 30
	if s.Bins() != 3 {
		t.Fatalf("sliced bins = %d, want 3", s.Bins())
	}
	if s.Boundary(0) != 20 || s.Boundary(1) != 30 {
		t.Errorf("sliced cuts = %v, want [20 30]", s.Cuts())
	}
	if s := d.Slice(2, 3); s.Bins() != 1 {
		t.Errorf("single-interval slice bins = %d, want 1", s.Bins())
	}
}

func TestDeriveUniformApproximatesQuantiles(t *testing.T) {
	// Parent: 10 equal bins over [0,100) with equal counts. A child
	// covering (25, 75] should get near-equal-depth cuts inside that range.
	parent, _ := EqualWidth(0, 100, 10)
	counts := make([]int, 10)
	for i := range counts {
		counts[i] = 100
	}
	d, err := Derive(parent, counts, 25, 75, 5, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	cuts := d.Cuts()
	want := []float64{35, 45, 55, 65}
	if len(cuts) != len(want) {
		t.Fatalf("derived cuts %v, want about %v", cuts, want)
	}
	for i := range want {
		if diff := cuts[i] - want[i]; diff < -1 || diff > 1 {
			t.Errorf("cut %d = %v, want about %v", i, cuts[i], want[i])
		}
	}
}

func TestDeriveRespectsRange(t *testing.T) {
	parent, _ := EqualWidth(0, 100, 10)
	counts := make([]int, 10)
	for i := range counts {
		counts[i] = 10 + i
	}
	d, err := Derive(parent, counts, 30, 60, 8, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Cuts() {
		if c <= 30 || c >= 60 {
			t.Errorf("derived cut %v outside (30, 60)", c)
		}
	}
}

func TestDeriveEmptyRange(t *testing.T) {
	parent, _ := EqualWidth(0, 100, 10)
	counts := make([]int, 10)
	d, err := Derive(parent, counts, 40, 50, 5, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if d.Bins() != 1 {
		t.Errorf("empty mass range: bins = %d, want 1", d.Bins())
	}
}

func TestDeriveInfiniteRange(t *testing.T) {
	parent, _ := EqualWidth(0, 100, 10)
	counts := make([]int, 10)
	for i := range counts {
		counts[i] = 50
	}
	d, err := Derive(parent, counts, negInfTest(), 50, 5, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Cuts() {
		if c <= 0 || c >= 50 {
			t.Errorf("cut %v outside (0, 50)", c)
		}
	}
}

func negInfTest() float64 {
	var zero float64
	return -1 / zero
}
