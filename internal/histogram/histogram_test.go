package histogram

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestHist1DBasics(t *testing.T) {
	h := New1D(4, 2)
	h.Add(0, 0)
	h.Add(0, 1)
	h.Add(3, 1)
	h.AddN(2, 0, 5)
	if got := h.Count(0, 0); got != 1 {
		t.Errorf("Count(0,0) = %d, want 1", got)
	}
	if got := h.Count(2, 0); got != 5 {
		t.Errorf("Count(2,0) = %d, want 5", got)
	}
	if got := h.Total(); got != 8 {
		t.Errorf("Total = %d, want 8", got)
	}
	if got := h.ClassTotals(); got[0] != 6 || got[1] != 2 {
		t.Errorf("ClassTotals = %v, want [6 2]", got)
	}
	if bin := h.Bin(0); bin[0] != 1 || bin[1] != 1 {
		t.Errorf("Bin(0) = %v, want [1 1]", bin)
	}
}

func TestHist1DCumulative(t *testing.T) {
	h := New1D(3, 2)
	h.AddN(0, 0, 2)
	h.AddN(1, 1, 3)
	h.AddN(2, 0, 1)
	cums := h.Cumulative()
	if len(cums) != 2 {
		t.Fatalf("len(Cumulative) = %d, want 2", len(cums))
	}
	if cums[0][0] != 2 || cums[0][1] != 0 {
		t.Errorf("cum[0] = %v, want [2 0]", cums[0])
	}
	if cums[1][0] != 2 || cums[1][1] != 3 {
		t.Errorf("cum[1] = %v, want [2 3]", cums[1])
	}
}

func TestHist1DMergeAndClone(t *testing.T) {
	a := New1D(3, 2)
	b := New1D(3, 2)
	a.AddN(1, 0, 4)
	b.AddN(1, 0, 2)
	b.AddN(2, 1, 7)
	c := a.Clone()
	c.Merge(b)
	if a.Count(1, 0) != 4 {
		t.Error("Merge mutated the clone source")
	}
	if c.Count(1, 0) != 6 || c.Count(2, 1) != 7 {
		t.Errorf("merged counts wrong: %v %v", c.Count(1, 0), c.Count(2, 1))
	}
}

func TestHist1DSliceBins(t *testing.T) {
	h := New1D(5, 2)
	for k := 0; k < 5; k++ {
		h.AddN(k, 0, k+1)
	}
	s := h.SliceBins(1, 4)
	if s.Bins() != 3 {
		t.Fatalf("sliced bins = %d, want 3", s.Bins())
	}
	for k := 0; k < 3; k++ {
		if s.Count(k, 0) != k+2 {
			t.Errorf("sliced bin %d = %d, want %d", k, s.Count(k, 0), k+2)
		}
	}
}

func TestMatrixMarginalsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := NewMatrix(4, 3, 2)
		for i := 0; i < 200; i++ {
			m.Add(rng.Intn(4), rng.Intn(3), rng.Intn(2))
		}
		mx, my := m.MarginalX(), m.MarginalY()
		if mx.Total() != m.Total() || my.Total() != m.Total() {
			return false
		}
		tx, ty, tm := mx.ClassTotals(), my.ClassTotals(), m.ClassTotals()
		for c := range tm {
			if tx[c] != tm[c] || ty[c] != tm[c] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMatrixSliceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMatrix(6, 5, 3)
	for i := 0; i < 500; i++ {
		m.Add(rng.Intn(6), rng.Intn(5), rng.Intn(3))
	}
	// SliceX halves merged back must reproduce the original counts.
	left, right := m.SliceX(0, 3), m.SliceX(3, 6)
	if left.Total()+right.Total() != m.Total() {
		t.Fatalf("slice totals %d+%d != %d", left.Total(), right.Total(), m.Total())
	}
	for x := 0; x < 6; x++ {
		for y := 0; y < 5; y++ {
			var got []int32
			if x < 3 {
				got = left.Cell(x, y)
			} else {
				got = right.Cell(x-3, y)
			}
			want := m.Cell(x, y)
			for c := range want {
				if got[c] != want[c] {
					t.Fatalf("cell (%d,%d) class %d: got %d want %d", x, y, c, got[c], want[c])
				}
			}
		}
	}
	// Same along Y.
	top, bottom := m.SliceY(0, 2), m.SliceY(2, 5)
	if top.Total()+bottom.Total() != m.Total() {
		t.Fatalf("Y slice totals %d+%d != %d", top.Total(), bottom.Total(), m.Total())
	}
}

func TestMatrixMergeMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := NewMatrix(3, 3, 2)
	b := NewMatrix(3, 3, 2)
	union := NewMatrix(3, 3, 2)
	for i := 0; i < 300; i++ {
		x, y, c := rng.Intn(3), rng.Intn(3), rng.Intn(2)
		if i%2 == 0 {
			a.Add(x, y, c)
		} else {
			b.Add(x, y, c)
		}
		union.Add(x, y, c)
	}
	a.Merge(b)
	for x := 0; x < 3; x++ {
		for y := 0; y < 3; y++ {
			ga, gu := a.Cell(x, y), union.Cell(x, y)
			for c := range gu {
				if ga[c] != gu[c] {
					t.Fatalf("merged cell (%d,%d) class %d: %d != %d", x, y, c, ga[c], gu[c])
				}
			}
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on shape mismatch")
		}
	}()
	a := New1D(3, 2)
	b := New1D(4, 2)
	a.Merge(b)
}

func TestMatrixSliceBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad slice range")
		}
	}()
	NewMatrix(3, 3, 2).SliceX(2, 2)
}

// TestMatrixSliceXView: every X range of a random matrix is a view whose
// cells equal the parent's over that range, and whose marginals and class
// totals equal those of the range rebuilt cell by cell with AddN; and it
// aliases the parent, so a later count shows through.
func TestMatrixSliceXView(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMatrix(7, 4, 3)
	for i := 0; i < 800; i++ {
		m.Add(rng.Intn(7), rng.Intn(4), rng.Intn(3))
	}
	for lo := 0; lo < 7; lo++ {
		for hi := lo + 1; hi <= 7; hi++ {
			s := m.SliceX(lo, hi)
			if s.XBins() != hi-lo || s.YBins() != 4 || s.Classes() != 3 {
				t.Fatalf("SliceX(%d,%d) shape %dx%dx%d", lo, hi, s.XBins(), s.YBins(), s.Classes())
			}
			want := NewMatrix(hi-lo, 4, 3)
			for x := lo; x < hi; x++ {
				for y := 0; y < 4; y++ {
					for c, n := range m.Cell(x, y) {
						want.AddN(x-lo, y, c, int(n))
						if got := s.Cell(x-lo, y)[c]; got != n {
							t.Fatalf("SliceX(%d,%d) cell (%d,%d) class %d: %d, parent %d", lo, hi, x-lo, y, c, got, n)
						}
					}
				}
			}
			if !reflect.DeepEqual(s.MarginalX(), want.MarginalX()) || !reflect.DeepEqual(s.MarginalY(), want.MarginalY()) ||
				!reflect.DeepEqual(s.ClassTotals(), want.ClassTotals()) {
				t.Fatalf("SliceX(%d,%d): marginals or totals differ from the parent's range", lo, hi)
			}
		}
	}
	s := m.SliceX(2, 5)
	before := s.Cell(1, 3)[2]
	m.Add(3, 3, 2)
	if s.Cell(1, 3)[2] != before+1 {
		t.Fatal("SliceX copied the parent's counts; it must alias them")
	}
}
