package gini

import (
	"math"
	"math/rand"
	"testing"
)

func bruteBestSubset(counts [][]int) (uint64, float64, bool) {
	v := len(counts)
	nc := len(counts[0])
	total := make([]int, nc)
	for _, h := range counts {
		for c, n := range h {
			total[c] += n
		}
	}
	bestG := 2.0
	var bestMask uint64
	found := false
	for m := uint64(1); m < 1<<uint(v); m++ {
		left := make([]int, nc)
		ln := 0
		for val := 0; val < v; val++ {
			if m&(1<<uint(val)) != 0 {
				for c, n := range counts[val] {
					left[c] += n
					ln += n
				}
			}
		}
		tn := 0
		for _, c := range total {
			tn += c
		}
		if ln == 0 || ln == tn {
			continue
		}
		if g := SplitBelow(left, total); g < bestG {
			bestG, bestMask, found = g, m, true
		}
	}
	return bestMask, bestG, found
}

func TestBestSubsetSplitExhaustiveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		v := 2 + rng.Intn(6)
		counts := make([][]int, v)
		for i := range counts {
			counts[i] = []int{rng.Intn(8), rng.Intn(8)}
		}
		mask, g, ok := BestSubsetSplit(counts)
		bMask, bg, bok := bruteBestSubset(counts)
		if ok != bok {
			t.Fatalf("ok=%v brute=%v counts=%v", ok, bok, counts)
		}
		if fMask, fg, fok := BestSubsetSplit(toFloat(counts)); fMask != mask || fg != g || fok != ok {
			t.Fatalf("counts=%v: float64 counts give (%b, %v, %v), int (%b, %v, %v)", counts, fMask, fg, fok, mask, g, ok)
		}
		if !ok {
			continue
		}
		if math.Abs(g-bg) > 1e-12 {
			t.Fatalf("gini %v, brute %v (counts=%v mask=%b bruteMask=%b)", g, bg, counts, mask, bMask)
		}
	}
}

func TestBestSubsetSplitGreedyLargeDomain(t *testing.T) {
	// 20 values; greedy path. Value parity decides the class, so the
	// optimal subset is all-even (or all-odd) and greedy should find a
	// perfect split.
	counts := make([][]int, 20)
	for v := range counts {
		if v%2 == 0 {
			counts[v] = []int{10, 0}
		} else {
			counts[v] = []int{0, 10}
		}
	}
	mask, g, ok := BestSubsetSplit(counts)
	if !ok {
		t.Fatal("no split found")
	}
	if fMask, fg, fok := BestSubsetSplit(toFloat(counts)); fMask != mask || fg != g || !fok {
		t.Errorf("float64 counts give (%b, %v, %v), int (%b, %v, true)", fMask, fg, fok, mask, g)
	}
	if g > 1e-12 {
		t.Errorf("greedy gini = %v, want 0", g)
	}
	// The subset must be exactly one parity class.
	evens := uint64(0)
	for v := 0; v < 20; v += 2 {
		evens |= 1 << uint(v)
	}
	odds := evens << 1
	if mask != evens && mask != odds {
		t.Errorf("mask %b is not a parity class", mask)
	}
}

func TestBestSubsetSplitDegenerate(t *testing.T) {
	if _, _, ok := BestSubsetSplit([][]int{{1, 2}}); ok {
		t.Error("single value should not split")
	}
	if _, _, ok := BestSubsetSplit([][]int{{1, 2}, {0, 0}}); ok {
		t.Error("one occupied value should not split")
	}
	big := make([][]int, 65)
	for i := range big {
		big[i] = []int{1, 1}
	}
	if _, _, ok := BestSubsetSplit(big); ok {
		t.Error("cardinality beyond 64 should be rejected")
	}
}
