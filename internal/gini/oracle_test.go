package gini

import (
	"math/rand"
	"testing"
)

// exhaustiveSubsetOracle is the walk over every mask that exhaustiveSubset
// replaced: it tries all 2^(v-1) masks, empty values included, and keeps
// the first strictly-best one.
func exhaustiveSubsetOracle(counts [][]int, total []int) (mask uint64, best float64, ok bool) {
	v := len(counts)
	nc := len(total)
	left := make([]int, nc)
	best = 2.0
	for m := uint64(1); m < 1<<uint(v-1); m++ {
		for c := range left {
			left[c] = 0
		}
		empty := true
		for val := 1; val < v; val++ {
			if m&(1<<uint(val-1)) == 0 {
				continue
			}
			for c, n := range counts[val] {
				left[c] += n
				if n > 0 {
					empty = false
				}
			}
		}
		if empty {
			continue
		}
		full := true
		for c := range left {
			if left[c] != total[c] {
				full = false
				break
			}
		}
		if full {
			continue
		}
		if g := SplitBelow(left, total); g < best {
			best = g
			mask = m << 1
			ok = true
		}
	}
	return mask, best, ok
}

// estimateIntervalOracle is EstimateInterval as it was before its scratch
// moved to one block: fresh slices for every climb.
func estimateIntervalOracle(x, y, total []int) Estimate {
	c := len(total)
	e := Estimate{
		BoundaryLeft:  SplitBelow(x, total),
		BoundaryRight: SplitBelow(y, total),
	}
	inside := make([]int, c)
	for i := 0; i < c; i++ {
		inside[i] = y[i] - x[i]
	}
	cur := append([]int(nil), x...)
	rem := append([]int(nil), inside...)
	e.LR = climb(cur, rem, total, true)
	cur = append([]int(nil), y...)
	rem = append([]int(nil), inside...)
	e.RL = climb(cur, rem, total, false)
	e.Est = e.BoundaryLeft
	for _, v := range []float64{e.BoundaryRight, e.LR, e.RL} {
		if v < e.Est {
			e.Est = v
		}
	}
	return e
}

// toFloat copies an integer count table into the float64 form the stream
// builder scores.
func toFloat(counts [][]int) [][]float64 {
	out := make([][]float64, len(counts))
	for v, row := range counts {
		out[v] = make([]float64, len(row))
		for c, n := range row {
			out[v][c] = float64(n)
		}
	}
	return out
}

// randomCountTable returns a [v][nc] count table with some empty values
// and, often, repeated rows, so partitions tie.
func randomCountTable(rng *rand.Rand, v, nc int) [][]int {
	counts := make([][]int, v)
	for val := range counts {
		counts[val] = make([]int, nc)
		switch {
		case rng.Intn(4) == 0: // empty value
		case val > 0 && rng.Intn(3) == 0: // tie: repeat an earlier row
			copy(counts[val], counts[rng.Intn(val)])
		default:
			for c := range counts[val] {
				counts[val][c] = rng.Intn(6)
			}
		}
	}
	return counts
}

func TestExhaustiveSubsetMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 3000; iter++ {
		v := 2 + rng.Intn(exhaustiveSubsetLimit-1)
		nc := 2 + rng.Intn(2)
		counts := randomCountTable(rng, v, nc)
		total := make([]int, nc)
		for _, h := range counts {
			for c, n := range h {
				total[c] += n
			}
		}
		mask, g, ok := exhaustiveSubset(counts, total)
		wMask, wg, wok := exhaustiveSubsetOracle(counts, total)
		if mask != wMask || g != wg || ok != wok {
			t.Fatalf("counts=%v: got (%b, %v, %v), oracle (%b, %v, %v)", counts, mask, g, ok, wMask, wg, wok)
		}
		fMask, fg, fok := exhaustiveSubset(toFloat(counts), toFloat([][]int{total})[0])
		if fMask != mask || fg != g || fok != ok {
			t.Fatalf("counts=%v: float64 counts give (%b, %v, %v), int (%b, %v, %v)", counts, fMask, fg, fok, mask, g, ok)
		}
	}
}

func TestEstimateIntervalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for iter := 0; iter < 3000; iter++ {
		nc := 2 + rng.Intn(10) // crosses the stack scratch limit
		x, y, total := make([]int, nc), make([]int, nc), make([]int, nc)
		for c := range total {
			x[c] = rng.Intn(20)
			y[c] = x[c] + rng.Intn(20)
			total[c] = y[c] + rng.Intn(20)
		}
		if got, want := EstimateInterval(x, y, total), estimateIntervalOracle(x, y, total); got != want {
			t.Fatalf("x=%v y=%v total=%v: got %+v, oracle %+v", x, y, total, got, want)
		}
	}
}

func TestEstimateIntervalZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by the race detector")
	}
	for nc := 1; nc <= stackClasses; nc++ {
		x, y, total := make([]int, nc), make([]int, nc), make([]int, nc)
		for c := range total {
			x[c], y[c], total[c] = c, 2*c+1, 3*c+2
		}
		if allocs := testing.AllocsPerRun(100, func() { EstimateInterval(x, y, total) }); allocs != 0 {
			t.Errorf("%d classes: %v allocs per call, want 0", nc, allocs)
		}
	}
}
