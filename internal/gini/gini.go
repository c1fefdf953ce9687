// Package gini implements the splitting index used throughout the paper:
// the gini index (Eq. 1), the gini index of a partition gini^D (Eq. 2-3),
// its gradient along a class direction (Eq. 4), and the CLOUDS-style
// hill-climbing lower-bound estimate for an interval (Eq. 5).
package gini

// Count is a per-class record count: exact integers for the batch
// builders (int32 where they sit in histograms), float64 for the stream
// builder, whose counts decay. Sums of counts are taken in float64, so
// they cannot overflow a narrow count type, and are exact for integers
// below 2^53: integral inputs give bit-identical results in every
// instantiation.
type Count interface{ int | int32 | float64 }

// Index returns gini(S) = 1 - sum_j p_j^2 for a set with the given per-class
// counts (Eq. 1). An empty set has index 0 by convention, matching the
// weighted-sum formulas where an empty part contributes nothing.
func Index[T Count](counts []T) float64 {
	n := 0.0
	for _, c := range counts {
		n += float64(c)
	}
	if n == 0 {
		return 0
	}
	sumSq := 0.0
	for _, c := range counts {
		p := float64(c) / n
		sumSq += p * p
	}
	return 1 - sumSq
}

// Split returns gini^D(S, cond) = sum_k (n_k/n) gini(S_k) for a partition of
// S into the given parts (Eq. 2, generalized to any number of parts as
// needed by the oblique-split search, which partitions into three).
func Split[T Count](parts ...[]T) float64 {
	n := 0.0
	for _, p := range parts {
		for _, c := range p {
			n += float64(c)
		}
	}
	if n == 0 {
		return 0
	}
	g := 0.0
	for _, p := range parts {
		np := 0.0
		for _, c := range p {
			np += float64(c)
		}
		if np == 0 {
			continue
		}
		g += np / n * Index(p)
	}
	return g
}

// SplitBelow returns gini^D(S, a <= v) given the cumulative per-class counts
// below of records with a <= v and the node's per-class totals (Eq. 3).
// It avoids materializing the complement.
func SplitBelow[T Count](below, total []T) float64 {
	nl, n := 0.0, 0.0
	for i := range total {
		nl += float64(below[i])
		n += float64(total[i])
	}
	if n == 0 {
		return 0
	}
	nu := n - nl
	var gl, gu float64
	if nl > 0 {
		sum := 0.0
		for _, c := range below {
			p := float64(c) / nl
			sum += p * p
		}
		gl = 1 - sum
	}
	if nu > 0 {
		sum := 0.0
		for i := range total {
			p := (float64(total[i]) - float64(below[i])) / nu
			sum += p * p
		}
		gu = 1 - sum
	}
	return nl/n*gl + nu/n*gu
}

// Gradient returns d gini^D(S, a <= v_l) / d x_i (Eq. 4): the sensitivity of
// the partition index to moving one more record of class i below the split.
// x holds the cumulative per-class counts at v_l and total the node's
// per-class totals. The gradient is undefined when either side is empty; the
// caller never evaluates it there (the hill climb starts strictly inside the
// node's value range).
func Gradient(x, total []int, class int) float64 {
	nl, n := 0, 0
	for i := range total {
		nl += x[i]
		n += total[i]
	}
	nu := n - nl
	if nl == 0 || nu == 0 {
		return 0
	}
	fl, fu, fn := float64(nl), float64(nu), float64(n)
	var sumAbove, sumBelow float64 // sum (c_i - x_i)^2 and sum x_i^2
	for i := range total {
		d := float64(total[i] - x[i])
		sumAbove += d * d
		xb := float64(x[i])
		sumBelow += xb * xb
	}
	ci := float64(total[class])
	xi := float64(x[class])
	return 2/(fl*fu)*(ci*fl/fn-xi) - (1/fn)*(sumAbove/(fu*fu)-sumBelow/(fl*fl))
}

// Estimate is the outcome of estimating the minimum gini^D inside one
// interval of a discretized attribute.
type Estimate struct {
	// Est is the final estimate per Eq. 5: the minimum of the two boundary
	// values and the two hill-climbing sweeps.
	Est float64
	// BoundaryLeft and BoundaryRight are gini^D at the interval's left and
	// right boundaries.
	BoundaryLeft, BoundaryRight float64
	// LR and RL are the minima found by the left-to-right and right-to-left
	// hill climbs (Est_GiniLR and Est_GiniRL in the paper).
	LR, RL float64
}

// EstimateInterval estimates the lowest gini^D achievable by any split point
// strictly inside the interval (v_l, v_u], per the CLOUDS heuristic the paper
// adopts (Section 2.1). x holds cumulative per-class counts at the left
// boundary, y at the right boundary, and total the node's per-class totals.
//
// The left-to-right climb starts at the left boundary and repeatedly advances
// past all remaining records of the class with the steepest-descending
// gradient, evaluating gini^D after each advance; this touches each class
// once, so the cost is O(c^2) rather than proportional to the records in the
// interval. The right-to-left climb mirrors it.
func EstimateInterval(x, y, total []int) Estimate {
	c := len(total)
	e := Estimate{
		BoundaryLeft:  SplitBelow(x, total),
		BoundaryRight: SplitBelow(y, total),
	}

	// One scratch block holds both climbs' cumulative counts and movable
	// records; small class counts stay on the stack.
	var stack [4 * stackClasses]int
	scratch := stack[:]
	if c > stackClasses {
		scratch = make([]int, 4*c)
	}
	lrCur, lrRem := scratch[:c], scratch[c:2*c]
	rlCur, rlRem := scratch[2*c:3*c], scratch[3*c:4*c]
	copy(lrCur, x)
	copy(rlCur, y)
	for i := 0; i < c; i++ {
		lrRem[i] = y[i] - x[i] // records of each class inside the interval
		rlRem[i] = lrRem[i]
	}

	// Left-to-right: advance the class with the minimum gradient.
	e.LR = climb(lrCur, lrRem, total, true)
	// Right-to-left: retreat the class with the maximum gradient.
	e.RL = climb(rlCur, rlRem, total, false)

	e.Est = e.BoundaryLeft
	for _, v := range []float64{e.BoundaryRight, e.LR, e.RL} {
		if v < e.Est {
			e.Est = v
		}
	}
	return e
}

// stackClasses is the class count up to which EstimateInterval keeps its
// scratch on the stack.
const stackClasses = 8

// climb performs one hill-climbing sweep. cur is the cumulative count vector
// being mutated; rem the per-class records still movable. When forward is
// true classes are added to cur (left-to-right, choosing the minimum
// gradient); otherwise they are removed (right-to-left, choosing the maximum
// gradient). Returns the minimum gini^D seen strictly after the first move.
func climb(cur, rem, total []int, forward bool) float64 {
	best := 2.0 // above any gini value
	for {
		pick := -1
		var pickG float64
		for i := range rem {
			if rem[i] == 0 {
				continue
			}
			g := Gradient(cur, total, i)
			if pick == -1 || (forward && g < pickG) || (!forward && g > pickG) {
				pick, pickG = i, g
			}
		}
		if pick == -1 {
			return best
		}
		if forward {
			cur[pick] += rem[pick]
		} else {
			cur[pick] -= rem[pick]
		}
		rem[pick] = 0
		if g := SplitBelow(cur, total); g < best {
			best = g
		}
	}
}
