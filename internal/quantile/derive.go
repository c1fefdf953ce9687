package quantile

import (
	"errors"
	"sort"
)

// Derive builds an equal-depth discretizer for a child node from its
// parent's interval histogram, without touching the data: the parent's cut
// points plus per-interval counts define a piecewise-linear CDF (uniform
// within each interval), which is restricted to the child's value range
// (lo, hi] and inverted at equal-depth quantiles. domainMin and domainMax
// bound the outermost intervals. bins is the target interval count; the
// result may have fewer after deduplication.
func Derive(parent *Discretizer, counts []int, lo, hi float64, bins int, domainMin, domainMax float64) (*Discretizer, error) {
	if bins < 2 {
		return nil, errors.New("quantile: need at least 2 intervals")
	}
	if len(counts) != parent.Bins() {
		return nil, errors.New("quantile: counts length does not match parent bins")
	}
	// CDF knots: values edge[0..B] with cumulative counts cum[0..B].
	b := parent.Bins()
	edges := make([]float64, b+1)
	edges[0] = domainMin
	for i := 0; i < b-1; i++ {
		edges[i+1] = parent.Boundary(i)
	}
	edges[b] = domainMax
	if edges[b] < edges[0] {
		return nil, errors.New("quantile: domainMax < domainMin")
	}
	cum := make([]float64, b+1)
	for i, c := range counts {
		cum[i+1] = cum[i] + float64(c)
	}

	cdf := func(v float64) float64 {
		if v <= edges[0] {
			return 0
		}
		if v >= edges[b] {
			return cum[b]
		}
		// Find interval i with edges[i] < v <= edges[i+1].
		i := sort.SearchFloat64s(edges, v) // smallest i with edges[i] >= v
		if i <= b && i > 0 && edges[i] == v {
			return cum[i]
		}
		i-- // now edges[i] < v < edges[i+1]
		w := edges[i+1] - edges[i]
		if w <= 0 {
			return cum[i+1]
		}
		return cum[i] + (cum[i+1]-cum[i])*(v-edges[i])/w
	}
	inv := func(target float64) float64 {
		// Find the knot interval containing the target mass.
		i := sort.SearchFloat64s(cum, target)
		if i > 0 {
			i--
		}
		if i >= b {
			i = b - 1
		}
		// Skip flat (zero-count) stretches.
		for i < b-1 && cum[i+1] <= target && cum[i+1] == cum[i] {
			i++
		}
		mass := cum[i+1] - cum[i]
		if mass <= 0 {
			return edges[i+1]
		}
		return edges[i] + (edges[i+1]-edges[i])*(target-cum[i])/mass
	}

	clo, chi := lo, hi
	if clo < edges[0] {
		clo = edges[0]
	}
	if chi > edges[b] {
		chi = edges[b]
	}
	mlo, mhi := cdf(clo), cdf(chi)
	if mhi <= mlo {
		// Empty range; a single-interval discretizer is still valid.
		return &Discretizer{}, nil
	}
	cuts := make([]float64, 0, bins-1)
	for k := 1; k < bins; k++ {
		target := mlo + (mhi-mlo)*float64(k)/float64(bins)
		c := inv(target)
		if c <= clo || c >= chi {
			continue
		}
		if len(cuts) > 0 && c <= cuts[len(cuts)-1] {
			continue
		}
		cuts = append(cuts, c)
	}
	return fromCuts(cuts), nil
}
