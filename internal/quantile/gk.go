package quantile

import (
	"errors"
	"math"
	"sort"
)

// GK is a Greenwald-Khanna epsilon-approximate quantile summary: a one-pass,
// bounded-memory sketch whose Query(phi) returns a value within eps*n ranks
// of the true phi-quantile. The init pass of a disk-resident build can feed
// every record through a GK sketch per attribute instead of holding a
// sample, the classic approach for quantiling data that does not fit in
// memory.
type GK struct {
	eps    float64
	n      int
	tuples []gkTuple
	// inserts since the last compression.
	sinceCompress int
}

// gkTuple is a summary entry: value v covers g ranks ending at rmax, with
// delta the uncertainty of rmax.
type gkTuple struct {
	v     float64
	g     int
	delta int
}

// NewGK creates a sketch with the given rank-error fraction (e.g. 0.005 for
// half-a-percent rank error).
func NewGK(eps float64) (*GK, error) {
	if eps <= 0 || eps >= 0.5 {
		return nil, errors.New("quantile: GK epsilon must be in (0, 0.5)")
	}
	return &GK{eps: eps}, nil
}

// Count returns how many values the sketch has absorbed.
func (s *GK) Count() int { return s.n }

// Size returns the number of tuples currently retained.
func (s *GK) Size() int { return len(s.tuples) }

// Add absorbs one value.
func (s *GK) Add(v float64) {
	idx := sort.Search(len(s.tuples), func(i int) bool { return s.tuples[i].v >= v })
	delta := 0
	if idx > 0 && idx < len(s.tuples) {
		delta = int(2*s.eps*float64(s.n)) - 1
		if delta < 0 {
			delta = 0
		}
	}
	s.tuples = append(s.tuples, gkTuple{})
	copy(s.tuples[idx+1:], s.tuples[idx:])
	s.tuples[idx] = gkTuple{v: v, g: 1, delta: delta}
	s.n++
	s.sinceCompress++
	if float64(s.sinceCompress) >= 1/(2*s.eps) {
		s.compress()
		s.sinceCompress = 0
	}
}

// compress merges adjacent tuples whose combined span stays within the
// error budget.
func (s *GK) compress() {
	if len(s.tuples) < 3 {
		return
	}
	budget := int(2 * s.eps * float64(s.n))
	out := s.tuples[:0]
	out = append(out, s.tuples[0])
	for i := 1; i < len(s.tuples); i++ {
		t := s.tuples[i]
		last := &out[len(out)-1]
		// Never merge the maximum away.
		if i < len(s.tuples)-1 && len(out) > 1 && last.g+t.g+t.delta <= budget {
			t.g += last.g
			out[len(out)-1] = t
		} else {
			out = append(out, t)
		}
	}
	s.tuples = out
}

// Query returns a value whose rank is within eps*n of ceil(phi*n).
func (s *GK) Query(phi float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	if phi <= 0 {
		return s.tuples[0].v
	}
	if phi >= 1 {
		return s.tuples[len(s.tuples)-1].v
	}
	target := int(math.Ceil(phi * float64(s.n)))
	allow := int(s.eps * float64(s.n))
	rmin := 0
	for i, t := range s.tuples {
		rmin += t.g
		rmax := rmin + t.delta
		if target-rmin <= allow && rmax-target <= allow {
			return t.v
		}
		if rmin > target+allow && i > 0 {
			return s.tuples[i-1].v
		}
	}
	return s.tuples[len(s.tuples)-1].v
}

// Merge absorbs another sketch into s, leaving other unchanged. The result
// summarizes the union of both inputs: tuple lists are interleaved in value
// order (each side's rank uncertainty carries over, so the merged summary
// keeps the larger of the two epsilon*n error radii) and then recompressed
// against the combined count's budget. Merging is what makes the sketch a
// streaming primitive: parallel ingestion shards can quantile their own
// slices independently and combine them in a deterministic order, the
// mergeable-summary model of the streaming split-finding literature. Both
// sketches must share the same epsilon.
func (s *GK) Merge(other *GK) error {
	if other == nil || other.n == 0 {
		return nil
	}
	if other.eps != s.eps {
		return errors.New("quantile: cannot merge GK sketches with different epsilons")
	}
	if s.n == 0 {
		s.n = other.n
		s.tuples = append(s.tuples[:0], other.tuples...)
		s.sinceCompress = 0
		return nil
	}
	// Interleave in value order. A tuple's rank uncertainty relative to the
	// union grows by the span of the other summary's next tuple (its rank
	// there is known only to within that tuple's g+delta), the standard
	// mergeable-summary adjustment.
	spanAfter := func(tuples []gkTuple, idx int) int {
		if idx >= len(tuples) {
			return 0
		}
		d := tuples[idx].g + tuples[idx].delta - 1
		if d < 0 {
			return 0
		}
		return d
	}
	merged := make([]gkTuple, 0, len(s.tuples)+len(other.tuples))
	i, j := 0, 0
	for i < len(s.tuples) || j < len(other.tuples) {
		var t gkTuple
		if j >= len(other.tuples) || (i < len(s.tuples) && s.tuples[i].v <= other.tuples[j].v) {
			t = s.tuples[i]
			t.delta += spanAfter(other.tuples, j)
			i++
		} else {
			t = other.tuples[j]
			t.delta += spanAfter(s.tuples, i)
			j++
		}
		merged = append(merged, t)
	}
	s.tuples = merged
	s.n += other.n
	s.sinceCompress = 0
	s.compress()
	return nil
}

// ByteSize approximates the sketch's in-memory footprint: the retained
// tuples plus the fixed header. Streaming builders report the sum over
// every live sketch as their sketch-memory gauge.
func (s *GK) ByteSize() int64 {
	const tupleBytes = 24 // three machine words: v, g, delta
	return int64(cap(s.tuples))*tupleBytes + 48
}

// Min and Max return the extreme values seen (exact: GK never merges the
// first or last tuple away).
func (s *GK) Min() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.tuples[0].v
}

// Max returns the largest value seen.
func (s *GK) Max() float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return s.tuples[len(s.tuples)-1].v
}

// Discretizer derives equal-depth cut points for q intervals from the
// sketch, deduplicating collapsed cuts the way EqualDepth does. Singleton
// marking is unavailable from a sketch (it cannot see individual runs), so
// heavy point masses are isolated by cut deduplication only.
func (s *GK) Discretizer(q int) (*Discretizer, error) {
	if q < 2 {
		return nil, errors.New("quantile: need at least 2 intervals")
	}
	if s.n == 0 {
		return nil, errors.New("quantile: empty sketch")
	}
	max := s.Max()
	var cuts []float64
	for k := 1; k < q; k++ {
		c := s.Query(float64(k) / float64(q))
		if len(cuts) > 0 && c <= cuts[len(cuts)-1] {
			continue
		}
		if c >= max {
			break
		}
		cuts = append(cuts, c)
	}
	return fromCuts(cuts), nil
}
