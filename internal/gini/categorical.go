package gini

import (
	"math/bits"
	"slices"
)

// MaxSubsetCardinality bounds categorical domains: subsets are represented
// as uint64 bitmasks.
const MaxSubsetCardinality = 64

// exhaustiveSubsetLimit is the largest cardinality for which every subset is
// tried; beyond it a SPRINT-style greedy search is used.
const exhaustiveSubsetLimit = 14

// BestSubsetSplit finds a subset S of category values minimizing
// gini^D(  value in S  vs  value not in S  ). counts[v] is the per-class
// histogram of records with category value v. Small domains are searched
// exhaustively; larger ones greedily (grow S by the single value that most
// reduces the index, keeping the best partition seen — the heuristic SPRINT
// uses for large categorical domains).
//
// ok is false when no non-trivial split exists (fewer than two occupied
// values, or cardinality exceeds MaxSubsetCardinality).
func BestSubsetSplit[T Count](counts [][]T) (mask uint64, best float64, ok bool) {
	v := len(counts)
	if v < 2 || v > MaxSubsetCardinality {
		return 0, 0, false
	}
	nc := len(counts[0])
	total := make([]T, nc)
	occupied := 0
	for _, h := range counts {
		nz := false
		for c, n := range h {
			total[c] += n
			if n > 0 {
				nz = true
			}
		}
		if nz {
			occupied++
		}
	}
	if occupied < 2 {
		return 0, 0, false
	}

	if v <= exhaustiveSubsetLimit {
		return exhaustiveSubset(counts, total)
	}
	return greedySubset(counts, total)
}

// exhaustiveSubset tries every partition of the occupied values. Value 0's
// side is fixed to halve the search space (complements are equal), and
// mask bit val-1 stands for value val. Only submasks of the occupied set
// are enumerated, in ascending order: a mask that also takes empty values
// yields the same partition as its occupied part, which is smaller, so the
// first strictly-best mask is the one a walk over every mask would find.
func exhaustiveSubset[T Count](counts [][]T, total []T) (mask uint64, best float64, ok bool) {
	v := len(counts)
	left := make([]T, len(total))
	var occ uint64
	for val := 1; val < v; val++ {
		for _, n := range counts[val] {
			if n > 0 {
				occ |= 1 << uint(val-1)
				break
			}
		}
	}
	best = 2.0
	for m := occ & -occ; m != 0; m = (m - occ) & occ {
		clear(left)
		for r := m; r != 0; r &= r - 1 {
			for c, n := range counts[bits.TrailingZeros64(r)+1] {
				left[c] += n
			}
		}
		if slices.Equal(left, total) {
			continue
		}
		if g := SplitBelow(left, total); g < best {
			best = g
			mask = m << 1 // shift back: bit val-1 represented value val
			ok = true
		}
	}
	return mask, best, ok
}

// greedySubset grows the subset from the occupied values only: an empty
// value is never picked, and trying it adds zero counts, which changes
// nothing.
func greedySubset[T Count](counts [][]T, total []T) (mask uint64, best float64, ok bool) {
	v := len(counts)
	nc := len(total)
	left := make([]T, nc)
	var occ []int
	for val, h := range counts {
		for _, n := range h {
			if n > 0 {
				occ = append(occ, val)
				break
			}
		}
	}
	cur := uint64(0)
	best = 2.0
	for round := 0; round < v-1; round++ {
		pickVal := -1
		pickG := 2.0
		for _, val := range occ {
			if cur&(1<<uint(val)) != 0 {
				continue
			}
			for c, n := range counts[val] {
				left[c] += n
			}
			// Skip the degenerate all-records-left partition.
			if !slices.Equal(left, total) {
				if g := SplitBelow(left, total); g < pickG {
					pickG, pickVal = g, val
				}
			}
			for c, n := range counts[val] {
				left[c] -= n
			}
		}
		if pickVal == -1 {
			break
		}
		cur |= 1 << uint(pickVal)
		for c, n := range counts[pickVal] {
			left[c] += n
		}
		if pickG < best {
			best, mask, ok = pickG, cur, true
		}
	}
	return mask, best, ok
}
