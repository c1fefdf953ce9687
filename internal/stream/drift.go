package stream

import (
	"math"

	"cmpdt/internal/gini"
)

// Drift handling: with a positive HalfLife every node's class counts and
// every frozen leaf's histograms decay exponentially at batch boundaries,
// so the tree's statistics track a sliding window of roughly
// HalfLife/ln(2) recent records. A committed split whose gain — recomputed
// from the decayed child distributions — collapses below staleFraction of
// its commit-time gain has stopped separating the current concept; the
// topmost such subtree is torn down and regrown from a fresh warming leaf.

// decayAndRegrow applies one batch's decay factor to the whole tree and
// then collapses stale subtrees. batchN is the number of records the batch
// carried (the decay clock).
func (b *Builder) decayAndRegrow(batchN int) {
	lambda := math.Exp(-math.Ln2 * float64(batchN) / float64(b.cfg.HalfLife))
	decay(b.root, lambda)
	b.regrowStale(b.root)
}

func decay(v *snode, lambda float64) {
	if v == nil {
		return
	}
	for c := range v.counts {
		v.counts[c] *= lambda
	}
	v.n *= lambda
	if lf := v.leaf; lf != nil {
		for a, h := range lf.hist {
			if h == nil {
				continue
			}
			for i := range h {
				h[i] *= lambda
			}
			lf.histN[a] *= lambda
		}
		return
	}
	decay(v.left, lambda)
	decay(v.right, lambda)
}

// regrowStale walks top-down and collapses the topmost stale internal
// node it finds on each path, so a drifted region is rebuilt from its
// highest stale ancestor rather than leaf by leaf.
func (b *Builder) regrowStale(v *snode) {
	if v == nil || v.split == nil {
		return
	}
	if b.isStale(v) {
		b.collapse(v)
		return
	}
	b.regrowStale(v.left)
	b.regrowStale(v.right)
}

// isStale recomputes the split's gain from the decayed child class
// distributions. Requiring a minimum decayed mass keeps freshly committed
// splits (whose children are still filling) out of the comparison.
func (b *Builder) isStale(v *snode) bool {
	l, r := v.left, v.right
	if sum(l.counts)+sum(r.counts) < float64(b.cfg.Warmup) {
		return false
	}
	parent := make([]float64, len(l.counts))
	for c := range parent {
		parent[c] = l.counts[c] + r.counts[c]
	}
	gain := gini.Index(parent) - gini.Split(l.counts, r.counts)
	return gain < staleFraction*v.committedGain
}

// collapse tears an internal node's subtree down to a fresh warming leaf,
// keeping the node's (decayed) class counts so prediction stays sane while
// it re-warms.
func (b *Builder) collapse(v *snode) {
	counts, n, depth := v.counts, v.n, v.depth
	fresh := b.newLeaf(depth, argmax(counts))
	v.split = nil
	v.left, v.right = nil, nil
	v.committedGain = 0
	v.leaf = fresh.leaf
	v.counts, v.n = counts, n
	v.fallback = fresh.fallback
	b.stats.Regrows++
}
