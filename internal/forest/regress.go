package forest

import (
	"context"
	"fmt"
	"math"

	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/quantile"
	"cmpdt/internal/storage"
	"cmpdt/internal/tree"
)

// Regression trees reuse the CMP machinery's shape — equal-depth binned
// histograms, one sequential scan per tree level — with the gini criterion
// replaced by variance reduction. Targets are quantized to qSteps integer
// levels over their exact [min, max] range so every per-bin accumulation is
// an int64 sum: integer addition is associative, which makes the grown
// tree independent of the scan worker count without any per-worker
// ordering discipline (the proof CMP needs for its float-free histograms,
// carried over to the regression sums).
//
// Minimizing total child variance is equivalent to maximizing
// sum_L^2/n_L + sum_R^2/n_R (the squared-sums identity: the node's total
// sum of squares is constant across its split candidates), so count and
// sum per bin suffice — no sum of squares is tracked.

// qSteps is the target quantization resolution. 16 bits keeps int64 bin
// sums exact past 2^47 records while bounding the quantization error at
// span/65535 — far below the bin-boundary resolution that actually limits
// split quality here.
const qSteps = 65535

// rnode tracks one open (undecided) leaf during level-synchronous growth.
type rnode struct {
	tn    *tree.Node
	depth int
	// value is the node's provisional dequantized mean, inherited from the
	// parent split's histogram side; it stands in as the leaf value only
	// if the node never receives a record.
	value float64
}

// buildRegressTree grows one regression tree over src (tree i's masked
// view), restricted to the allowed split attributes (nil = all numeric
// attributes except the target).
func buildRegressTree(ctx context.Context, src storage.RangeSource, cfg Config, target int, attrs []int, i int) (*tree.Tree, error) {
	schema := src.Schema()
	tc := cfg.Tree // validated by normalize
	sampleCap := tc.DiscretizeSample
	if sampleCap < 0 {
		sampleCap = math.MaxInt
	}

	allowed := make([]bool, schema.NumAttrs())
	if attrs == nil {
		for a := range allowed {
			allowed[a] = true
		}
	} else {
		for _, a := range attrs {
			allowed[a] = true
		}
	}
	var cands []int
	for a := 0; a < schema.NumAttrs(); a++ {
		if a != target && allowed[a] && schema.Attrs[a].Kind == dataset.Numeric {
			cands = append(cands, a)
		}
	}

	// Pass 1 (serial): reject the records Schema.RecordDefect flags, as a
	// classification tree does under ValidateStrict, prefix-sample
	// candidate values for discretization and find the target's exact
	// range and mean. Serial by design — the root mean accumulates in
	// float64, and this pass alone orders those additions. The later
	// passes read the same records, so they see only finite values.
	samples := make(map[int][]float64, len(cands))
	tmin, tmax := math.Inf(1), math.Inf(-1)
	rootSum, rootN := 0.0, int64(0)
	err := src.Scan(func(rid int, vals []float64, label int) error {
		if d := schema.RecordDefect(vals, label); d != "" {
			return fmt.Errorf("forest: tree %d: record %d invalid: %s", i, rid, d)
		}
		t := vals[target]
		if t < tmin {
			tmin = t
		}
		if t > tmax {
			tmax = t
		}
		rootSum += t
		rootN++
		if rid < sampleCap {
			for _, a := range cands {
				samples[a] = append(samples[a], vals[a])
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rootN == 0 {
		return nil, fmt.Errorf("forest: tree %d: empty training view", i)
	}
	rootMean := rootSum / float64(rootN)

	root := &tree.Node{N: int(rootN), Value: rootMean}
	out := &tree.Tree{Root: root, Schema: schema}
	if tmax == tmin {
		// Constant target: nothing to reduce.
		return out, nil
	}

	disc := make(map[int]*quantile.Discretizer, len(cands))
	var usable []int
	for _, a := range cands {
		d, err := quantile.EqualDepth(samples[a], tc.Intervals)
		if err != nil || d.Bins() < 2 {
			continue
		}
		disc[a] = d
		usable = append(usable, a)
	}
	if len(usable) == 0 {
		return out, nil
	}
	cands = usable

	qscale := float64(qSteps) / (tmax - tmin)
	quantize := func(t float64) int64 {
		return int64(math.Round((t - tmin) * qscale))
	}
	dequant := func(sum, n int64) float64 {
		return tmin + (float64(sum)/float64(n))/qscale
	}

	// Bin accumulator layout: per open node one flat []int64 holding
	// (count, sum) pairs for every candidate's bins back to back.
	off := make(map[int]int, len(cands))
	stride := 0
	for _, a := range cands {
		off[a] = stride
		stride += 2 * disc[a].Bins()
	}

	open := []*rnode{{tn: root, depth: 0, value: rootMean}}
	for round := 1; len(open) > 0 && round <= core.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		idx := make(map[*tree.Node]int, len(open))
		for oi, rn := range open {
			idx[rn.tn] = oi
		}
		type acc struct {
			n, sum int64
			h      []int64
		}
		shards := make([][]acc, tc.Workers)
		for w := range shards {
			shards[w] = make([]acc, len(open))
			for oi := range shards[w] {
				shards[w][oi].h = make([]int64, stride)
			}
		}
		err := storage.ParallelScan(ctx, src, tc.Workers, func(w, rid int, vals []float64, label int) error {
			cur := root
			for cur.Split != nil {
				if cur.Split.GoesLeft(vals) {
					cur = cur.Left
				} else {
					cur = cur.Right
				}
			}
			oi, ok := idx[cur]
			if !ok {
				return nil // finalized leaf
			}
			a := &shards[w][oi]
			tq := quantize(vals[target])
			a.n++
			a.sum += tq
			for _, ca := range cands {
				pos := off[ca] + 2*disc[ca].Interval(vals[ca])
				a.h[pos]++
				a.h[pos+1] += tq
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Merge shards; integer sums, so order is irrelevant to the total.
		tot := shards[0]
		for w := 1; w < tc.Workers; w++ {
			for oi := range tot {
				tot[oi].n += shards[w][oi].n
				tot[oi].sum += shards[w][oi].sum
				for p, v := range shards[w][oi].h {
					tot[oi].h[p] += v
				}
			}
		}

		var next []*rnode
		for oi, rn := range open {
			t := &tot[oi]
			if t.n == 0 {
				// A child receives the records its parent's histogram
				// counted, so this is a guard only: keep the provisional
				// value.
				rn.tn.Value = rn.value
				continue
			}
			rn.tn.N = int(t.n)
			rn.tn.Value = dequant(t.sum, t.n)
			if rn.depth >= tc.MaxDepth || t.n < exact.MinSplitRecords {
				continue
			}
			base := float64(t.sum) * float64(t.sum) / float64(t.n)
			bestScore := math.Inf(-1)
			bestAttr, bestBoundary := -1, -1
			var bestNL, bestSumL int64
			for _, ca := range cands {
				d := disc[ca]
				var nL, sumL int64
				for b := 1; b < d.Bins(); b++ {
					nL += t.h[off[ca]+2*(b-1)]
					sumL += t.h[off[ca]+2*(b-1)+1]
					nR := t.n - nL
					sumR := t.sum - sumL
					if nL == 0 || nR <= 0 {
						continue
					}
					score := float64(sumL)*float64(sumL)/float64(nL) +
						float64(sumR)*float64(sumR)/float64(nR)
					if score > bestScore {
						bestScore = score
						bestAttr, bestBoundary = ca, b-1
						bestNL, bestSumL = nL, sumL
					}
				}
			}
			if bestAttr < 0 || bestScore-base <= minGain(base) {
				continue
			}
			nR := t.n - bestNL
			sumR := t.sum - bestSumL
			rn.tn.Split = &tree.Split{
				Kind:      tree.SplitNumeric,
				Attr:      bestAttr,
				Threshold: disc[bestAttr].Boundary(bestBoundary),
			}
			left := &tree.Node{N: int(bestNL), Value: dequant(bestSumL, bestNL)}
			right := &tree.Node{N: int(nR), Value: dequant(sumR, nR)}
			rn.tn.Left, rn.tn.Right = left, right
			next = append(next,
				&rnode{tn: left, depth: rn.depth + 1, value: left.Value},
				&rnode{tn: right, depth: rn.depth + 1, value: right.Value})
		}
		open = next
	}
	return out, nil
}

// minGain is the squared-sums improvement a split must clear: a relative
// epsilon of the node's own base term, guarding against accepting
// float64-rounding noise as signal.
func minGain(base float64) float64 {
	return 1e-9*base + 1e-6
}
