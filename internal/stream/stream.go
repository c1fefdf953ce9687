// Package stream implements online (incremental) CMP training: a builder
// that ingests an unbounded record stream and maintains a growing tree
// without ever rescanning history.
//
// Each frontier leaf passes through two phases. A *warming* leaf absorbs
// records into mergeable Greenwald-Khanna sketches (one per numeric
// attribute) plus a bounded raw buffer; once Warmup records arrive it
// *freezes*: equal-depth cut points are derived from the sketches — the
// same discretization the batch builders compute with a dedicated pass —
// and the buffer is replayed into dense per-bin class histograms, PR 8's
// quantized representation. A frozen leaf accumulates histogram mass and
// periodically attempts a split: candidate thresholds are the bin
// boundaries, and the best attribute's gini gain must beat the runner-up
// by a Hoeffding-style confidence radius eps = sqrt(ln(1/delta)/(2n))
// before a split commits — the streaming analogue of the paper's
// interval-estimate selection, with the deterministic interval test
// replaced by a probabilistic one. Children are seeded with empty
// sketches.
//
// Determinism: ingestion is batched, every batch is partitioned into
// fixed-size subchunks independent of the worker count, workers only
// precompute per-subchunk hints (bin codes, per-leaf delta sketches), and
// the commit applies subchunks serially in arrival order. A fixed seed and
// arrival order therefore yield a bit-identical tree — and snapshot
// sequence — at any worker count, the invariant every other build path in
// this repository pins.
package stream

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"cmpdt/internal/dataset"
	"cmpdt/internal/quantile"
)

// Config tunes the online builder. The zero value of any field selects the
// default noted on it; New rejects negative and other out-of-range values.
type Config struct {
	// Schema describes the record stream (required).
	Schema *dataset.Schema
	// Workers is the hint-precompute parallelism (0 = GOMAXPROCS,
	// 1 = serial). The committed tree is identical at any setting.
	Workers int
	// BatchSize is how many records are buffered before a commit pass
	// (default 512). Larger batches amortize the fork-join.
	BatchSize int
	// Warmup is how many records a leaf buffers before freezing its cut
	// points (default 400).
	Warmup int
	// Bins is the equal-depth interval count per numeric attribute
	// (default 128; at least 2).
	Bins int
	// Grace is how many records a frozen leaf absorbs between split
	// attempts (default 150).
	Grace int
	// Delta is the Hoeffding bound's failure probability, in (0, 1)
	// (default 1e-6).
	Delta float64
	// Tau is the tie-break threshold: when the confidence radius shrinks
	// below Tau the best attribute wins even if the runner-up is within
	// the radius (default 0.1).
	Tau float64
	// MaxDepth bounds the tree (default 24).
	MaxDepth int
	// HalfLife enables drift handling when positive: all node counts and
	// leaf histograms decay exponentially with this half-life, measured
	// in records (0 = no decay, no regrow).
	HalfLife int
}

const (
	// subchunk is the fixed partition unit inside a batch. It, not
	// Workers, defines the delta boundaries, which is what keeps the
	// result worker-count independent.
	subchunk = 64
	// minLeaf is the minimum per-side record mass for a split candidate.
	minLeaf = 5.0
	// gkEps is the GK sketch rank-error fraction; it lies in (0, 0.5), so
	// quantile.NewGK never fails.
	gkEps = 0.01
	// staleFraction triggers a subtree regrow when a committed split's
	// current gain (recomputed from decayed child counts) falls below
	// this fraction of its gain at commit time (only with HalfLife > 0).
	staleFraction = 0.1
)

// withDefaults rejects settings outside each field's range and replaces
// every zero field with its default.
func (c Config) withDefaults() (Config, error) {
	for _, f := range []struct {
		name string
		v    *int
		def  int
	}{
		{"Workers", &c.Workers, runtime.GOMAXPROCS(0)}, {"BatchSize", &c.BatchSize, 512},
		{"Warmup", &c.Warmup, 400}, {"Bins", &c.Bins, 128}, {"Grace", &c.Grace, 150},
		{"MaxDepth", &c.MaxDepth, 24}, {"HalfLife", &c.HalfLife, 0},
	} {
		if *f.v < 0 {
			return c, fmt.Errorf("stream: %s must not be negative, got %d", f.name, *f.v)
		}
		if *f.v == 0 {
			*f.v = f.def
		}
	}
	if c.Bins == 1 {
		return c, errors.New("stream: Bins must be 0 or at least 2, got 1")
	}
	if !(c.Delta == 0 || c.Delta > 0 && c.Delta < 1) {
		return c, fmt.Errorf("stream: Delta must be 0 or in (0, 1), got %v", c.Delta)
	}
	if !(c.Tau >= 0) {
		return c, fmt.Errorf("stream: Tau must not be negative, got %v", c.Tau)
	}
	if c.Delta == 0 {
		c.Delta = 1e-6
	}
	if c.Tau == 0 {
		c.Tau = 0.1
	}
	return c, nil
}

// Stats reports what the builder has done so far.
type Stats struct {
	// Records is the total ingested (committed) record count.
	Records int64
	// Splits counts committed splits; Freezes counts leaf cut-point
	// freezes; Regrows counts stale subtrees collapsed back to a leaf.
	Splits  int64
	Freezes int64
	Regrows int64
	// FirstSplitAt is the 1-based record index at which the first split
	// committed (0 while the tree is still a single leaf).
	FirstSplitAt int64
	// Nodes, Leaves and Depth describe the current tree shape.
	Nodes  int
	Leaves int
	Depth  int
	// SketchBytes approximates the memory held by live sketches: warming
	// GK summaries and buffers plus frozen histograms.
	SketchBytes int64
}

// Builder is the online trainer. It is not safe for concurrent use: one
// goroutine ingests; Snapshot and Stats may only be called between Ingest
// calls (cmd/cmpstream's single ingest loop is the intended shape).
type Builder struct {
	cfg    Config
	root   *snode
	gen    uint64
	stats  Stats
	closed bool

	// batch accumulator: flat records plus labels, reused between commits.
	k       int // attrs per record
	batch   []float64
	labels  []int
	m       int   // records pending in the batch
	applied int64 // records applied so far within the current commit
}

// ErrClosed is returned by Ingest after a commit pass failed or was
// cancelled; the builder's tree may be mid-batch and must not grow further.
var ErrClosed = errors.New("stream: builder is closed")

// New creates a builder for the given schema.
func New(cfg Config) (*Builder, error) {
	if cfg.Schema == nil {
		return nil, errors.New("stream: config needs a schema")
	}
	if err := cfg.Schema.Validate(); err != nil {
		return nil, err
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	b := &Builder{
		cfg:    cfg,
		k:      cfg.Schema.NumAttrs(),
		labels: make([]int, 0, cfg.BatchSize),
	}
	b.batch = make([]float64, 0, cfg.BatchSize*b.k)
	b.root = b.newLeaf(0, 0)
	return b, nil
}

// newLeaf allocates a frontier leaf node at the given depth with the given
// fallback class (the majority of whatever node it descends from).
func (b *Builder) newLeaf(depth, fallback int) *snode {
	v := &snode{
		counts:   make([]float64, b.cfg.Schema.NumClasses()),
		depth:    depth,
		fallback: fallback,
	}
	b.gen++
	lf := &leafState{gen: b.gen}
	if depth >= b.cfg.MaxDepth {
		lf.dead = true
	} else {
		lf.warming = true
		lf.sketch = make([]*quantile.GK, b.k)
		for a := 0; a < b.k; a++ {
			if b.cfg.Schema.Attrs[a].Kind == dataset.Numeric {
				lf.sketch[a], _ = quantile.NewGK(gkEps)
			}
		}
	}
	v.leaf = lf
	return v
}

// Ingest absorbs one record. The values are copied; a full batch triggers
// a commit pass, which is where ctx cancellation is honoured (the error is
// returned and the builder closes — a cancelled commit may leave the batch
// partially applied, which only matters if the caller intends to continue,
// and a cancelled caller does not). A record that fails
// dataset.Schema.RecordDefect (wrong arity, out-of-range label or category,
// NaN or infinite value) is rejected with an error naming the defect, and
// the builder is left unchanged.
func (b *Builder) Ingest(ctx context.Context, vals []float64, label int) error {
	if b.closed {
		return ErrClosed
	}
	if d := b.cfg.Schema.RecordDefect(vals, label); d != "" {
		return fmt.Errorf("stream: invalid record: %s", d)
	}
	b.batch = append(b.batch, vals...)
	b.labels = append(b.labels, label)
	b.m++
	if b.m >= b.cfg.BatchSize {
		return b.commit(ctx)
	}
	return nil
}

// Flush commits any partially filled batch, making every ingested record
// visible to Snapshot. Call before compiling a snapshot.
func (b *Builder) Flush(ctx context.Context) error {
	if b.closed {
		return ErrClosed
	}
	if b.m == 0 {
		return nil
	}
	return b.commit(ctx)
}

// hint is one record's precomputed routing work: the leaf the batch-start
// tree routes it to and, for frozen leaves, its per-attribute bin codes.
// A hint is only usable if the leaf's generation still matches at
// commit time; the fallback recomputation is identical, so hints never
// change the result, only the cost.
type hint struct {
	leaf  *snode
	gen   uint64
	codes []uint16
}

// codeNone marks an attribute value unusable for histogramming: a numeric
// attribute the leaf has no cuts for.
const codeNone = math.MaxUint16

// leafDelta carries one subchunk's mergeable GK delta sketches for one
// warming leaf, merged into the leaf in subchunk order at commit.
type leafDelta struct {
	leaf    *snode
	gen     uint64
	sketch  []*quantile.GK
	touched int
}

// subDelta is everything a worker precomputes for one subchunk.
type subDelta struct {
	hints  []hint
	leaves []*leafDelta // first-touch order within the subchunk
}

// commit applies the pending batch to the tree: workers precompute
// per-subchunk deltas against the batch-start tree, then a single serial
// pass applies subchunks in arrival order. Any error (including ctx
// cancellation) closes the builder; worker goroutines are always joined
// before commit returns.
func (b *Builder) commit(ctx context.Context) error {
	m := b.m
	numSub := (m + subchunk - 1) / subchunk
	deltas := make([]*subDelta, numSub)
	workers := max(min(b.cfg.Workers, numSub), 1)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for s := w; s < numSub; s += workers {
				if ctx.Err() != nil {
					return
				}
				deltas[s] = b.precompute(s)
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		b.closed = true
		return err
	}

	for s := 0; s < numSub; s++ {
		if err := ctx.Err(); err != nil {
			b.closed = true
			return err
		}
		b.apply(s, deltas[s])
	}

	b.stats.Records += int64(m)
	b.applied = 0
	if b.cfg.HalfLife > 0 {
		b.decayAndRegrow(m)
	}
	b.batch = b.batch[:0]
	b.labels = b.labels[:0]
	b.m = 0
	return nil
}

// subRange returns subchunk s's record index range within the batch.
func (b *Builder) subRange(s int) (int, int) {
	lo := s * subchunk
	return lo, min(lo+subchunk, b.m)
}

// record returns batch record i's values (a view into the batch buffer).
func (b *Builder) record(i int) []float64 {
	return b.batch[i*b.k : (i+1)*b.k]
}

// walk routes a record through the tree without mutating it, applying the
// same missing-value majority rule as tree.Tree prediction.
func walk(root *snode, vals []float64) *snode {
	v := root
	for v.split != nil {
		v = v.childFor(vals)
	}
	return v
}

// precompute builds subchunk s's delta against the batch-start tree:
// routing hints with bin codes for frozen leaves, and per-leaf GK delta
// sketches for warming leaves. Read-only on the tree.
func (b *Builder) precompute(s int) *subDelta {
	lo, hi := b.subRange(s)
	d := &subDelta{hints: make([]hint, hi-lo)}
	var byLeaf map[*snode]*leafDelta
	for i := lo; i < hi; i++ {
		vals := b.record(i)
		v := walk(b.root, vals)
		lf := v.leaf
		h := &d.hints[i-lo]
		h.leaf = v
		h.gen = lf.gen
		switch {
		case lf.dead:
		case lf.warming:
			if byLeaf == nil {
				byLeaf = make(map[*snode]*leafDelta)
			}
			ld := byLeaf[v]
			if ld == nil {
				ld = &leafDelta{leaf: v, gen: lf.gen, sketch: make([]*quantile.GK, b.k)}
				for a := 0; a < b.k; a++ {
					if lf.sketch[a] != nil {
						ld.sketch[a], _ = quantile.NewGK(gkEps)
					}
				}
				byLeaf[v] = ld
				d.leaves = append(d.leaves, ld)
			}
			for a := 0; a < b.k; a++ {
				if ld.sketch[a] != nil {
					ld.sketch[a].Add(vals[a])
				}
			}
			ld.touched++
		default:
			h.codes = lf.encode(vals, b.cfg.Schema)
		}
	}
	return d
}

// apply replays subchunk s onto the live tree in arrival order. Hints
// whose leaf generation went stale (the leaf froze, split, or was regrown
// earlier in this batch) are recomputed in place, so the result is
// identical whether or not any hint survived.
func (b *Builder) apply(s int, d *subDelta) {
	// Merge warming-leaf delta sketches first, in first-touch order; the
	// per-record loop then only appends to the leaf's raw buffer.
	for _, ld := range d.leaves {
		lf := ld.leaf.leaf
		if lf == nil || !lf.warming || lf.gen != ld.gen {
			continue // leaf changed earlier in the batch; records re-route below
		}
		for a := 0; a < b.k; a++ {
			if lf.sketch[a] != nil && ld.sketch[a] != nil {
				lf.sketch[a].Merge(ld.sketch[a])
			}
		}
		lf.merged = true
	}

	lo, hi := b.subRange(s)
	for i := lo; i < hi; i++ {
		b.applied++
		vals := b.record(i)
		label := b.labels[i]
		h := &d.hints[i-lo]

		// Route, bumping every node's class counts along the path.
		v := b.root
		v.counts[label]++
		v.n++
		for v.split != nil {
			v = v.childFor(vals)
			v.counts[label]++
			v.n++
		}
		lf := v.leaf
		valid := v == h.leaf && lf.gen == h.gen
		switch {
		case lf.dead:
		case lf.warming:
			lf.buf = append(lf.buf, brec{vals: append([]float64(nil), vals...), label: label})
			if !valid || !lf.merged {
				// Fresh leaf (created mid-batch) or stale hint: the
				// delta sketch does not cover this record.
				for a := 0; a < b.k; a++ {
					if lf.sketch[a] != nil {
						lf.sketch[a].Add(vals[a])
					}
				}
			}
			if len(lf.buf) >= b.cfg.Warmup {
				b.freeze(v)
			}
		default:
			codes := h.codes
			if !valid {
				codes = lf.encode(vals, b.cfg.Schema)
			}
			lf.observe(codes, label)
			lf.sinceAttempt++
			lf.nSinceFreeze++
			if lf.sinceAttempt >= b.cfg.Grace {
				lf.sinceAttempt = 0
				b.attemptSplit(v)
			}
		}
	}
}

// Stats returns a snapshot of the builder's counters and tree shape.
// Records counts committed records only; anything buffered in a partial
// batch is excluded until Flush.
func (b *Builder) Stats() Stats {
	st := b.stats
	st.Nodes, st.Leaves, st.Depth, st.SketchBytes = measure(b.root)
	return st
}

func measure(v *snode) (nodes, leaves, depth int, bytes int64) {
	if v == nil {
		return 0, 0, 0, 0
	}
	nodes = 1
	bytes = int64(len(v.counts)) * 8
	if lf := v.leaf; lf != nil {
		leaves = 1
		for _, s := range lf.sketch {
			if s != nil {
				bytes += s.ByteSize()
			}
		}
		for _, h := range lf.hist {
			bytes += int64(len(h)) * 8
		}
		if n := len(lf.buf); n > 0 {
			bytes += int64(n) * int64(len(lf.buf[0].vals)+1) * 8
		}
		return nodes, leaves, 0, bytes
	}
	ln, ll, ld, lb := measure(v.left)
	rn, rl, rd, rb := measure(v.right)
	nodes += ln + rn
	leaves = ll + rl
	depth = 1 + max(ld, rd)
	bytes += lb + rb
	return nodes, leaves, depth, bytes
}
