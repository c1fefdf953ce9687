// Parallel build machinery. The per-round work CMP does is embarrassingly
// parallel in two places: the full-data scan that routes every record into
// histograms and buffers, and the per-node split resolution that follows.
// Both are sharded across a bounded worker pool here, under one invariant:
// any Workers value produces a bit-identical tree.
//
//   - The scan partitions the record ids into at most Workers contiguous
//     ranges (storage.ParallelScanObserved); one worker is the one-range
//     case of the same pass. A lone worker routes straight into the
//     frontier's nodes. Several route into private histogram and buffer
//     shards, merged in worker-index order, so histogram counts
//     (commutative sums) and buffered record order (contiguous ranges
//     concatenated in order) match the one-range pass exactly.
//   - Split resolution precomputes the pure, node-local work — buffer
//     sorting, gini hill-climbing, the oblique intercept walks, exact
//     subtree construction — across the pool, then applies all builder
//     mutations serially in the original node order.
package core

import (
	"sync"

	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
)

// scanShard is one worker's private routing state for one multi-worker
// pass: per-node histogram and buffer shards, indexed by bnode id (the node
// set is frozen while a scan runs), allocated lazily on first touch.
type scanShard struct {
	nodes    []*bnode
	buffered int64 // records routed into alive-interval buffers
}

// nodeFor returns the worker's shard of node n, allocating it on first
// touch: the histogram set of a building node, or the buffer of a
// pending/collect node. Builder state is only read: the histogram geometry
// comes from the node's discretizers and X-axis, which are frozen during a
// scan.
func (sh *scanShard) nodeFor(b *builder, n *bnode) *bnode {
	sn := sh.nodes[n.id]
	if sn == nil {
		sn = &bnode{}
		sn.buffer.init(b.na)
		if n.state == stBuilding {
			sn.histSet = b.makeHists(n)
		}
		sh.nodes[n.id] = sn
	}
	return sn
}

// pass performs one pass over the training set, routing every record to its
// place: histogram update, alive-interval buffer, collect buffer, or settled
// leaf. Validation shards like routing: each worker counts the invalid
// records of its own range, and the counts sum to the whole pass's. A
// gapOnly pass (CLOUDS-SSE's) fills alive-interval buffers only, reads nid
// without rewriting it, and is no construction round.
func (b *builder) pass(gapOnly bool) error {
	workers := b.cfg.Workers
	sink := func(_, rid int, vals []float64, label int) {
		b.routeTo(nil, b.nodes[b.nid[rid]], rid, vals, label, gapOnly)
	}
	var shards []*scanShard
	if workers > 1 {
		shards = make([]*scanShard, workers)
		for w := range shards {
			shards[w] = &scanShard{nodes: make([]*bnode, len(b.nodes))}
		}
		sink = func(w, rid int, vals []float64, label int) {
			b.routeTo(shards[w], b.nodes[b.nid[rid]], rid, vals, label, gapOnly)
		}
	}
	skipped := make([]int64, workers)
	span := b.obs.StartSpan(obs.PhaseScan)
	err := storage.ParallelScanObserved(b.ctx, b.src, workers, b.observeWorker, func(w, rid int, vals []float64, label int) error {
		if d := b.schema.RecordDefect(vals, label); d != "" {
			if b.cfg.Validation == ValidateStrict {
				return errInvalidRecord(rid, d)
			}
			skipped[w]++
			return nil
		}
		sink(w, rid, vals, label)
		return nil
	})
	if err != nil {
		return err
	}
	span.End()
	// Validation is pure per-record, so every pass skips the same records:
	// the count is recorded rather than accumulated.
	b.stats.SkippedRecords = 0
	for _, n := range skipped {
		b.stats.SkippedRecords += n
	}
	for _, sh := range shards {
		b.mergeShard(sh.nodes)
		b.stats.BufferedRecords += sh.buffered
	}
	if gapOnly {
		b.obs.IncScans()
		b.stats.Scans++
		b.stats.NidBytesIO += 4 * b.records
		return nil
	}
	b.finishScan()
	return nil
}

// doParallel runs f(0..n-1) across a pool of at most workers goroutines
// using a sync.WaitGroup and a bounded work channel. With one worker (or
// n <= 1) it runs inline on the caller's goroutine. f must only
// do pure, item-local work; a panic in any worker is re-raised on the
// caller's goroutine.
func doParallel(workers, n int, f func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	idx := make(chan int, workers)
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicOnce.Do(func() { panicked = r })
						}
					}()
					f(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}
