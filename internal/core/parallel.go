// Parallel build machinery. The per-round work CMP does is embarrassingly
// parallel in two places: the full-data scan that routes every record into
// histograms and buffers, and the per-node split resolution that follows.
// Both are sharded across a bounded worker pool here, under one invariant:
// any Workers value produces a bit-identical tree.
//
//   - The scan partitions the record ids into contiguous per-worker ranges
//     (storage.ParallelScan). Each worker routes its range into private
//     histogram and buffer shards; shards are merged in worker-index order,
//     so histogram counts (commutative sums) and buffered record order
//     (contiguous ranges concatenated in order) match a serial scan exactly.
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

// scanShard is one worker's private routing state for one parallel scan:
// per-node histogram and buffer shards, indexed by bnode id (the node set
// is frozen while a scan runs), allocated lazily on first touch.
type scanShard struct {
	nodes    []*bnode
	buffered int64 // records routed into alive-interval buffers
	skipped  int64 // invalid records dropped under ValidateSkip
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

// scanParallel is the sharded counterpart of the serial pass in scan():
// disjoint contiguous record ranges stream through routeTo into per-worker
// shards, merged deterministically afterwards. Validation and skip
// accounting shard the same way — each worker counts the invalid records
// of its own range, and the counts sum to the serial pass's total.
func (b *builder) scanParallel(rs storage.RangeSource) error {
	shards := make([]*scanShard, b.cfg.Workers)
	for w := range shards {
		shards[w] = &scanShard{nodes: make([]*bnode, len(b.nodes))}
	}
	span := b.obs.StartSpan(obs.PhaseScan)
	var observe func(storage.WorkerScan)
	if b.obs != nil {
		observe = func(ws storage.WorkerScan) {
			b.obs.AddWorkerScan(ws.Worker, ws.Records, ws.Ns)
		}
	}
	err := storage.ParallelScanObserved(b.ctx, rs, b.cfg.Workers, observe, func(worker, rid int, vals []float64, label int) error {
		if d := b.schema.RecordDefect(vals, label); d != "" {
			if b.cfg.Validation == ValidateStrict {
				return errInvalidRecord(rid, d)
			}
			shards[worker].skipped++
			return nil
		}
		b.routeTo(shards[worker], b.nodes[b.nid[rid]], rid, vals, label)
		return nil
	})
	if err != nil {
		return err
	}
	span.End()
	b.stats.SkippedRecords = 0
	for _, sh := range shards {
		b.mergeShard(sh.nodes)
		b.stats.BufferedRecords += sh.buffered
		b.stats.SkippedRecords += sh.skipped
	}
	b.finishScan()
	return nil
}

// doParallel runs f(0..n-1) across a pool of at most workers goroutines
// using a sync.WaitGroup and a bounded work channel. With one worker (or
// n <= 1) it runs inline, preserving the exact serial code path. f must only
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
