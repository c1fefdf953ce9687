// Command perfbench is the repository's benchmark: end-to-end build and
// serve figures, and a traced run that splits them layer by layer.
//
// # Running it
//
// From the repository root:
//
//	bash perfbench/run.sh --workload train-forest --seed 1 --seconds 45 --trace 0
//	bash perfbench/run.sh --workload serve-predict --seed 1 --seconds 45 --trace 1
//
// run.sh builds the program from source into .bench_build/ and keeps every
// file the Go toolchain and the runs write there. A run prints two JSON
// lines. The first is the report: the machine it ran on (NumCPU,
// GOMAXPROCS, Go version, GOARCH, CPU model, seed, and the calibration
// probe before and after the run), every metric with its unit, and the
// sample counts behind the timings. A metric that does not apply to the
// workload, or could not be measured, is null there with its reason; none
// is written as 0 to mean "not measured". The last line is the result:
// correct, attempted, failed, and the metrics BENCHMARK.json declares.
// --trace 0 puts the end-to-end metrics on it; --trace 1 the per-layer
// metrics that every workload measures. The report of a traced run holds
// both sets and every per-layer metric below.
//
// The self-test runs every workload at a tiny size:
//
//	cd perfbench && go test ./...
//
// # Workloads
//
// Every input is generated from --seed; the program only sees generated
// inputs. Labels carry 5% noise. Each run keeps at most two threads busy,
// the host's CPU count. BENCHMARK.json lists two workloads:
//
//   - train-forest: cmpdt.TrainForestFile, quantized CMP-B, 8 trees,
//     FeatureFrac 0.7, Parallel 2, Workers 1 per tree, over six 50k-record
//     Agrawal F2 stores with a page cache that holds the whole store. It
//     runs the quantize pass, the dense scans, the shared page cache and
//     the forest layer, and is the regime where the statistics cache
//     (ROADMAP item 2) would engage.
//   - serve-predict: one closed-loop client sends single-record POST
//     /predict bodies through serve.Server.Handler().ServeHTTP in process,
//     server Workers 1, model a quantized CMP-B tree trained on 50k F7
//     records. Per-request overhead dominates: mux, JSON decode and encode,
//     admission, the queue hop and the dispatcher wake-up.
//
// Transport is not measured: real sockets would add the kernel loopback
// and net/http scheduling.
//
// Two more workloads are registered and runnable but not listed:
//
//   - serve-batch: the same loop with 512-record POST /predict/batch
//     bodies against a 16-tree quantized forest trained on 20k F2 records,
//     where per-record decoding and forest scoring dominate. Beside
//     serve-predict it would separate a per-request fix from a per-number
//     parser fix (ROADMAP item 4). It is left out as unsteady: a 2.7 ms
//     request is hit by the host's stalls far more often than a 13 us one.
//     In one ten-seed set its latency_p90_ms ranged 3.3-10.5 ms and its
//     records_per_s 105-195k while latency_p50_ms held at 2.6-2.8 ms; in
//     an earlier set latency_p99_ms had a spread of 0.74 and records_per_s
//     of 0.22.
//   - train-raw: cmpdt.TrainFile, full CMP with oblique search, Workers 2,
//     no page cache, ten 100k-record F7 stores per run. It is left out
//     because the raw builder fails on some of its stores; the benchmark
//     counts each failed build, so the run reports correct=false.
//
// The raw builder's two failures:
//
//   - a deterministic panic at any worker count, "index out of range [28]
//     with length 19", in gapsFor (internal/core/phase2.go:578) reached
//     from makePending (phase2.go:889): the alive-interval index runs past
//     the discretizer's boundaries;
//   - at Workers 2 only, an intermittent panic, "index out of range [253]
//     with length 0" or "[0] with length 0", in the parallel in-memory
//     subtree finishing (internal/core/builder.go:1029, exact.BuildSubtree
//     under parallelDo).
//
// Seed 12 of train-raw hits both (its stores 8 and 5), and four of seeds
// 11 to 15 had at least one failed build:
//
//	bash perfbench/run.sh --workload train-raw --seed 12 --seconds 20 --trace 0
//
// The raw builder also fails serve-predict's set-up on some seeds when that
// workload trains a raw CMP tree (seed 304: "index out of range [2] with
// length 0", Workers 2, 50k F7 records), so serve-predict trains a
// quantized tree; and train-forest's forest on the raw CMP-B path panics
// in gapsFor via revertToBuilding (F2, 5% noise, 100k records, FeatureFrac
// 0.7), so it builds quantized. Until the raw builder is fixed no listed
// workload runs it, and its phases (sort, resolve, oblique) read zero.
//
// # End-to-end metrics
//
// The same seven names on every workload:
//
//   - setup_s: the program work a user pays before the first operation,
//     median of several repetitions in the run. Build workloads: generating
//     the records and writing the CMPDT2 stores. Serve workloads: training
//     the model, writing the model file, and serve.New plus Load until
//     ready.
//   - records_per_s: build workloads, training records of one store over
//     the median build time; serve workloads, records answered per second
//     in the closed loop.
//   - latency_p50_ms: the median time of one operation, one build or one
//     request.
//   - latency_p90_ms: the nearest-rank 90th percentile. A serve window
//     holds at least 1000 requests, so a hundred lie beyond it; a build run
//     makes ten to twenty builds, so there it is about the second slowest.
//     The report line also carries latency_p99_ms, which is left off the
//     result line: in a ten-seed set on a shared 2-vCPU Xeon host its
//     spread (quartile distance over median) was 0.74 on serve-batch and
//     0.19 on serve-predict, because host stalls of 5-30 ms, not the
//     program, set it.
//   - accuracy: build workloads, mean holdout accuracy of each store's
//     model; serve workloads, served answers that match the generator's
//     labels.
//   - max_rss_mb: peak resident set of the timed phase only (VmHWM reset
//     after the heap is settled), so set-up memory does not hide in it.
//   - ok_frac: operations that succeeded and passed their check, out of
//     all attempted. A build fails on an error or when its serialized
//     model differs from the first build of the same store. A request
//     fails on a non-200 status, on a class that differs from the trained
//     model's own Predict on that record, or on a wrong model_version.
//     Failures are never retried, re-seeded or shrunk away.
//
// Steadiness. Different stores grow differently shaped trees, so a build
// run spreads its builds over several stores, round-robin, at least once
// each and twice for the first two. A serve run cuts its loop into windows
// of at least one second and 1000 requests (so even a window's p99 has ten
// samples beyond it) and reports the median over windows of each window's
// rate, p50, p90 and p99, which keeps one stalled window from moving a run.
//
// # Per-layer metrics
//
// The traced run times calls into each module's public functions and reads
// the cmpdt.Observer report the program already produces; it adds no
// tracing inside the program. Build workloads build every store once
// untraced and once with an Observer; serve workloads run the loop half
// untraced and half with MemStats metering, and observe the last set-up
// training. Each layer, with the end-to-end figure it should move:
//
//   - storage (scans, bytes_read_per_record, scan_ns_per_record from one
//     timed OpenFile plus Scan pass over the store, cache_hit_ratio,
//     physical_pages_read, code_bytes_per_record): records_per_s on
//     train-forest through the hit ratio. No effect on the serve loops.
//   - core (phase totals init, scan, sort, resolve, oblique, decide,
//     collect, prune in ms per build; phase_coverage, the phases' sum over
//     the build wall time, above 1 because phases nest and overlap; rounds,
//     quantize_ms, buffered_records, prediction_hit_ratio, double_splits,
//     oblique_splits, reverts, peak_memory_mb, shard_imbalance_max):
//     latency_p50_ms and records_per_s on train-forest through quantize and
//     collect; peak_memory_mb moves max_rss_mb. On the serve workloads they
//     describe the set-up training and move setup_s.
//   - stats (scans_saved, hit_ratio): records_per_s on train-forest only.
//     The cache is off by default, so scans_saved reads 0 and hit_ratio is
//     null (no lookups).
//   - forest (total_nodes, oob_error): records_per_s and accuracy on
//     train-forest.
//   - tree (nodes, model_bytes, model_load_ms from a timed
//     cmpdt.LoadPredictor, score_ns_per_record from PredictBatchWorkers on
//     one worker, one call per request as the dispatcher scores):
//     setup_s on the serve workloads through the load time, records_per_s
//     on serve-batch through scoring; little effect on serve-predict.
//   - serve (handler_us_p50; submit_us_p50, Server.Submit on the same
//     records without JSON; codec_us_p50 = handler - submit;
//     dispatch_us_p50 = submit - scoring; queue_wait_us_p50 and
//     queue_wait_us_mean and batch_records_mean from the server's registry
//     histograms; shed from Server.Summary): codec moves latency_p50_ms on
//     serve-predict and records_per_s on serve-batch; dispatch and queue
//     wait move serve-predict's latencies and barely serve-batch's. The
//     build workloads measure these on their own model with single-record
//     requests, for reference only.
//   - runtime (allocs_per_record, bytes_per_record, gc_count, gc_pause_ms,
//     from MemStats deltas around the traced loop): latency_p90_ms and
//     records_per_s on the serve workloads.
//   - machine.probe_ms, the median of a fixed integer loop timed five times
//     before and five times after the run, shows host drift beside the
//     figures; bench.trace_overhead is untraced over traced records_per_s.
//
// Null in the report: core.quantize_ms and storage.code_bytes_per_record
// on forests (the forest's merged Observer report has no quant block) and
// on raw builds (no quantize pass); forest.* on single trees;
// core.prediction_hit_ratio when no prediction was made (small stores);
// stats.hit_ratio without lookups. The result line of a traced run carries
// only metrics measured on every workload at every size; the others, and
// the phases that are zero on the quantized path (sort, resolve, oblique),
// are on the report line. queue_wait_us_p50 is the upper bound of a
// registry histogram bucket, so the mean sits beside it on the result
// line. dispatch_us_p50 is a difference of two medians and can read below
// zero on serve-batch, where scoring is nearly all of Submit.
//
// # Noise
//
// Before this benchmark, serve-batch latency_p99_ms moved 3.39 to 2.73 ms
// and records_per_s 7% between identical runs, a setup_s under 0.03 s
// moved 8%, and a serve tail of 4.04 ms sat on a 0.043 ms mean (the host's
// timer tick). Earlier prototypes measured serve-predict at 61-81k req/s,
// p50 9-12 us, p99 23-37 us; serve-batch at 219-289k records/s, with 2 s
// windows in one process ranging 404-530 req/s, and body decoding at
// 3.5-4.1 us/record against 262-285 ns/record of forest scoring; a raw
// 200k-record F7 build at 2.3-2.5 s and a 200k-record forest at 5.4-6.8 s;
// a fixed ALU loop at 0.61-0.73 s within one minute.
//
// On a 2-vCPU Intel Xeon host shared with other tenants, serve windows
// inside one run vary by about 15%, same-seed runs by about 8%, and the
// calibration probe by up to 1.8x between runs minutes apart; build and
// serve times track the probe. A ten-seed set of 45 s runs (seeds 401-410)
// gave these spreads, quartile distance over median:
//
//	metric           train-forest  serve-predict  bound
//	records_per_s    0.064         0.075          0.25
//	latency_p50_ms   0.065         0.042          0.25
//	latency_p90_ms   0.092         0.067          0.25
//	accuracy         0.002         0.007          0.03
//	max_rss_mb       0.065         0.046          0.20
//	ok_frac          0             0              0.01
//	setup_s          0.19          0.19           0.25
//
// Sets of 30 s runs taken while the probe drifted more read 0.10-0.20 on
// the train-forest times, so the time bounds sit at the 0.25 ceiling.
package main
