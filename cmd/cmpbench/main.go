// Command cmpbench regenerates the paper's evaluation: Table 1 and Figures
// 14-19. Each experiment prints the same rows/series the paper reports;
// absolute numbers differ from a 1999 Ultra SPARC 10, but the shape — which
// algorithm wins, by what factor, where the crossovers fall — is the claim
// being reproduced.
//
// Usage:
//
//	cmpbench                         # every experiment at laptop scale
//	cmpbench -exp fig16              # one experiment
//	cmpbench -exp table1 -full       # paper-scale record counts
//	cmpbench -disk -dir /tmp/cmp     # train from on-disk record stores
//	cmpbench -csv > results.csv      # machine-readable output
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"strings"

	"cmpdt/internal/cli"
	"cmpdt/internal/experiments"
	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

var experimentNames = []string{"table1", "fig2", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "trees", "accuracy", "curve", "infer", "cache", "forest", "serve", "buildq", "stream"}

func main() {
	exp := flag.String("exp", "all", "experiment: all, "+strings.Join(experimentNames, ", "))
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	full := flag.Bool("full", false, "paper-scale record counts (200k-2.5M; slow)")
	disk := flag.Bool("disk", false, "train from on-disk record stores")
	dir := flag.String("dir", "", "directory for -disk dataset files (default: OS temp dir)")
	n := flag.Int("n", 0, "override the Table 1 record count for the Agrawal rows")
	sizes := flag.String("sizes", "", "override sweep sizes, comma-separated (e.g. 50000,100000)")
	intervals := flag.Int("intervals", 100, "equal-depth intervals per attribute")
	workers := flag.Int("workers", 0, "build parallelism for the CMP family (0 = GOMAXPROCS, 1 = serial)")
	seed := flag.Int64("seed", 1, "dataset seed")
	csv := flag.Bool("csv", false, "emit CSV rows instead of aligned tables")
	inferJSON := flag.String("json", "", "for -exp infer/cache: also write the baseline to this file (e.g. BENCH_infer.json)")
	cache := flag.String("cache", "0", `page-cache capacity for -disk record stores and -exp cache, e.g. "64m" ("0" = default for -exp cache, uncached elsewhere)`)
	metricsJSON := flag.String("metrics-json", "", `write the aggregate observability report as JSON to this path ("-" for stderr)`)
	httpAddr := flag.String("http", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060) for the run's duration")
	flag.Parse()

	// Long sweeps honour Ctrl-C and -timeout between experiments: the
	// current experiment finishes, the rest are abandoned.
	ctx, stop := cli.Context(*timeout)
	defer stop()

	opts := experiments.Defaults()
	if *full {
		opts = experiments.PaperScale()
	}
	if *n != 0 {
		opts.N = *n
	}
	if *sizes != "" {
		opts.Sizes = opts.Sizes[:0]
		for _, s := range strings.Split(*sizes, ",") {
			var v int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &v); err != nil || v <= 0 {
				fmt.Fprintf(os.Stderr, "cmpbench: bad size %q\n", s)
				os.Exit(1)
			}
			opts.Sizes = append(opts.Sizes, v)
		}
	}
	opts.Intervals = *intervals
	opts.Eval.Workers = *workers
	opts.Seed = *seed
	opts.UseDisk = *disk
	opts.Dir = *dir
	cacheBytes, err := storage.ParseCacheSize(*cache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmpbench:", err)
		os.Exit(1)
	}
	opts.Eval.CacheBytes = cacheBytes

	// One collector aggregates every build the selected experiments run;
	// CMP-family rounds from successive builds append in execution order.
	var col *obs.Collector
	if *metricsJSON != "" || *httpAddr != "" {
		w := *workers
		if w <= 0 {
			w = runtime.GOMAXPROCS(0)
		}
		col = obs.NewCollector(w)
		opts.Eval.Obs = col
	}
	if *httpAddr != "" {
		go func() {
			err := http.ListenAndServe(*httpAddr, obs.Handler(col, nil))
			fmt.Fprintln(os.Stderr, "cmpbench: -http:", err)
		}()
		fmt.Fprintf(os.Stderr, "cmpbench: serving /metrics and /debug/pprof on http://%s\n", *httpAddr)
	}

	run := func(name string) error {
		switch name {
		case "table1":
			rows, err := opts.Table1()
			if err != nil {
				return err
			}
			fmt.Println("== Table 1: split fidelity (CMP vs exact; '-' = identical) ==")
			experiments.PrintTable1(os.Stdout, rows)
			return nil
		case "fig14", "fig15":
			fn := synth.F2
			if name == "fig15" {
				fn = synth.F7
			}
			rows, err := opts.Scalability(fn)
			if err != nil {
				return err
			}
			return emit(name, "scalability of the CMP family", rows, *csv)
		case "fig16", "fig17":
			fn := synth.F2
			if name == "fig17" {
				fn = synth.F7
			}
			rows, err := opts.Comparison(fn)
			if err != nil {
				return err
			}
			return emit(name, "CMP vs SPRINT / RainForest / CLOUDS", rows, *csv)
		case "fig18":
			rows, err := opts.FunctionF()
			if err != nil {
				return err
			}
			return emit(name, "linearly-correlated Function f", rows, *csv)
		case "fig19":
			rows, err := opts.Memory()
			if err != nil {
				return err
			}
			return emit(name, "peak memory", rows, *csv)
		case "accuracy":
			rows, err := opts.Accuracy()
			if err != nil {
				return err
			}
			fmt.Println("== Accuracy: held-out accuracy under 5% label noise ==")
			experiments.PrintAccuracy(os.Stdout, rows)
			return nil
		case "fig2":
			curve, err := opts.GiniCurve(synth.F2, "salary")
			if err != nil {
				return err
			}
			fmt.Println("== Figure 2: gini estimation and alive intervals (salary, Function 2) ==")
			experiments.PrintGiniCurve(os.Stdout, curve)
			return nil
		case "trees":
			uni, multi, err := opts.TreesComparison()
			if err != nil {
				return err
			}
			fmt.Println("== Figures 9 and 13: univariate vs multivariate trees on Function f ==")
			experiments.PrintTrees(os.Stdout, uni, multi)
			return nil
		case "infer":
			res, err := opts.Inference()
			if err != nil {
				return err
			}
			fmt.Println("== Inference: pointer vs compiled flat tree vs sharded batch ==")
			experiments.PrintInference(os.Stdout, res)
			if *inferJSON != "" {
				f, err := os.Create(*inferJSON)
				if err != nil {
					return err
				}
				if err := experiments.WriteInferJSON(f, res); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
			return nil
		case "cache":
			res, err := opts.CacheBench()
			if err != nil {
				return err
			}
			fmt.Println("== Page cache: uncached vs cold vs warm disk-resident builds ==")
			experiments.PrintCacheBench(os.Stdout, res)
			if *inferJSON != "" {
				f, err := os.Create(*inferJSON)
				if err != nil {
					return err
				}
				if err := experiments.WriteCacheJSON(f, res); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
			return nil
		case "forest":
			res, err := opts.ForestBench()
			if err != nil {
				return err
			}
			fmt.Println("== Forest: bagged ensemble determinism, OOB, and serving paths ==")
			experiments.PrintForestBench(os.Stdout, res)
			if *inferJSON != "" {
				f, err := os.Create(*inferJSON)
				if err != nil {
					return err
				}
				if err := experiments.WriteForestJSON(f, res); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
			return nil
		case "buildq":
			res, err := opts.BuildqBench()
			if err != nil {
				return err
			}
			fmt.Println("== Build quantization: raw vs bin-coded dense-histogram builds ==")
			experiments.PrintBuildqBench(os.Stdout, res)
			if *inferJSON != "" {
				f, err := os.Create(*inferJSON)
				if err != nil {
					return err
				}
				if err := experiments.WriteBuildqJSON(f, res); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
			return nil
		case "stream":
			res, err := opts.StreamBench()
			if err != nil {
				return err
			}
			fmt.Println("== Stream: online Hoeffding builder ingest, convergence, and snapshot compile ==")
			experiments.PrintStreamBench(os.Stdout, res)
			if *inferJSON != "" {
				f, err := os.Create(*inferJSON)
				if err != nil {
					return err
				}
				if err := experiments.WriteStreamJSON(f, res); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
			return nil
		case "serve":
			res, err := opts.ServeBench()
			if err != nil {
				return err
			}
			fmt.Println("== Serve: cmpserve pipeline throughput, latency, and load shedding ==")
			experiments.PrintServeBench(os.Stdout, res)
			if *inferJSON != "" {
				f, err := os.Create(*inferJSON)
				if err != nil {
					return err
				}
				if err := experiments.WriteServeJSON(f, res); err != nil {
					f.Close()
					return err
				}
				return f.Close()
			}
			return nil
		case "curve":
			rows, err := opts.LearningCurve(synth.F7)
			if err != nil {
				return err
			}
			fmt.Println("== Learning curve: accuracy vs training size (Function 7) ==")
			experiments.PrintLearningCurve(os.Stdout, rows)
			return nil
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	names := experimentNames
	if *exp != "all" {
		names = strings.Split(*exp, ",")
	}
	for _, name := range names {
		if err := ctx.Err(); err != nil {
			stop()
			cli.Fatal("cmpbench", fmt.Errorf("aborted before %q: %w", name, err))
		}
		if err := run(strings.TrimSpace(name)); err != nil {
			stop()
			cli.Fatal("cmpbench", err)
		}
		fmt.Println()
	}

	if *metricsJSON != "" {
		if err := writeMetrics(*metricsJSON, col.Snapshot()); err != nil {
			fmt.Fprintln(os.Stderr, "cmpbench:", err)
			os.Exit(1)
		}
	}
}

// writeMetrics emits the aggregate observability report as indented JSON to
// path, or to stderr when path is "-" (stdout carries the experiment
// tables).
func writeMetrics(path string, rep *obs.Report) error {
	if path == "-" {
		return rep.WriteJSON(os.Stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func emit(name, title string, rows []experiments.Row, csv bool) error {
	if csv {
		return experiments.WriteCSVRows(os.Stdout, rows)
	}
	fmt.Printf("== %s: %s ==\n", strings.ToUpper(name[:1])+name[1:], title)
	experiments.PrintRows(os.Stdout, rows)
	return nil
}
