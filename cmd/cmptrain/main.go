// Command cmptrain trains a decision tree over a binary record store (see
// cmpgen) with any of the repository's algorithms and prints the tree and
// its construction statistics.
//
// The build honours Ctrl-C (SIGINT/SIGTERM) and the optional -timeout: a
// cancelled CMP-family build stops at the next scan batch and exits with an
// error instead of leaving work half-done.
//
// Usage:
//
//	cmpgen -func f -n 200000 -out ff.rec
//	cmptrain -algo cmp -data ff.rec -all-pairs
//	cmptrain -algo sprint -data ff.rec -quiet
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"cmpdt"
	"cmpdt/internal/cli"
	"cmpdt/internal/eval"
	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
)

func main() {
	algo := flag.String("algo", "cmp", "algorithm: "+strings.Join(eval.Algorithms(), ", "))
	data := flag.String("data", "", "binary record store to train on (required)")
	intervals := flag.Int("intervals", 100, "equal-depth intervals per numeric attribute")
	alive := flag.Int("alive", 2, "maximum alive intervals per split")
	allPairs := flag.Bool("all-pairs", false, "full CMP: matrices for every numeric attribute pair (an error with any other -algo or with -quantize)")
	noPrune := flag.Bool("no-prune", false, "disable MDL pruning")
	workers := flag.Int("workers", 0, "build parallelism for the CMP family (0 = GOMAXPROCS, 1 = serial; any value yields the identical tree)")
	seed := flag.Int64("seed", 1, "training seed")
	timeout := flag.Duration("timeout", 0, "abort the build after this duration (0 = no limit)")
	skipInvalid := flag.Bool("skip-invalid", false, "drop records with NaN/Inf features or out-of-range labels instead of aborting (CMP family)")
	cache := flag.String("cache", "0", `page-cache capacity for the record store, e.g. "64m", "1g", plain bytes ("0" = uncached)`)
	quantize := flag.Bool("quantize", false, "bin-coded dense-histogram build for the CMP family (thresholds stay in raw units)")
	quantizeBins := flag.Int("quantize-bins", 0, "code-table resolution for -quantize (0 = -intervals)")
	quiet := flag.Bool("quiet", false, "suppress the tree printout")
	save := flag.String("save", "", "write the trained model as JSON to this path")
	metricsJSON := flag.String("metrics-json", "", `write the observability report as JSON to this path ("-" for stdout)`)
	forestMode := flag.Bool("forest", false, "train a bagged forest of CMP trees instead of a single tree")
	trees := flag.Int("trees", 16, "ensemble size for -forest")
	featureFrac := flag.Float64("feature-frac", 1.0, "fraction of attributes each -forest tree may split on (0 < f <= 1)")
	noBootstrap := flag.Bool("no-bootstrap", false, "train every -forest tree on the full set (disables out-of-bag estimation)")
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	cacheBytes, err := storage.ParseCacheSize(*cache)
	if err != nil {
		cli.Fatal("cmptrain", err)
	}
	opts := eval.Options{
		Intervals:       *intervals,
		MaxAlive:        *alive,
		ObliqueAllPairs: *allPairs,
		PruneOff:        *noPrune,
		Workers:         *workers,
		Seed:            *seed,
		SkipInvalid:     *skipInvalid,
		CacheBytes:      cacheBytes,
		Quantize:        *quantize,
		QuantizeBins:    *quantizeBins,
	}
	if *forestMode {
		fcfg := forestOptions{
			algo:        *algo,
			trees:       *trees,
			featureFrac: *featureFrac,
			noBootstrap: *noBootstrap,
			eval:        opts,
		}
		if err := runForest(ctx, fcfg, *data, *save, *metricsJSON, os.Stdout); err != nil {
			stop()
			cli.Fatal("cmptrain", err)
		}
		return
	}
	if err := run(ctx, *algo, *data, *save, *metricsJSON, *quiet, opts, os.Stdout); err != nil {
		stop()
		cli.Fatal("cmptrain", err)
	}
}

// forestOptions carries the -forest flags plus the shared tree knobs.
type forestOptions struct {
	algo        string
	trees       int
	featureFrac float64
	noBootstrap bool
	eval        eval.Options
}

// runForest trains a bagged ensemble through the public forest API and
// prints its summary. Only the CMP family can serve as the member
// algorithm: the forest layer drives per-tree feature subsets through
// SplitAttrs, which the baseline classifiers do not support.
func runForest(ctx context.Context, fo forestOptions, data, save, metricsJSON string, stdout io.Writer) error {
	if data == "" {
		return fmt.Errorf("-data is required")
	}
	var algo cmpdt.Algorithm
	switch fo.algo {
	case eval.AlgoCMPS:
		algo = cmpdt.CMPS
	case eval.AlgoCMPB:
		algo = cmpdt.CMPB
	case eval.AlgoCMP:
		algo = cmpdt.CMP
	default:
		return fmt.Errorf("-forest requires a CMP-family -algo (cmp-s, cmp-b, cmp), got %q", fo.algo)
	}
	cfg := cmpdt.ForestConfig{
		Trees:       fo.trees,
		FeatureFrac: fo.featureFrac,
		NoBootstrap: fo.noBootstrap,
		Seed:        fo.eval.Seed,
		Tree: cmpdt.Config{
			Algorithm:       algo,
			Intervals:       fo.eval.Intervals,
			MaxAlive:        fo.eval.MaxAlive,
			ObliqueAllPairs: fo.eval.ObliqueAllPairs,
			DisablePruning:  fo.eval.PruneOff,
			Workers:         fo.eval.Workers,
			Seed:            fo.eval.Seed,
			CacheBytes:      fo.eval.CacheBytes,
			Quantize:        fo.eval.Quantize,
			QuantizeBins:    fo.eval.QuantizeBins,
		},
	}
	if fo.eval.SkipInvalid {
		cfg.Tree.Validation = cmpdt.ValidateSkip
	}
	if metricsJSON != "" {
		cfg.Observer = cmpdt.NewObserver()
	}
	start := time.Now()
	f, err := cmpdt.TrainForestFileContext(ctx, data, cfg)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	if metricsJSON != "" {
		if err := writeMetrics(metricsJSON, cfg.Observer.Report()); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "algorithm   %s forest\n", fo.algo)
	fmt.Fprintf(stdout, "trees       %d (feature_frac %.2f, bootstrap %v)\n",
		f.NumTrees(), fo.featureFrac, !fo.noBootstrap)
	fmt.Fprintf(stdout, "wall time   %v\n", wall)
	fmt.Fprintf(stdout, "nodes       %d across the ensemble\n", f.TotalNodes())
	if f.OOBCount() > 0 {
		fmt.Fprintf(stdout, "oob error   %.4f over %d records\n", f.OOBError(), f.OOBCount())
	}
	if save != "" {
		if err := f.SaveModel(save); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "model saved to %s\n", save)
	}
	return nil
}

func run(ctx context.Context, algo, data, save, metricsJSON string, quiet bool, opts eval.Options, stdout io.Writer) error {
	if data == "" {
		return fmt.Errorf("-data is required")
	}
	src, err := storage.OpenFile(data)
	if err != nil {
		return err
	}
	if metricsJSON != "" {
		workers := opts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		opts.Obs = obs.NewCollector(workers)
	}
	res, tree, err := eval.RunContext(ctx, algo, src, nil, nil, opts)
	if err != nil {
		return err
	}
	if metricsJSON != "" {
		rep := eval.MetricsReport(opts.Obs, res)
		rep.Build.Seed = opts.Seed
		if err := writeMetrics(metricsJSON, rep); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "algorithm   %s\n", res.Algorithm)
	fmt.Fprintf(stdout, "records     %d\n", res.N)
	fmt.Fprintf(stdout, "wall time   %v\n", res.WallTime)
	fmt.Fprintf(stdout, "sim time    %.2fs (cost model: %d scan(s), %.1f MB read, %.1f MB auxiliary)\n",
		res.SimSeconds, res.Scans, float64(res.BytesRead)/(1<<20), float64(res.AuxBytesIO)/(1<<20))
	fmt.Fprintf(stdout, "peak memory %.2f MB\n", float64(res.PeakMemBytes)/(1<<20))
	fmt.Fprintf(stdout, "tree        %d nodes, %d leaves, depth %d, %d linear split(s)\n",
		res.TreeNodes, res.TreeLeaves, res.TreeDepth, res.Oblique)
	if res.Skipped > 0 {
		fmt.Fprintf(stdout, "skipped     %d invalid record(s) per pass\n", res.Skipped)
	}
	if res.Retries > 0 {
		fmt.Fprintf(stdout, "io retries  %d transient read failure(s) absorbed\n", res.Retries)
	}
	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return err
		}
		if err := tree.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "model saved to %s\n", save)
	}
	if !quiet {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, tree.String())
	}
	return nil
}

// writeMetrics emits the observability report as indented JSON to path, or
// to stdout when path is "-".
func writeMetrics(path string, rep *obs.Report) error {
	if path == "-" {
		return rep.WriteJSON(os.Stdout)
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
