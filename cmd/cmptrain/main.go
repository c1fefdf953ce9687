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
	"strings"

	"cmpdt/internal/cli"
	"cmpdt/internal/core"
	"cmpdt/internal/eval"
	"cmpdt/internal/forest"
	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
)

func main() {
	d := core.Default(core.CMPS)
	algo := flag.String("algo", "cmp", "algorithm: "+strings.Join(eval.Algorithms(), ", "))
	data := flag.String("data", "", "binary record store to train on (required)")
	intervals := flag.Int("intervals", 0, fmt.Sprintf("equal-depth intervals per numeric attribute (0 = library default, %d)", d.Intervals))
	alive := flag.Int("alive", 0, fmt.Sprintf("maximum alive intervals per split (0 = library default, %d)", d.MaxAlive))
	allPairs := flag.Bool("all-pairs", false, "full CMP: matrices for every numeric attribute pair (an error with any other -algo or with -quantize)")
	noPrune := flag.Bool("no-prune", false, "disable MDL pruning")
	workers := flag.Int("workers", 0, "build parallelism for the CMP family (0 = GOMAXPROCS, 1 = serial; any value yields the identical tree)")
	seed := flag.Int64("seed", 0, fmt.Sprintf("training seed (0 = library default, %d)", d.Seed))
	timeout := flag.Duration("timeout", 0, "abort the build after this duration (0 = no limit)")
	skipInvalid := flag.Bool("skip-invalid", false, "drop records with NaN/Inf features or out-of-range labels instead of aborting (CMP family; an error with any other -algo)")
	cache := flag.String("cache", "0", `page-cache capacity for the record store, e.g. "64m", "1g", plain bytes ("0" = uncached)`)
	quantize := flag.Bool("quantize", false, "bin-coded dense-histogram build for cmp-s and cmp-b (thresholds stay in raw units; an error with any other -algo)")
	quantizeBins := flag.Int("quantize-bins", 0, "code-table resolution for -quantize (0 = -intervals; an error without -quantize)")
	quiet := flag.Bool("quiet", false, "suppress the tree printout")
	save := flag.String("save", "", "write the trained model as JSON to this path")
	metricsJSON := flag.String("metrics-json", "", `write the observability report as JSON to this path ("-" for stdout)`)
	forestMode := flag.Bool("forest", false, "train a bagged forest of CMP trees instead of a single tree")
	trees := flag.Int("trees", 0, fmt.Sprintf("ensemble size for -forest (0 = library default, %d)", forest.DefaultTrees))
	featureFrac := flag.Float64("feature-frac", 0, "fraction of attributes each -forest tree may split on (0 < f <= 1; 0 = every attribute)")
	noBootstrap := flag.Bool("no-bootstrap", false, "train every -forest tree on the full set (disables out-of-bag estimation)")
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	cacheBytes, err := storage.ParseCacheSize(*cache)
	if err != nil {
		cli.Fatal("cmptrain", err)
	}
	cfg := core.Config{
		Intervals:       *intervals,
		MaxAlive:        *alive,
		ObliqueAllPairs: *allPairs,
		DisablePruning:  *noPrune,
		Workers:         *workers,
		Seed:            *seed,
		CacheBytes:      cacheBytes,
		Quantize:        *quantize,
		QuantizeBins:    *quantizeBins,
	}
	if *skipInvalid {
		cfg.Validation = core.ValidateSkip
	}
	if *forestMode {
		fc := forest.Config{Trees: *trees, FeatureFrac: *featureFrac, NoBootstrap: *noBootstrap, Tree: cfg}
		err = runForest(ctx, *algo, fc, *data, *save, *metricsJSON, os.Stdout)
	} else {
		err = run(ctx, *algo, *data, *save, *metricsJSON, *quiet, eval.Options{Tree: cfg}, os.Stdout)
	}
	if err != nil {
		stop()
		cli.Fatal("cmptrain", err)
	}
}

// runForest trains a bagged ensemble of the named CMP variant and prints
// its summary. Only the CMP family can serve as the member algorithm: the
// forest layer drives per-tree feature subsets through SplitAttrs, which
// the baseline classifiers do not support.
func runForest(ctx context.Context, algo string, fc forest.Config, data, save, metricsJSON string, stdout io.Writer) error {
	switch algo {
	case eval.AlgoCMPS, eval.AlgoCMPB, eval.AlgoCMP:
	default:
		return fmt.Errorf("-forest requires a CMP-family -algo (cmp-s, cmp-b, cmp), got %q", algo)
	}
	opts, err := eval.Options{Tree: fc.Tree}.Validate(algo)
	if err != nil {
		return err
	}
	fc.Tree = opts.Tree
	fc.CollectObs = metricsJSON != ""
	if data == "" {
		return fmt.Errorf("-data is required")
	}
	src, err := storage.OpenFile(data)
	if err != nil {
		return err
	}
	res, err := forest.TrainContext(ctx, src, fc)
	if err != nil {
		return err
	}
	f := res.Forest
	if metricsJSON != "" {
		rep := res.Report
		rep.Build.Records = src.NumRecords()
		rep.Build.Seed = f.Seed
		rep.Build.WallNs = res.Wall.Nanoseconds()
		if err := cli.WriteReport(metricsJSON, os.Stdout, rep); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "algorithm   %s forest\n", algo)
	fmt.Fprintf(stdout, "trees       %d (feature_frac %.2f, bootstrap %v)\n",
		f.NumTrees(), f.FeatureFrac, f.Bootstrap)
	fmt.Fprintf(stdout, "wall time   %v\n", res.Wall)
	fmt.Fprintf(stdout, "nodes       %d across the ensemble\n", f.TotalNodes())
	if f.OOBCount > 0 {
		fmt.Fprintf(stdout, "oob error   %.4f over %d records\n", f.OOBError, f.OOBCount)
	}
	if save != "" {
		if err := saveModel(save, f.WriteJSON); err != nil {
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
	opts, err := opts.Validate(algo)
	if err != nil {
		return err
	}
	src, err := storage.OpenFile(data)
	if err != nil {
		return err
	}
	if metricsJSON != "" {
		opts.Tree.Obs = obs.NewCollector(opts.Tree.Workers)
	}
	res, tree, err := eval.RunContext(ctx, algo, src, nil, nil, opts)
	if err != nil {
		return err
	}
	if metricsJSON != "" {
		rep := eval.MetricsReport(opts.Tree.Obs, res)
		rep.Build.Seed = opts.Tree.Seed
		if err := cli.WriteReport(metricsJSON, os.Stdout, rep); err != nil {
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
		if err := saveModel(save, tree.WriteJSON); err != nil {
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

// saveModel writes a model's JSON to path.
func saveModel(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
