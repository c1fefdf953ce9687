// Command cmpgen generates the synthetic workloads of the paper's
// evaluation — the Agrawal benchmark functions 1-10 and the
// linearly-correlated Function f — as CSV on stdout or as a binary record
// store for disk-resident training.
//
// Usage:
//
//	cmpgen -func 2 -n 100000 -seed 1 -out f2.rec     # binary store
//	cmpgen -func f -n 10000 -csv > ff.csv            # CSV
//	cmpgen -statlog letter -csv > letter.csv         # STATLOG stand-in
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cmpdt/internal/cli"
	"cmpdt/internal/dataset"
	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

func main() {
	fn := flag.String("func", "2", "Agrawal function number 1-10 or 'f'")
	statlog := flag.String("statlog", "", "generate a STATLOG stand-in instead (letter, satimage, segment, shuttle)")
	n := flag.Int("n", 100_000, "number of records (ignored for -statlog)")
	seed := flag.Int64("seed", 1, "generator seed")
	noise := flag.Float64("noise", 0, "label noise probability")
	out := flag.String("out", "", "binary record store path (required unless -csv)")
	csv := flag.Bool("csv", false, "write CSV to stdout instead of a binary store")
	timeout := flag.Duration("timeout", 0, "abort generation after this duration (0 = no limit)")
	metricsJSON := flag.String("metrics-json", "", `write generation metrics as JSON to this path ("-" for stderr)`)
	schemaOut := flag.String("schema-out", "", "also write the workload's schema as JSON to this path (for cmpstream -schema)")
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	if err := run(ctx, *fn, *statlog, *n, *seed, *noise, *out, *metricsJSON, *schemaOut, *csv, os.Stdout); err != nil {
		stop()
		cli.Fatal("cmpgen", err)
	}
}

// ctxAppender threads context cancellation into GenerateTo: generation
// stops within ctxCheckEvery records of Ctrl-C or -timeout instead of
// running a large -n to completion.
type ctxAppender struct {
	ctx context.Context
	dst synth.Appender
	n   int
}

const ctxCheckEvery = 1024

func (a *ctxAppender) Append(vals []float64, label int) error {
	if a.n%ctxCheckEvery == 0 {
		if err := a.ctx.Err(); err != nil {
			return err
		}
	}
	a.n++
	return a.dst.Append(vals, label)
}

// writeGenMetrics emits a schema-complete observability report describing
// one generation run: the workload, record count, wall time, and the bytes
// and pages landed at out (zero for CSV on stdout).
func writeGenMetrics(path, workload string, records int, seed int64, out string, wall time.Duration) error {
	rep := (*obs.Collector)(nil).Snapshot()
	rep.Build.Algorithm = "generate:" + workload
	rep.Build.Records = records
	rep.Build.Seed = seed
	rep.Build.WallNs = wall.Nanoseconds()
	if out != "" {
		if fi, err := os.Stat(out); err == nil {
			rep.IO.BytesWritten = fi.Size()
			rep.IO.PagesWritten = (fi.Size() + storage.PageSize - 1) / storage.PageSize
		}
	}
	return cli.WriteReport(path, os.Stderr, rep)
}

// writeSchema serializes a schema as indented JSON, the shape cmpstream's
// -schema flag parses back.
func writeSchema(path string, s *dataset.Schema) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

func run(ctx context.Context, fnName, statlog string, n int, seed int64, noise float64, out, metricsJSON, schemaOut string, csv bool, stdout io.Writer) error {
	start := time.Now()
	if statlog != "" {
		tbl, err := synth.Statlog(statlog, seed)
		if err != nil {
			return err
		}
		if schemaOut != "" {
			if err := writeSchema(schemaOut, tbl.Schema()); err != nil {
				return err
			}
		}
		if csv {
			if err := tbl.WriteCSV(stdout); err != nil {
				return err
			}
			if metricsJSON != "" {
				return writeGenMetrics(metricsJSON, "statlog:"+statlog, tbl.NumRecords(), seed, "", time.Since(start))
			}
			return nil
		}
		if out == "" {
			return fmt.Errorf("need -out or -csv")
		}
		f, err := storage.WriteTable(out, tbl)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", f.NumRecords(), out)
		if metricsJSON != "" {
			return writeGenMetrics(metricsJSON, "statlog:"+statlog, f.NumRecords(), seed, out, time.Since(start))
		}
		return nil
	}

	fn, err := synth.ParseFunc(fnName)
	if err != nil {
		return err
	}
	if schemaOut != "" {
		if err := writeSchema(schemaOut, synth.Schema()); err != nil {
			return err
		}
	}
	if csv {
		tbl := dataset.MustNew(synth.Schema())
		if err := synth.GenerateTo(&ctxAppender{ctx: ctx, dst: tbl}, fn, n, seed, synth.Options{Noise: noise}); err != nil {
			return err
		}
		if err := tbl.WriteCSV(stdout); err != nil {
			return err
		}
		if metricsJSON != "" {
			return writeGenMetrics(metricsJSON, fn.String(), tbl.NumRecords(), seed, "", time.Since(start))
		}
		return nil
	}
	if out == "" {
		return fmt.Errorf("need -out or -csv")
	}
	w, err := storage.CreateFile(out, synth.Schema())
	if err != nil {
		return err
	}
	if err := synth.GenerateTo(&ctxAppender{ctx: ctx, dst: w}, fn, n, seed, synth.Options{Noise: noise}); err != nil {
		w.Abort()
		return err
	}
	f, err := w.Close()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d records of %s to %s\n", f.NumRecords(), fn, out)
	if metricsJSON != "" {
		return writeGenMetrics(metricsJSON, fn.String(), f.NumRecords(), seed, out, time.Since(start))
	}
	return nil
}
