// Command cmpstream trains a CMP tree online from an unbounded record
// stream and periodically publishes model snapshots that cmpserve
// hot-reloads.
//
// Records arrive as CSV (the cmpgen -csv shape: attribute columns plus a
// final "class" column) on stdin, from a file, or by tailing a growing
// file. Snapshots are published atomically into a directory: each one lands
// as an immutable snapshot-NNNNNN.json plus a rename onto latest.json, so a
// watcher never sees a partial model.
//
// Usage:
//
//	cmpgen -func 2 -n 200000 -csv | cmpstream -publish models/
//	cmpstream -in stream.csv -follow -publish models/ -snapshot-every 50000
//	cmpstream -schema schema.json -in - -metrics-json metrics.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"cmpdt/internal/cli"
	"cmpdt/internal/dataset"
	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
	"cmpdt/internal/stream"
	"cmpdt/internal/synth"
)

func main() {
	in := flag.String("in", "-", `CSV input path ("-" = stdin)`)
	follow := flag.Bool("follow", false, "keep tailing -in after EOF, ingesting appended records")
	schemaPath := flag.String("schema", "", "schema JSON path (default: the built-in Agrawal schema)")
	publish := flag.String("publish", "", "snapshot directory (no publishing when empty)")
	every := flag.Int("snapshot-every", 50_000, "publish a snapshot every N ingested records (0 = only at end of stream)")
	maxN := flag.Int("max", 0, "stop after N records (0 = unlimited)")
	workers := flag.Int("workers", 0, "hint-precompute parallelism (0 = GOMAXPROCS)")
	batch := flag.Int("batch", 0, "records per commit batch (0 = default)")
	warmup := flag.Int("warmup", 0, "records a leaf buffers before freezing cut points (0 = default)")
	bins := flag.Int("bins", 0, "histogram bins per numeric attribute (0 = default)")
	grace := flag.Int("grace", 0, "records between split attempts (0 = default)")
	delta := flag.Float64("delta", 0, "Hoeffding bound failure probability (0 = default)")
	tau := flag.Float64("tau", 0, "tie-break threshold (0 = default)")
	halfLife := flag.Int("half-life", 0, "drift half-life in records (0 = no decay)")
	maxDepth := flag.Int("max-depth", 0, "tree depth bound (0 = default)")
	timeout := flag.Duration("timeout", 0, "stop ingesting after this duration (0 = no limit)")
	metricsJSON := flag.String("metrics-json", "", `write stream metrics as JSON to this path ("-" for stderr)`)
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	cfg := stream.Config{
		Workers:   *workers,
		BatchSize: *batch,
		Warmup:    *warmup,
		Bins:      *bins,
		Grace:     *grace,
		Delta:     *delta,
		Tau:       *tau,
		HalfLife:  *halfLife,
		MaxDepth:  *maxDepth,
	}
	opts := runOpts{
		in:          *in,
		follow:      *follow,
		schemaPath:  *schemaPath,
		publish:     *publish,
		every:       *every,
		maxN:        *maxN,
		metricsJSON: *metricsJSON,
		cfg:         cfg,
	}
	if err := run(ctx, opts, os.Stdin, os.Stderr); err != nil {
		stop()
		cli.Fatal("cmpstream", err)
	}
}

type runOpts struct {
	in          string
	follow      bool
	schemaPath  string
	publish     string
	every       int
	maxN        int
	metricsJSON string
	cfg         stream.Config
}

func run(ctx context.Context, opts runOpts, stdin io.Reader, logw io.Writer) error {
	start := time.Now()
	schema, err := loadSchema(opts.schemaPath)
	if err != nil {
		return err
	}
	opts.cfg.Schema = schema
	b, err := stream.New(opts.cfg)
	if err != nil {
		return err
	}

	var dir *storage.SnapshotDir
	if opts.publish != "" {
		if dir, err = storage.OpenSnapshotDir(opts.publish); err != nil {
			return err
		}
	}

	src, closeSrc, err := openSource(ctx, opts, stdin)
	if err != nil {
		return err
	}
	defer closeSrc()

	var published int64
	sinceSnapshot := 0
	ingested := 0
	cancelled := false
loop:
	for {
		vals, label, err := src.Read()
		switch {
		case err == io.EOF:
			break loop
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			cancelled = true
			break loop
		case err != nil:
			return err
		}
		if err := b.Ingest(ctx, vals, label); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				cancelled = true
				break loop
			}
			return fmt.Errorf("cmpstream: line %d: %w", src.Line(), err)
		}
		ingested++
		sinceSnapshot++
		if dir != nil && opts.every > 0 && sinceSnapshot >= opts.every {
			sinceSnapshot = 0
			if err := b.Flush(ctx); err != nil {
				return err
			}
			path, err := publishSnapshot(dir, b)
			if err != nil {
				return err
			}
			published++
			fmt.Fprintf(logw, "published %s after %d records\n", path, ingested)
		}
		if opts.maxN > 0 && ingested >= opts.maxN {
			break loop
		}
	}

	// A cancelled run may have closed the builder mid-batch; publish and
	// flush only on a clean end of stream.
	if !cancelled {
		if err := b.Flush(context.Background()); err != nil && !errors.Is(err, stream.ErrClosed) {
			return err
		}
		// Publish the end-of-stream model unless the periodic publisher
		// already captured exactly this state.
		if dir != nil && (sinceSnapshot > 0 || published == 0) {
			path, err := publishSnapshot(dir, b)
			if err != nil {
				return err
			}
			published++
			fmt.Fprintf(logw, "published %s after %d records (final)\n", path, ingested)
		}
	}

	st := b.Stats()
	fmt.Fprintf(logw, "ingested %d records: %d splits, %d nodes, depth %d, %d snapshots\n",
		st.Records, st.Splits, st.Nodes, st.Depth, published)
	if opts.metricsJSON != "" {
		return writeMetrics(opts.metricsJSON, st, published, opts.cfg.Workers, time.Since(start), logw)
	}
	return nil
}

// loadSchema reads a schema JSON file (the cmpgen -schema-out shape), or
// returns the built-in Agrawal schema when no path is given.
func loadSchema(path string) (*dataset.Schema, error) {
	if path == "" {
		return synth.Schema(), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &dataset.Schema{}
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("cmpstream: parsing schema %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("cmpstream: schema %s: %w", path, err)
	}
	return s, nil
}

// openSource resolves the input flag to a streaming CSV source.
func openSource(ctx context.Context, opts runOpts, stdin io.Reader) (*dataset.CSVReader, func(), error) {
	closeFn := func() {}
	var r io.Reader
	if opts.in == "-" || opts.in == "" {
		if opts.follow {
			return nil, nil, errors.New("cmpstream: -follow needs a file, not stdin")
		}
		r = stdin
	} else {
		f, err := os.Open(opts.in)
		if err != nil {
			return nil, nil, err
		}
		closeFn = func() { f.Close() }
		if opts.follow {
			r = &tailReader{ctx: ctx, f: f, poll: 200 * time.Millisecond}
		} else {
			r = f
		}
	}
	src, err := dataset.NewCSVReader(r, opts.cfg.Schema)
	if err != nil {
		closeFn()
		return nil, nil, err
	}
	return src, closeFn, nil
}

// publishSnapshot compiles the current tree and commits it atomically,
// aborting the temp file on any failure.
func publishSnapshot(dir *storage.SnapshotDir, b *stream.Builder) (string, error) {
	w, err := dir.Begin()
	if err != nil {
		return "", err
	}
	if err := b.Snapshot().WriteJSON(w); err != nil {
		w.Abort()
		return "", err
	}
	return w.Commit()
}

// writeMetrics emits the schema-complete observability report with the
// stream block filled in.
func writeMetrics(path string, st stream.Stats, published int64, workers int, wall time.Duration, stderr io.Writer) error {
	rep := (*obs.Collector)(nil).Snapshot()
	rep.Build.Algorithm = "stream:hoeffding"
	rep.Build.Records = int(st.Records)
	rep.Build.Workers = workers
	rep.Build.WallNs = wall.Nanoseconds()
	rep.Build.TreeNodes = st.Nodes
	rep.Build.TreeLeaves = st.Leaves
	rep.Build.TreeDepth = st.Depth
	rep.Stream = &obs.StreamSummary{
		RecordsIngested:     st.Records,
		SplitsCommitted:     st.Splits,
		LeafFreezes:         st.Freezes,
		Regrows:             st.Regrows,
		SnapshotsPublished:  published,
		RecordsToFirstSplit: st.FirstSplitAt,
		TreeNodes:           st.Nodes,
		TreeLeaves:          st.Leaves,
		TreeDepth:           st.Depth,
		SketchBytes:         st.SketchBytes,
	}
	return cli.WriteReport(path, stderr, rep)
}

// tailReader turns a file into an unbounded stream: EOF means "wait for the
// writer", polling until new bytes appear or the context ends.
type tailReader struct {
	ctx  context.Context
	f    *os.File
	poll time.Duration
}

func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.f.Read(p)
		if n > 0 {
			return n, nil
		}
		if err != nil && err != io.EOF {
			return 0, err
		}
		select {
		case <-t.ctx.Done():
			return 0, t.ctx.Err()
		case <-time.After(t.poll):
		}
	}
}
