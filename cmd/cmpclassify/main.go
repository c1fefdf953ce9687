// Command cmpclassify applies a saved model — a single tree (cmptrain
// -save, Tree.SaveModel) or a bagged forest (cmptrain -forest -save,
// Forest.SaveModel) — to records and writes predictions. The model kind is
// sniffed from the file; both kinds serve through the same predictor
// interface.
//
// Input records come as CSV with a header row naming the model's attributes
// (a trailing "class" column, if present, is used to report accuracy).
// Output is the input CSV with a "predicted" column appended.
//
// By default records are classified one at a time. With -batch N the tool
// streams records through the compiled flat tree in groups of N, reusing
// one parse buffer per batch and sharding predictions across -workers
// goroutines — the high-throughput path for bulk scoring. Output is
// identical in either mode.
//
// With -data the input is a binary record store (see cmpgen or cmptrain's
// datasets) instead of CSV on stdin: records are scanned straight from the
// store — optionally through a page cache sized by -cache — and the output
// CSV carries the attribute values, the stored class, and the prediction.
//
// Usage:
//
//	cmpclassify -model tree.json < records.csv > predictions.csv
//	cmpclassify -model tree.json -batch 4096 -workers 8 < records.csv
//	cmpclassify -model tree.json -data records.rec -cache 64m > predictions.csv
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"cmpdt"
	"cmpdt/internal/cli"
	"cmpdt/internal/eval"
	"cmpdt/internal/obs"
	"cmpdt/internal/storage"
)

// ctxCheckEvery bounds how many records are classified between context
// checks, so Ctrl-C or -timeout stops a bulk run within a bounded slice.
const ctxCheckEvery = 1024

func main() {
	model := flag.String("model", "", "path to a saved tree model (required)")
	data := flag.String("data", "", "classify a binary record store instead of CSV on stdin")
	cache := flag.String("cache", "0", `page-cache capacity for -data stores, e.g. "64m" ("0" = uncached)`)
	batch := flag.Int("batch", 0, "records per prediction batch (0 = classify one record at a time)")
	workers := flag.Int("workers", 0, "prediction goroutines per batch (0 = GOMAXPROCS; needs -batch)")
	timeout := flag.Duration("timeout", 0, "abort the run after this duration (0 = no limit)")
	metricsJSON := flag.String("metrics-json", "", `write classification metrics as JSON to this path ("-" for stderr; stdout carries predictions)`)
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()

	cacheBytes, err := storage.ParseCacheSize(*cache)
	if err != nil {
		cli.Fatal("cmpclassify", err)
	}
	if *data != "" {
		err = runStore(ctx, *model, *data, cacheBytes, *metricsJSON, os.Stdout)
	} else {
		if cacheBytes > 0 {
			err = fmt.Errorf("-cache requires -data (CSV input has no page structure)")
		} else {
			err = run(ctx, *model, *batch, *workers, *metricsJSON, os.Stdin, os.Stdout)
		}
	}
	if err != nil {
		stop()
		cli.Fatal("cmpclassify", err)
	}
}

// runStore classifies every record of a binary store through the compiled
// tree, writing the store's columns plus the prediction as CSV.
func runStore(ctx context.Context, modelPath, dataPath string, cacheBytes int64, metricsJSON string, out io.Writer) error {
	if modelPath == "" {
		return fmt.Errorf("-model is required")
	}
	model, err := cmpdt.LoadPredictor(modelPath)
	if err != nil {
		return err
	}
	f, err := storage.OpenFile(dataPath)
	if err != nil {
		return err
	}
	schema := model.ModelSchema()
	if err := checkStoreSchema(schema, f); err != nil {
		return err
	}
	f.SetCacheBytes(cacheBytes)

	var reg *obs.Registry
	if metricsJSON != "" {
		reg = obs.NewRegistry()
	}
	records := reg.Counter("records")
	start := time.Now()

	cw := csv.NewWriter(out)
	header := make([]string, 0, len(schema.Attrs)+2)
	for _, a := range schema.Attrs {
		header = append(header, a.Name)
	}
	header = append(header, "class", "predicted")
	if err := cw.Write(header); err != nil {
		return err
	}

	var total, correct int
	row := make([]string, len(header))
	err = f.Scan(func(rid int, vals []float64, label int) error {
		if total%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for i, a := range schema.Attrs {
			if a.Values != nil && int(vals[i]) >= 0 && int(vals[i]) < len(a.Values) && vals[i] == float64(int(vals[i])) {
				row[i] = a.Values[int(vals[i])]
			} else {
				row[i] = strconv.FormatFloat(vals[i], 'g', -1, 64)
			}
		}
		pred := model.PredictClass(vals)
		row[len(row)-2] = schema.Classes[label]
		row[len(row)-1] = pred
		records.Inc()
		total++
		if schema.Classes[label] == pred {
			correct++
		}
		return cw.Write(row)
	})
	if err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "accuracy %.4f over %d labeled records\n",
			float64(correct)/float64(total), total)
	}
	if metricsJSON != "" {
		reg.Counter("labeled_records").Add(int64(total))
		reg.Counter("labeled_correct").Add(int64(correct))
		eval.ExportCacheCounters(reg, f.Stats())
		rep := (*obs.Collector)(nil).Snapshot()
		rep.Build.Algorithm = "classify"
		rep.Build.Records = total
		rep.Build.WallNs = time.Since(start).Nanoseconds()
		rep.Metrics = reg.Snapshot()
		rep.IO = f.Stats().Summary()
		return cli.WriteReport(metricsJSON, os.Stderr, rep)
	}
	return nil
}

// checkStoreSchema verifies the store carries the attributes and classes the
// model was trained with, so codes decode to the same meanings.
func checkStoreSchema(model cmpdt.Schema, f *storage.File) error {
	s := f.Schema()
	if len(s.Attrs) != len(model.Attrs) {
		return fmt.Errorf("store has %d attributes, model has %d", len(s.Attrs), len(model.Attrs))
	}
	for i, a := range model.Attrs {
		if s.Attrs[i].Name != a.Name {
			return fmt.Errorf("store attribute %d is %q, model expects %q", i, s.Attrs[i].Name, a.Name)
		}
	}
	if len(s.Classes) != len(model.Classes) {
		return fmt.Errorf("store has %d classes, model has %d", len(s.Classes), len(model.Classes))
	}
	for i, c := range model.Classes {
		if s.Classes[i] != c {
			return fmt.Errorf("store class %d is %q, model expects %q", i, s.Classes[i], c)
		}
	}
	return nil
}

// inputMap resolves the model's attributes against an input CSV header.
type inputMap struct {
	schema   cmpdt.Schema
	colOf    []int            // attribute index -> input column
	catIdx   []map[string]int // categorical value name -> code
	classCol int              // input column holding the true label, or -1
}

func newInputMap(schema cmpdt.Schema, header []string) (*inputMap, error) {
	m := &inputMap{schema: schema, colOf: make([]int, len(schema.Attrs)), classCol: -1}
	for i, a := range schema.Attrs {
		m.colOf[i] = -1
		for j, h := range header {
			if h == a.Name {
				m.colOf[i] = j
				break
			}
		}
		if m.colOf[i] == -1 {
			return nil, fmt.Errorf("input lacks attribute column %q", a.Name)
		}
	}
	for j, h := range header {
		if h == "class" {
			m.classCol = j
		}
	}
	m.catIdx = make([]map[string]int, len(schema.Attrs))
	for i, a := range schema.Attrs {
		if a.Values != nil {
			idx := make(map[string]int, len(a.Values))
			for v, name := range a.Values {
				idx[name] = v
			}
			m.catIdx[i] = idx
		}
	}
	return m, nil
}

// parseInto fills vals with the record's attribute values.
func (m *inputMap) parseInto(vals []float64, rec []string, line int) error {
	for i := range m.schema.Attrs {
		cell := rec[m.colOf[i]]
		if idx := m.catIdx[i]; idx != nil {
			v, ok := idx[cell]
			if !ok {
				return fmt.Errorf("line %d: unknown category %q for %q", line, cell, m.schema.Attrs[i].Name)
			}
			vals[i] = float64(v)
			continue
		}
		v, err := strconv.ParseFloat(cell, 64)
		if err != nil {
			return fmt.Errorf("line %d, attribute %q: %w", line, m.schema.Attrs[i].Name, err)
		}
		vals[i] = v
	}
	return nil
}

func run(ctx context.Context, modelPath string, batch, workers int, metricsJSON string, in io.Reader, out io.Writer) error {
	if modelPath == "" {
		return fmt.Errorf("-model is required")
	}
	if batch < 0 {
		return fmt.Errorf("-batch must be >= 0, got %d", batch)
	}
	model, err := cmpdt.LoadPredictor(modelPath)
	if err != nil {
		return err
	}

	// reg stays nil (every metric call a no-op) unless metrics were asked
	// for, so the classification hot paths pay nothing by default.
	var reg *obs.Registry
	if metricsJSON != "" {
		reg = obs.NewRegistry()
	}
	start := time.Now()

	cr := csv.NewReader(in)
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("reading header: %w", err)
	}
	im, err := newInputMap(model.ModelSchema(), header)
	if err != nil {
		return err
	}

	cw := csv.NewWriter(out)
	if err := cw.Write(append(header, "predicted")); err != nil {
		return err
	}

	var total, correct int
	if batch > 0 {
		total, correct, err = classifyBatched(ctx, model, im, cr, cw, batch, workers, reg)
	} else {
		total, correct, err = classifySerial(ctx, model, im, cr, cw, reg)
	}
	if err != nil {
		return err
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return err
	}
	if total > 0 {
		fmt.Fprintf(os.Stderr, "accuracy %.4f over %d labeled records\n",
			float64(correct)/float64(total), total)
	}
	if metricsJSON != "" {
		reg.Counter("labeled_records").Add(int64(total))
		reg.Counter("labeled_correct").Add(int64(correct))
		rep := (*obs.Collector)(nil).Snapshot()
		rep.Build.Algorithm = "classify"
		rep.Build.WallNs = time.Since(start).Nanoseconds()
		rep.Metrics = reg.Snapshot()
		return cli.WriteReport(metricsJSON, os.Stderr, rep)
	}
	return nil
}

// classifySerial is the record-at-a-time path.
func classifySerial(ctx context.Context, model cmpdt.Predictor, im *inputMap, cr *csv.Reader, cw *csv.Writer, reg *obs.Registry) (total, correct int, err error) {
	records := reg.Counter("records")
	vals := make([]float64, len(im.schema.Attrs))
	for line := 2; ; line++ {
		if line%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return 0, 0, err
			}
		}
		rec, err := cr.Read()
		if err == io.EOF {
			return total, correct, nil
		}
		if err != nil {
			return 0, 0, fmt.Errorf("line %d: %w", line, err)
		}
		if err := im.parseInto(vals, rec, line); err != nil {
			return 0, 0, err
		}
		pred := model.PredictClass(vals)
		records.Inc()
		if err := cw.Write(append(rec, pred)); err != nil {
			return 0, 0, err
		}
		if im.classCol >= 0 {
			total++
			if rec[im.classCol] == pred {
				correct++
			}
		}
	}
}

// classifyBatched streams records in groups of batch through the model's
// compiled batch path. One flat values buffer backs every record slot, so
// the steady state allocates only the raw CSV rows the encoding/csv reader
// produces.
func classifyBatched(ctx context.Context, model cmpdt.Predictor, im *inputMap, cr *csv.Reader, cw *csv.Writer, batch, workers int, reg *obs.Registry) (total, correct int, err error) {
	records := reg.Counter("records")
	batches := reg.Counter("batches")
	batchNs := reg.Histogram("batch_predict_ns", obs.DefaultLatencyBounds)
	nAttrs := len(im.schema.Attrs)
	backing := make([]float64, batch*nAttrs)
	vals := make([][]float64, batch)
	for i := range vals {
		vals[i] = backing[i*nAttrs : (i+1)*nAttrs : (i+1)*nAttrs]
	}
	rows := make([][]string, 0, batch)
	preds := make([]int, batch)
	classes := im.schema.Classes

	line := 2
	flush := func() error {
		if len(rows) == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		predictStart := time.Now()
		model.PredictBatchWorkers(preds[:len(rows)], vals[:len(rows)], workers)
		batchNs.Observe(time.Since(predictStart).Nanoseconds())
		batches.Inc()
		records.Add(int64(len(rows)))
		for i, rec := range rows {
			pred := classes[preds[i]]
			if err := cw.Write(append(rec, pred)); err != nil {
				return err
			}
			if im.classCol >= 0 {
				total++
				if rec[im.classCol] == pred {
					correct++
				}
			}
		}
		rows = rows[:0]
		return nil
	}

	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, fmt.Errorf("line %d: %w", line, err)
		}
		if err := im.parseInto(vals[len(rows)], rec, line); err != nil {
			return 0, 0, err
		}
		rows = append(rows, rec)
		line++
		if len(rows) == batch {
			if err := flush(); err != nil {
				return 0, 0, err
			}
		}
	}
	if err := flush(); err != nil {
		return 0, 0, err
	}
	return total, correct, nil
}
