package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cmpdt/internal/storage"
	"cmpdt/internal/stream"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

func agrawalCSV(t *testing.T, fn synth.Func, n int, seed int64) *bytes.Buffer {
	t.Helper()
	tbl := synth.Generate(fn, n, seed)
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// TestRunStdinPublishes: a full stdin run publishes periodic plus final
// snapshots, every one a loadable model, and the metrics report carries the
// stream block.
func TestRunStdinPublishes(t *testing.T) {
	dir := t.TempDir()
	pub := filepath.Join(dir, "models")
	metrics := filepath.Join(dir, "metrics.json")
	opts := runOpts{
		in:          "-",
		publish:     pub,
		every:       8_000,
		metricsJSON: metrics,
		cfg:         stream.Config{Workers: 2},
	}
	var logw bytes.Buffer
	if err := run(context.Background(), opts, agrawalCSV(t, synth.F2, 20_000, 1), &logw); err != nil {
		t.Fatalf("run: %v\n%s", err, logw.String())
	}

	d, err := storage.OpenSnapshotDir(pub)
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := d.Snapshots()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 { // 8k, 16k, final
		t.Fatalf("published %d snapshots, want 3: %v", len(snaps), snaps)
	}
	for _, p := range snaps {
		f, err := os.Open(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tree.ReadJSON(f); err != nil {
			t.Errorf("snapshot %s does not load: %v", p, err)
		}
		f.Close()
	}
	// latest.json must byte-match the last archive entry.
	latest, err := os.ReadFile(d.LatestPath())
	if err != nil {
		t.Fatal(err)
	}
	last, err := os.ReadFile(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(latest, last) {
		t.Error("latest.json differs from the newest archive snapshot")
	}

	var rep struct {
		SchemaVersion int `json:"schema_version"`
		Stream        *struct {
			RecordsIngested    int64 `json:"records_ingested"`
			SplitsCommitted    int64 `json:"splits_committed"`
			SnapshotsPublished int64 `json:"snapshots_published"`
			SketchBytes        int64 `json:"sketch_bytes"`
		} `json:"stream"`
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Stream == nil {
		t.Fatal("metrics report has no stream block")
	}
	if rep.Stream.RecordsIngested != 20_000 {
		t.Errorf("records_ingested = %d, want 20000", rep.Stream.RecordsIngested)
	}
	if rep.Stream.SplitsCommitted == 0 || rep.Stream.SnapshotsPublished != 3 {
		t.Errorf("stream block %+v looks wrong", rep.Stream)
	}
}

// TestRunSchemaFile: an explicit -schema JSON drives CSV parsing.
func TestRunSchemaFile(t *testing.T) {
	dir := t.TempDir()
	schemaPath := filepath.Join(dir, "schema.json")
	data, err := json.MarshalIndent(synth.Schema(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(schemaPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	opts := runOpts{
		in:         "-",
		schemaPath: schemaPath,
		publish:    filepath.Join(dir, "models"),
		cfg:        stream.Config{Workers: 1},
	}
	var logw bytes.Buffer
	if err := run(context.Background(), opts, agrawalCSV(t, synth.F1, 2_000, 2), &logw); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRunFollowTail: -follow keeps ingesting records appended after the
// first EOF, and a context cancellation shuts the run down cleanly.
func TestRunFollowTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.csv")
	full := agrawalCSV(t, synth.F2, 4_000, 3).Bytes()
	cut := len(full) / 2
	for full[cut] != '\n' {
		cut++
	}
	if err := os.WriteFile(path, full[:cut+1], 0o666); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		opts := runOpts{in: path, follow: true, cfg: stream.Config{Workers: 1, BatchSize: 256}}
		done <- run(ctx, opts, nil, io.Discard)
	}()

	time.Sleep(300 * time.Millisecond)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(full[cut+1:]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	time.Sleep(500 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("follow run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follow run did not shut down after cancellation")
	}
}

// TestRunErrors covers flag and input validation.
func TestRunErrors(t *testing.T) {
	if err := run(context.Background(), runOpts{in: "-", follow: true}, &bytes.Buffer{}, io.Discard); err == nil {
		t.Error("-follow on stdin accepted")
	}
	if err := run(context.Background(), runOpts{in: filepath.Join(t.TempDir(), "nope.csv")}, nil, io.Discard); err == nil {
		t.Error("missing input file accepted")
	}
	bad := bytes.NewBufferString("not,a,valid,header\n")
	if err := run(context.Background(), runOpts{in: "-"}, bad, io.Discard); err == nil {
		t.Error("mismatched CSV header accepted")
	}
	header := "salary,commission,age,elevel,car,zipcode,hvalue,hyears,loan,class\n"
	rows := bytes.NewBufferString(header + "1,2,nope,L0,M1,Z1,4,5,6,GroupA\n")
	if err := run(context.Background(), runOpts{in: "-"}, rows, io.Discard); err == nil {
		t.Error("unparseable numeric value accepted")
	}
	rows = bytes.NewBufferString(header + "1,2,3,L9,M1,Z1,4,5,6,GroupA\n")
	if err := run(context.Background(), runOpts{in: "-"}, rows, io.Discard); err == nil {
		t.Error("unknown category accepted")
	}
	rows = bytes.NewBufferString(header + "1,2,3,L0,M1,Z1,4,5,6,GroupC\n")
	if err := run(context.Background(), runOpts{in: "-"}, rows, io.Discard); err == nil {
		t.Error("unknown class accepted")
	}
	// A value ParseFloat accepts but no tree can train on fails at its
	// line, not later when a snapshot is published.
	for _, v := range []string{"-inf", "NaN", "+Inf"} {
		rows = bytes.NewBufferString(header + "1,2,3,L0,M1,Z1,4,5,6,GroupA\n1,2,3,L0,M1,Z1,4," + v + ",6,GroupA\n")
		err := run(context.Background(), runOpts{in: "-"}, rows, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "hyears") {
			t.Errorf("hyears=%s: run returned %v, want an error naming line 3 and the attribute", v, err)
		}
	}
	if err := run(context.Background(), runOpts{in: "-", cfg: stream.Config{Bins: 1}}, &bytes.Buffer{}, io.Discard); err == nil || !strings.Contains(err.Error(), "Bins") {
		t.Errorf("-bins 1: run returned %v, want an error naming Bins", err)
	}
	if _, err := loadSchema(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing schema file accepted")
	}
	badSchema := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badSchema, []byte(`{"Attrs":[],"Classes":[]}`), 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSchema(badSchema); err == nil {
		t.Error("invalid schema accepted")
	}
}

// TestRunCancelAborts: cancelling mid-stream exits without error and leaves
// no temp files behind in the publish directory.
func TestRunCancelAborts(t *testing.T) {
	dir := t.TempDir()
	pub := filepath.Join(dir, "models")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := runOpts{in: "-", publish: pub, cfg: stream.Config{Workers: 2}}
	err := run(ctx, opts, agrawalCSV(t, synth.F2, 5_000, 4), io.Discard)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
	entries, err := os.ReadDir(pub)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("cancelled run left %s behind", e.Name())
	}
}
