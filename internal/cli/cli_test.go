package cli

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"cmpdt/internal/obs"
)

func TestContextTimeout(t *testing.T) {
	ctx, stop := Context(10 * time.Millisecond)
	defer stop()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("context did not expire under -timeout")
	}
	if ctx.Err() != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", ctx.Err())
	}
}

func TestContextSignal(t *testing.T) {
	ctx, stop := Context(0)
	defer stop()
	// The signal is caught by the NotifyContext handler, so sending it to
	// ourselves cancels the context instead of killing the test process.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("SIGTERM did not cancel the context")
	}
	if ctx.Err() != context.Canceled {
		t.Fatalf("err = %v, want Canceled", ctx.Err())
	}
}

func TestContextNoTimeoutStaysOpen(t *testing.T) {
	ctx, stop := Context(0)
	select {
	case <-ctx.Done():
		t.Fatal("context cancelled with no signal and no timeout")
	case <-time.After(20 * time.Millisecond):
	}
	stop()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("stop did not cancel the context")
	}
}

// TestWriteReport: "-" writes the report to the given stream, any other
// path to that file, byte for byte the same JSON.
func TestWriteReport(t *testing.T) {
	rep := (*obs.Collector)(nil).Snapshot()
	rep.Build.Algorithm = "test"
	var stream bytes.Buffer
	if err := WriteReport("-", &stream, rep); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := WriteReport(path, nil, rep); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(got, []byte(`"test"`)) || !bytes.Equal(got, stream.Bytes()) {
		t.Errorf("file %q, stream %q", got, stream.Bytes())
	}
	if err := WriteReport(filepath.Join(path, "x"), nil, rep); err == nil {
		t.Error("a path under a regular file was written")
	}
}
