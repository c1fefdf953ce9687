// Package cli holds the plumbing every command in cmd/ shares: a root
// context cancelled by SIGINT/SIGTERM (and, optionally, a -timeout), the
// repository's uniform "tool: message" failure exit, and the
// -metrics-json report writer.
//
// Before this package each main wired its own signal handling — or, worse,
// none: a Ctrl-C during a long cmpclassify stream or cmpgen generation
// simply killed the process mid-write. Routing every tool through
// Context gives them all the same contract cmptrain pinned in PR 2: the
// first signal cancels the context so work stops at the next bounded
// check, a second signal falls through to the runtime's default handler
// and kills the process.
package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cmpdt/internal/obs"
)

// Context returns the command's root context: cancelled on SIGINT or
// SIGTERM and, when timeout > 0, after the timeout elapses. The returned
// stop function must be deferred; once called (or once the context is
// cancelled), signal delivery reverts to the default handler, so a second
// Ctrl-C always kills a wedged process.
func Context(timeout time.Duration) (context.Context, context.CancelFunc) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	if timeout <= 0 {
		return ctx, stop
	}
	tctx, cancel := context.WithTimeout(ctx, timeout)
	return tctx, func() {
		cancel()
		stop()
	}
}

// Fatal prints err in the uniform "tool: message" form and exits 1. It is
// the one exit path every command's main funnels errors through.
func Fatal(tool string, err error) {
	fmt.Fprintln(os.Stderr, tool+": "+err.Error())
	os.Exit(1)
}

// WriteReport writes rep as indented JSON to the file at path, or to
// stream when path is "-" (each tool keeps its own stream for "-").
func WriteReport(path string, stream io.Writer, rep *obs.Report) error {
	if path == "-" {
		return rep.WriteJSON(stream)
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
