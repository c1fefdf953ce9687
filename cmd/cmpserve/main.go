// Command cmpserve is the hardened model-serving daemon: it loads a tree
// or forest model (cmptrain -save / LoadPredictor format) and serves JSON
// predictions over HTTP with bounded admission, micro-batch coalescing,
// per-request deadlines, and atomic hot reload.
//
// Endpoints:
//
//	POST /predict        {"values":[...]}            one record
//	POST /predict/batch  {"records":[[...],...]}     a batch
//	GET  /healthz        process liveness
//	GET  /readyz         503 until the model is loaded; 503 again while draining
//	GET  /metrics        observability report (schema v3, serve block filled)
//	POST /-/reload       hot-swap the model file in place (?path= to switch files)
//
// SIGHUP also triggers a reload of the current model file. A reload that
// fails — unreadable, corrupt, or rejected by the -probe set — leaves the
// old model serving untouched.
//
// On SIGINT/SIGTERM the daemon drains: admission stops, queued requests
// are answered within the -drain budget, and the process exits 0. Overload
// is shed with 429 + Retry-After rather than queued without bound.
//
// Usage:
//
//	cmptrain -algo cmp-b -data f2.rec -save model.json
//	cmpserve -model model.json -addr :8080 -probe probe.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cmpdt/internal/cli"
	"cmpdt/internal/obs"
	"cmpdt/internal/serve"
)

func main() {
	var o options
	flag.StringVar(&o.model, "model", "", "model file to serve (required; tree or forest JSON)")
	flag.StringVar(&o.addr, "addr", ":8080", "listen address (host:port; port 0 picks a free port)")
	flag.IntVar(&o.workers, "workers", 0, "goroutines per scored micro-batch (0 = GOMAXPROCS)")
	flag.IntVar(&o.maxBatch, "batch", 256, "records coalesced into one scored micro-batch")
	flag.IntVar(&o.maxRecords, "max-records", 16384, "largest accepted /predict/batch request, in records")
	flag.IntVar(&o.queue, "queue", 256, "admission queue depth; a full queue sheds with 429")
	flag.DurationVar(&o.requestTimeout, "request-timeout", 5*time.Second, "per-request deadline (0 disables)")
	flag.DurationVar(&o.drain, "drain", 10*time.Second, "budget for flushing queued requests at shutdown")
	flag.DurationVar(&o.retryAfter, "retry-after", time.Second, "Retry-After hint on shed responses")
	flag.StringVar(&o.probe, "probe", "", "CSV probe set validated against every loaded model (optional)")
	flag.Float64Var(&o.probeMinAcc, "probe-min-accuracy", 0, "accuracy floor over labeled probe rows in [0,1]")
	flag.StringVar(&o.metricsJSON, "metrics-json", "", `write the final observability report as JSON to this path at shutdown ("-" for stdout)`)
	flag.Parse()
	if o.model == "" {
		cli.Fatal("cmpserve", fmt.Errorf("-model is required"))
	}

	ctx, stop := cli.Context(0)
	defer stop()
	os.Exit(run(ctx, o, nil))
}

// options carries the parsed flags so tests can drive run directly.
type options struct {
	model          string
	addr           string
	workers        int
	maxBatch       int
	maxRecords     int
	queue          int
	requestTimeout time.Duration
	drain          time.Duration
	retryAfter     time.Duration
	probe          string
	probeMinAcc    float64
	metricsJSON    string
}

// run serves until ctx is cancelled, then drains and returns the exit
// code. When ready is non-nil the bound address is sent on it as soon as
// the listener is up (tests use this; the address is also logged, which
// is what scripts/serve_smoke.sh parses).
func run(ctx context.Context, o options, ready chan<- string) int {
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "cmpserve: "+format+"\n", args...)
	}

	var probe *serve.Probe
	if o.probe != "" {
		probe = &serve.Probe{Path: o.probe, MinAccuracy: o.probeMinAcc}
	}
	reg := obs.NewRegistry()
	s := serve.New(serve.Config{
		Workers:         o.workers,
		MaxBatch:        o.maxBatch,
		MaxBatchRecords: o.maxRecords,
		QueueDepth:      o.queue,
		RequestTimeout:  o.requestTimeout,
		RetryAfter:      o.retryAfter,
		Probe:           probe,
		Registry:        reg,
	})

	// Listen before loading so /healthz and /readyz are observable (and
	// truthfully not-ready) during a slow initial load.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		logf("%v", err)
		return 1
	}
	logf("listening on %s", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	hs := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// SIGHUP hot-reloads the model file in place; failures keep serving
	// the previous version. The handler is registered before the initial
	// load makes the server ready, so a SIGHUP sent as soon as /readyz
	// answers is queued for the reload loop instead of killing the process.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	defer signal.Stop(hup)

	m, err := s.Load(o.model)
	if err != nil {
		logf("initial load: %v", err)
		hs.Close()
		return 1
	}
	logf("serving %s model %s (version %d)", m.Kind(), m.Path, m.Version)

	go func() {
		for range hup {
			cur := s.Model()
			if cur == nil {
				continue
			}
			if m, err := s.Reload(cur.Path); err != nil {
				logf("reload failed, still serving version %d: %v", cur.Version, err)
			} else {
				logf("reloaded %s (version %d)", m.Path, m.Version)
			}
		}
	}()

	exit := 0
	select {
	case <-ctx.Done():
		logf("shutdown signal: draining (budget %v)", o.drain)
		dctx, cancel := context.WithTimeout(context.Background(), o.drain)
		if err := s.Drain(dctx); err != nil {
			logf("%v", err)
			exit = 1
		}
		if err := hs.Shutdown(dctx); err != nil {
			logf("http shutdown: %v", err)
			exit = 1
		}
		cancel()
	case err := <-serveErr:
		logf("http server: %v", err)
		exit = 1
	}

	if o.metricsJSON != "" {
		if err := writeMetrics(o.metricsJSON, s, reg); err != nil {
			logf("%v", err)
			exit = 1
		}
	}
	logf("drained; exiting %d", exit)
	return exit
}

// writeMetrics emits the final observability report (serve block filled).
func writeMetrics(path string, s *serve.Server, reg *obs.Registry) error {
	rep := (*obs.Collector)(nil).Snapshot()
	rep.Metrics = reg.Snapshot()
	rep.Serve = s.Summary()
	return cli.WriteReport(path, os.Stdout, rep)
}
