package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sort"
	"time"

	"cmpdt"
	"cmpdt/internal/obs"
	"cmpdt/internal/serve"
	"cmpdt/internal/synth"
)

// serveSpec is one serve workload.
type serveSpec struct {
	fn      synth.Func
	records int // training records, before scaling
	train   func(path string, obs *cmpdt.Observer) (model, error)
	// batch is the records per request; 1 sends POST /predict, more send
	// POST /predict/batch.
	batch int
	// requests is the number of distinct request bodies the client cycles
	// through.
	requests  int
	quantized bool
}

// startServer is the serving set-up a user pays: a new Server with one
// dispatcher worker, and the model at path loaded until ready.
func startServer(e *env, path string) (*serve.Server, *obs.Registry, error) {
	reg := obs.NewRegistry()
	cfg := serve.Config{Workers: 1, Registry: reg}
	if e.tamper != nil {
		cfg.Loader = func(p string) (cmpdt.Predictor, error) {
			m, err := cmpdt.LoadPredictor(p)
			if err != nil {
				return nil, err
			}
			return e.tamper(m), nil
		}
	}
	srv := serve.New(cfg)
	if _, err := srv.Load(path); err != nil {
		stopServer(srv)
		return nil, nil, err
	}
	if !srv.Ready() {
		stopServer(srv)
		return nil, nil, fmt.Errorf("server not ready after loading %s", path)
	}
	return srv, reg, nil
}

// stopServer drains srv, which joins its dispatcher goroutine.
func stopServer(srv *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

func saveModel(m model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteModel(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runServe runs a serve workload: set-up trains the model, saves it and
// brings a server up on it; then one closed-loop client sends requests
// through the server's HTTP handler, in process, until the budget is
// spent. A request fails on a non-200 status, on a class that differs
// from the trained model's own prediction, or on a wrong model version.
func runServe(e *env, spec serveSpec) (*outcome, error) {
	out := newOutcome()
	n := e.records(spec.records)
	storePath := e.path("train.rec")
	if err := writeStore(storePath, spec.fn, n, e.subSeed(0)); err != nil {
		return nil, err
	}
	pool, err := generate(spec.fn, spec.batch*spec.requests, e.subSeed(1000))
	if err != nil {
		return nil, err
	}

	var (
		setups    []float64
		srv       *serve.Server
		reg       *obs.Registry
		ref       model
		modelPath string
		observer  *cmpdt.Observer
	)
	defer func() {
		if srv != nil {
			stopServer(srv)
		}
	}()
	for r := 0; r < serveSetupReps; r++ {
		if e.trace && r == serveSetupReps-1 {
			observer = cmpdt.NewObserver()
		}
		path := e.path(fmt.Sprintf("model-%d.json", r))
		start := time.Now()
		m, err := spec.train(storePath, observer)
		if err != nil {
			return nil, err
		}
		if err := saveModel(m, path); err != nil {
			return nil, err
		}
		s, rg, err := startServer(e, path)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if srv != nil {
			stopServer(srv)
		}
		srv, reg, ref, modelPath = s, rg, m, path
	}
	out.e2e.set("setup_s", median(setups))

	rs, err := newRequests(ref, pool, spec.batch, srv.Model().Version)
	if err != nil {
		return nil, err
	}
	c := newClient(srv.Handler(), rs, out)
	short := e.budget / 10
	if short > time.Second {
		short = time.Second
	}
	c.run(short/2, short) // warm-up: fills pools and grows the heap

	budget := e.budget
	if e.trace {
		budget /= 2
	}
	if err := startPeak(); err != nil {
		return nil, err
	}
	st := c.run(budget, short)
	peak, err := peakMiB()
	if err != nil {
		return nil, err
	}
	out.e2e.set("records_per_s", st.rate())
	out.e2e.set("latency_p50_ms", st.p50())
	out.e2e.set("latency_p90_ms", st.p90())
	out.e2e.set("latency_p99_ms", st.p99())
	out.e2e.set("max_rss_mb", peak)
	out.samples["requests_timed"] = st.requests
	out.samples["windows"] = len(st.windows)
	out.samples["min_window_requests"] = st.minWindow()
	out.samples["records_per_request"] = spec.batch

	if e.trace {
		settle()
		mem := startMem()
		traced := c.run(budget, short)
		d := mem.stop()
		out.samples["requests_traced"] = traced.requests
		setRuntime(out.layers, d, int64(traced.requests)*int64(spec.batch))
		out.layers.set("bench.trace_overhead", st.rate()/traced.rate())
		reportLayers(out.layers, []*cmpdt.BuildReport{observer.Report()}, spec.quantized)
		ns, err := scanNsPerRecord(storePath)
		if err != nil {
			return nil, err
		}
		out.layers.set("storage.scan_ns_per_record", ns)
		scoreNs, err := treeLayers(out.layers, ref, modelPath, rs.records)
		if err != nil {
			return nil, err
		}
		forestLayers(out.layers, ref)
		if err := serveLayers(out.layers, srv, reg, c, scoreNs, short); err != nil {
			return nil, err
		}
	}
	out.e2e.set("accuracy", float64(c.labelHits)/float64(c.records))
	out.e2e.set("ok_frac", out.okFrac())
	return out, nil
}

// serveProbe measures the serving stack on a build workload's model:
// single-record requests for the holdout records.
func serveProbe(e *env, m metrics, path string, ref model, l *labeled, out *outcome, scoreNs float64) error {
	srv, reg, err := startServer(e, path)
	if err != nil {
		return err
	}
	defer stopServer(srv)
	rs, err := newRequests(ref, l, 1, srv.Model().Version)
	if err != nil {
		return err
	}
	short := e.budget / 10
	if short > time.Second {
		short = time.Second
	}
	return serveLayers(m, srv, reg, newClient(srv.Handler(), rs, out), scoreNs, short)
}

// serveLayers splits one request's time between the layers: the whole
// handler, Server.Submit on the same records without JSON, and the
// scoring underneath (scoreNs per record). The queue and batch figures
// come from the server's own registry.
func serveLayers(m metrics, srv *serve.Server, reg *obs.Registry, c *client, scoreNs float64, dur time.Duration) error {
	handler := c.run(dur, dur)
	var submit []float64
	ctx := context.Background()
	start := time.Now()
	for i := 0; len(submit) == 0 || time.Since(start) < dur; i++ {
		k := i % len(c.rs.records)
		t0 := time.Now()
		classes, mv, err := srv.Submit(ctx, c.rs.records[k])
		submit = append(submit, float64(time.Since(t0))/float64(time.Microsecond))
		c.out.count(err == nil && mv.Version == c.rs.version && slices.Equal(classes, c.rs.want[k]))
	}
	h := handler.p50() * 1000
	s := median(submit)
	m.set("serve.handler_us_p50", h)
	m.set("serve.submit_us_p50", s)
	m.set("serve.codec_us_p50", h-s)
	m.set("serve.dispatch_us_p50", s-scoreNs*float64(c.rs.batch)/1000)
	hists := reg.Snapshot().Histograms
	wait := hists["serve_queue_wait_ns"]
	if wait.Count == 0 {
		return fmt.Errorf("serve_queue_wait_ns histogram is empty")
	}
	m.set("serve.queue_wait_us_p50", float64(wait.P50Ns)/1000)
	m.set("serve.queue_wait_us_mean", wait.MeanNs/1000)
	// This histogram counts records, not nanoseconds; SumNs is its sum.
	batches := hists["serve_batch_records"]
	m.set("serve.batch_records_mean", float64(batches.SumNs)/float64(batches.Count))
	m.set("serve.shed", float64(srv.Summary().Shed))
	return nil
}

// Request and response bodies, as the serve package's handlers read and
// write them.
type (
	predictBody struct {
		Values []float64 `json:"values"`
	}
	batchBody struct {
		Records [][]float64 `json:"records"`
	}
	predictAnswer struct {
		Class        string `json:"class"`
		ClassIndex   int    `json:"class_index"`
		ModelVersion int64  `json:"model_version"`
	}
	batchAnswer struct {
		Classes      []string `json:"classes"`
		ClassIndexes []int    `json:"class_indexes"`
		ModelVersion int64    `json:"model_version"`
	}
)

// requestSet is the pre-encoded traffic one client cycles through, with
// the answer each request must get.
type requestSet struct {
	url       string
	batch     int
	version   int64
	bodies    [][]byte
	records   [][][]float64
	want      [][]int  // the reference model's classes
	wantBody  [][]byte // the response the server is expected to write
	labelHits []int    // records of each request whose wanted class is the generator's label
	labels    [][]int
}

func newRequests(ref cmpdt.Predictor, l *labeled, batch int, version int64) (*requestSet, error) {
	classes := ref.ModelSchema().Classes
	rs := &requestSet{url: "/predict/batch", batch: batch, version: version}
	if batch == 1 {
		rs.url = "/predict"
	}
	for lo := 0; lo+batch <= len(l.records); lo += batch {
		recs := l.records[lo : lo+batch]
		want := make([]int, batch)
		for i, r := range recs {
			want[i] = ref.Predict(r)
		}
		var body, answer any
		if batch == 1 {
			body = predictBody{Values: recs[0]}
			answer = predictAnswer{Class: classes[want[0]], ClassIndex: want[0], ModelVersion: version}
		} else {
			names := make([]string, batch)
			for i, c := range want {
				names[i] = classes[c]
			}
			body = batchBody{Records: recs}
			answer = batchAnswer{Classes: names, ClassIndexes: want, ModelVersion: version}
		}
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		a, err := json.Marshal(answer)
		if err != nil {
			return nil, err
		}
		hits := 0
		for i, c := range want {
			if c == l.labels[lo+i] {
				hits++
			}
		}
		rs.bodies = append(rs.bodies, b)
		rs.records = append(rs.records, recs)
		rs.want = append(rs.want, want)
		rs.wantBody = append(rs.wantBody, append(a, '\n'))
		rs.labelHits = append(rs.labelHits, hits)
		rs.labels = append(rs.labels, l.labels[lo:lo+batch])
	}
	if len(rs.bodies) == 0 {
		return nil, fmt.Errorf("no %d-record request fits %d records", batch, len(l.records))
	}
	return rs, nil
}

// check reports whether response body with status answers request i, and
// how many of its classes match the generator's labels. Byte equality with
// the expected response is the fast path; any other encoding is decoded
// and compared field by field.
func (rs *requestSet) check(i, status int, body []byte) (bool, int) {
	if status != http.StatusOK {
		return false, 0
	}
	if bytes.Equal(body, rs.wantBody[i]) {
		return true, rs.labelHits[i]
	}
	var got struct {
		ClassIndex   *int  `json:"class_index"`
		ClassIndexes []int `json:"class_indexes"`
		ModelVersion int64 `json:"model_version"`
	}
	if err := json.Unmarshal(body, &got); err != nil || got.ModelVersion != rs.version {
		return false, 0
	}
	classes := got.ClassIndexes
	if rs.batch == 1 {
		if got.ClassIndex == nil {
			return false, 0
		}
		classes = []int{*got.ClassIndex}
	}
	hits := 0
	for j, c := range classes {
		if j < len(rs.labels[i]) && c == rs.labels[i][j] {
			hits++
		}
	}
	return slices.Equal(classes, rs.want[i]), hits
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.header)
	r.status = 0
	r.body.Reset()
}

// reusableBody is a request body that can be rewound to a new payload.
type reusableBody struct{ bytes.Reader }

func (*reusableBody) Close() error { return nil }

// client is one closed-loop caller: it sends its next request only after
// the previous one returned.
type client struct {
	h    http.Handler
	rs   *requestSet
	out  *outcome
	req  *http.Request
	body *reusableBody
	rec  *recorder
	next int
	lat  []float64

	records, labelHits int64 // every answered record, and those matching the label
}

func newClient(h http.Handler, rs *requestSet, out *outcome) *client {
	c := &client{h: h, rs: rs, out: out, body: &reusableBody{}, rec: &recorder{header: http.Header{}}}
	c.req = httptest.NewRequest(http.MethodPost, rs.url, nil)
	c.req.Body = c.body
	return c
}

// do sends the next request and returns its latency.
func (c *client) do() time.Duration {
	i := c.next
	c.next = (c.next + 1) % len(c.rs.bodies)
	b := c.rs.bodies[i]
	c.body.Reset(b)
	c.req.ContentLength = int64(len(b))
	c.rec.reset()
	start := time.Now()
	c.h.ServeHTTP(c.rec, c.req)
	d := time.Since(start)
	ok, hits := c.rs.check(i, c.rec.status, c.rec.body.Bytes())
	c.out.count(ok)
	c.records += int64(c.rs.batch)
	c.labelHits += int64(hits)
	return d
}

// window is one slice of a timed loop.
type window struct {
	requests      int
	p50, p90, p99 float64 // ms
	rate          float64 // records/s
}

// loopStats summarizes a timed loop by its windows. A window closes once
// it has lasted minDur and holds at least minWindowRequests requests, so
// even its p99 has ten samples beyond it; the run's figures are medians
// over windows, which keeps a host stall inside one window from moving
// them.
type loopStats struct {
	requests int
	windows  []window
}

const minWindowRequests = 1000

func (s loopStats) med(f func(window) float64) float64 {
	xs := make([]float64, len(s.windows))
	for i, w := range s.windows {
		xs[i] = f(w)
	}
	return median(xs)
}

func (s loopStats) rate() float64 { return s.med(func(w window) float64 { return w.rate }) }
func (s loopStats) p50() float64  { return s.med(func(w window) float64 { return w.p50 }) }
func (s loopStats) p90() float64  { return s.med(func(w window) float64 { return w.p90 }) }
func (s loopStats) p99() float64  { return s.med(func(w window) float64 { return w.p99 }) }

func (s loopStats) minWindow() int {
	m := 0
	for i, w := range s.windows {
		if i == 0 || w.requests < m {
			m = w.requests
		}
	}
	return m
}

// run sends requests until budget is spent. A short loop that never fills
// a window keeps its partial one.
func (c *client) run(budget, minDur time.Duration) loopStats {
	var st loopStats
	closeWindow := func(dur time.Duration) {
		sort.Float64s(c.lat)
		st.windows = append(st.windows, window{
			requests: len(c.lat),
			p50:      nearestRank(c.lat, 0.5),
			p90:      nearestRank(c.lat, 0.90),
			p99:      nearestRank(c.lat, 0.99),
			rate:     float64(len(c.lat)*c.rs.batch) / dur.Seconds(),
		})
		c.lat = c.lat[:0]
	}
	start := time.Now()
	winStart := start
	c.lat = c.lat[:0]
	for {
		c.lat = append(c.lat, millis(c.do()))
		st.requests++
		now := time.Now()
		if len(c.lat) >= minWindowRequests && now.Sub(winStart) >= minDur {
			closeWindow(now.Sub(winStart))
			winStart = time.Now()
		}
		if now.Sub(start) >= budget {
			break
		}
	}
	if len(st.windows) == 0 {
		closeWindow(time.Since(winStart))
	}
	return st
}
