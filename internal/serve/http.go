package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"cmpdt"
	"cmpdt/internal/obs"
)

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP surface:
//
//	POST /predict        score one record
//	POST /predict/batch  score a batch of records
//	GET  /healthz        process liveness (200 while the process runs)
//	GET  /readyz         traffic readiness (503 before load and during drain)
//	GET  /metrics        obs report with the serve summary block
//	POST /-/reload       reload the model file in place (hot swap)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/predict/batch", s.handleBatch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/-/reload", s.handleReload)
	return mux
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	start := time.Now()
	s.mPredictReqs.Inc()
	c := getCodecBuf()
	defer c.release()
	var values []float64
	err := c.readBody(r)
	if err == nil {
		values, err = decodePredict(c)
	}
	if err != nil {
		s.mBadInput.Inc()
		writeError(w, http.StatusBadRequest, "decoding request body: "+err.Error())
		return
	}
	if len(values) == 0 {
		s.mBadInput.Inc()
		writeError(w, http.StatusBadRequest, "values is empty")
		return
	}
	classes, m, err := s.submit(r.Context(), s.deadline(start), [][]float64{values})
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	s.hRequestNs.Observe(time.Since(start).Nanoseconds())
	c.b = appendPredictResponse(c.b[:0], m, classes[0])
	writeOK(w, c.b)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	start := time.Now()
	s.mBatchReqs.Inc()
	c := getCodecBuf()
	defer c.release()
	var records [][]float64
	err := c.readBody(r)
	if err == nil {
		records, err = decodeBatch(c, s.cfg.MaxBatchRecords)
	}
	switch {
	case errors.Is(err, errTooManyRecords):
		s.mBadInput.Inc()
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("batch exceeds the %d-record cap; split the request", s.cfg.MaxBatchRecords))
		return
	case err != nil:
		s.mBadInput.Inc()
		writeError(w, http.StatusBadRequest, "decoding request body: "+err.Error())
		return
	case len(records) == 0:
		s.mBadInput.Inc()
		writeError(w, http.StatusBadRequest, "records is empty")
		return
	}
	classes, m, err := s.submit(r.Context(), s.deadline(start), records)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	s.hRequestNs.Observe(time.Since(start).Nanoseconds())
	c.b = appendBatchResponse(c.b[:0], m, classes)
	writeOK(w, c.b)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		status := "no model loaded"
		if s.isDraining() {
			status = "draining"
		}
		writeError(w, http.StatusServiceUnavailable, status)
		return
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ready\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rep := (*obs.Collector)(nil).Snapshot()
	rep.Metrics = s.cfg.Registry.Snapshot()
	rep.Serve = s.Summary()
	w.Header().Set("Content-Type", "application/json")
	rep.WriteJSON(w)
}

// handleReload re-loads the serving model's file in place. A ?path= query
// switches to a different file. Failures fail closed: the previous version
// keeps serving and the response says whether a retry can help.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	path := r.URL.Query().Get("path")
	if path == "" {
		m := s.model.Load()
		if m == nil {
			writeError(w, http.StatusServiceUnavailable, "no model loaded and no path given")
			return
		}
		path = m.Path
	}
	m, err := s.Reload(path)
	if err != nil {
		status := http.StatusBadGateway // transient: retry may succeed
		if errors.Is(err, cmpdt.ErrBadModel) {
			status = http.StatusUnprocessableEntity // structural: it will not
		}
		writeError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"model_version": m.Version,
		"model_kind":    m.Kind(),
		"path":          m.Path,
	})
}

// Summary condenses the serve metrics into the report block.
func (s *Server) Summary() *obs.ServeSummary {
	sum := &obs.ServeSummary{
		Requests:        s.mPredictReqs.Value() + s.mBatchReqs.Value(),
		Records:         s.mRecords.Value(),
		Shed:            s.mShed.Value(),
		Expired:         s.mExpired.Value(),
		ReloadSuccesses: s.mReloadOK.Value(),
		ReloadFailures:  s.mReloadFail.Value(),
		ReloadBadModel:  s.mReloadBad.Value(),
		QueueDepth:      s.mQueueDepth.Value(),
	}
	if m := s.model.Load(); m != nil {
		sum.ModelVersion = m.Version
		sum.ModelKind = m.Kind()
		sum.ModelPath = m.Path
	}
	snap := s.hRequestNs.Snapshot()
	sum.P50Ns = snap.P50Ns
	sum.P99Ns = snap.P99Ns
	return sum
}

// deadline is the absolute deadline of a request that started at start,
// or the zero time when RequestTimeout disables it.
func (s *Server) deadline(start time.Time) time.Time {
	if s.cfg.RequestTimeout <= 0 {
		return time.Time{}
	}
	return start.Add(s.cfg.RequestTimeout)
}

// writeSubmitError maps pipeline errors onto HTTP statuses.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrShed):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining), errors.Is(err, ErrNotReady):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded before scoring finished")
	case errors.Is(err, context.Canceled):
		// The client went away; the status is moot but 499-style closure
		// is not expressible, so answer 504.
		writeError(w, http.StatusGatewayTimeout, "request canceled")
	case errors.Is(err, ErrSchemaMismatch):
		writeError(w, http.StatusUnprocessableEntity, err.Error())
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}
