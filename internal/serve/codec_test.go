package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cmpdt"
	"cmpdt/internal/obs"
)

// The request and response shapes as encoding/json types: the oracle the
// hand-written codec is held to.
type (
	predictRequest struct {
		Values []float64 `json:"values"`
	}
	batchRequest struct {
		Records [][]float64 `json:"records"`
	}
	predictResponse struct {
		Class        string `json:"class"`
		ClassIndex   int    `json:"class_index"`
		ModelVersion int64  `json:"model_version"`
	}
	batchResponse struct {
		Classes      []string `json:"classes"`
		ClassIndexes []int    `json:"class_indexes"`
		ModelVersion int64    `json:"model_version"`
	}
)

// oracleDecode decodes body the way the handlers did before the codec.
// A body the Decoder accepts but that holds a null array element is
// expected to fail: the codec rejects those on purpose.
func oracleDecode(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if hasNullElement(body) {
		return errors.New("null array element")
	}
	return nil
}

// hasNullElement reports whether body's first JSON value holds a null
// directly inside an array, up to its first syntax error.
func hasNullElement(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	var open []json.Delim
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		switch tok := tok.(type) {
		case json.Delim:
			if tok == '{' || tok == '[' {
				open = append(open, tok)
			} else {
				open = open[:len(open)-1]
			}
		case nil:
			if len(open) > 0 && open[len(open)-1] == '[' {
				return true
			}
		}
		if len(open) == 0 {
			return false
		}
	}
}

func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkPredictParity holds decodePredict to the oracle on body.
func checkPredictParity(t *testing.T, body []byte) {
	t.Helper()
	got, err := decodePredict(&codecBuf{b: body})
	var want predictRequest
	wantErr := oracleDecode(body, &want)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: codec err = %v, encoding/json err = %v", body, err, wantErr)
	}
	if err == nil && !sameFloats(got, want.Values) {
		t.Fatalf("%q: codec = %v, encoding/json = %v", body, got, want.Values)
	}
}

// checkBatchParity holds decodeBatch, uncapped, to the oracle on body.
func checkBatchParity(t *testing.T, body []byte) ([][]float64, error) {
	t.Helper()
	got, err := decodeBatch(&codecBuf{b: body}, math.MaxInt)
	var want batchRequest
	wantErr := oracleDecode(body, &want)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%q: codec err = %v, encoding/json err = %v", body, err, wantErr)
	}
	if err == nil {
		if len(got) != len(want.Records) {
			t.Fatalf("%q: codec has %d records, encoding/json %d", body, len(got), len(want.Records))
		}
		for i := range got {
			if !sameFloats(got[i], want.Records[i]) {
				t.Fatalf("%q: record %d: codec = %v, encoding/json = %v", body, i, got[i], want.Records[i])
			}
		}
	}
	return got, err
}

// predictSeeds are the quirks encoding/json's Decoder has on the /predict
// shape, each of which the codec keeps, plus the null elements it rejects.
var predictSeeds = []string{
	`{"values":[1,2]}`,
	`{"VALUES":[1,2]}`,
	`{"ValueS":[1,2]}`,
	"{\"value\u017f\":[1,2]}",
	`{"val\u0075es":[1]}`,
	`{"\u0076alue\u017F":[3]}`,
	`{"\u0056ALUES":[3]}`,
	`{"val\ud800ues":[1]}`,
	`{"\ud83d\ude00":[1]}`,
	`{"values\u0000":[1]}`,
	`{"val\"ues":[1]}`,
	`{"\/values":[1]}`,
	"{\"val\tues\":[1]}",
	"{\"\xff\":[1]}",
	`{"values":[1],"values":[2,3]}`,
	`{"values":[1,2,3],"values":[4]}`,
	`{"values":[1,2],"values":null}`,
	`{"values":null,"values":[5]}`,
	`{"values":null}`,
	`{"values":[]}`,
	`{}`,
	`null`,
	`nullx`,
	` null`,
	`nul`,
	"  \t\r\n{\"values\":[1]}",
	`{"values":[1]} trailing garbage`,
	`{"values":[1]}{"values":[2]}`,
	"{\"values\":[1]}\xff",
	`{ "values" : [ 1 , 2 ] }`,
	`{"values":[01]}`,
	`{"values":[+1]}`,
	`{"values":[.5]}`,
	`{"values":[1.]}`,
	`{"values":[1e]}`,
	`{"values":[1e+]}`,
	`{"values":[-]}`,
	`{"values":[-0]}`,
	`{"values":[-0.0e-0]}`,
	`{"values":[0.1e1,1E+2,1e-2,-7.25]}`,
	`{"values":[1e999]}`,
	`{"values":[-1e999]}`,
	`{"values":[1e-400]}`,
	`{"values":[4.9e-324,2.2250738585072014e-308,1.7976931348623157e308]}`,
	`{"values":[123456789012345678901234567890.123456789012345678901234567890]}`,
	`{"values":[0.30000000000000004,9007199254740993]}`,
	`{"values":[Infinity]}`,
	`{"values":[NaN]}`,
	`{"values":[0x10]}`,
	`{"values":[null,2]}`,
	`{"values":[1,null]}`,
	`{"values":[1,]}`,
	`{"values":[,1]}`,
	`{"values":[1 2]}`,
	`{"values":[1],}`,
	`{"values" [1]}`,
	`{"values":[1]`,
	`{"values":[1`,
	`{"values":`,
	`{"values"`,
	`{"`,
	`{`,
	`{"other":1}`,
	`{"values":[1],"other":2}`,
	`{"records":[[1]]}`,
	`{"values":"1"}`,
	`{"values":[true]}`,
	`{"values":["1"]}`,
	`{"values":[[1]]}`,
	`{"values":{}}`,
	`{"values":nullx}`,
	`{values:[1]}`,
	`[1,2]`,
	`"values"`,
	`1`,
	`true`,
	``,
	`   `,
	"\xef\xbb\xbf{\"values\":[1]}",
}

// batchSeeds are the /predict/batch quirks.
var batchSeeds = []string{
	`{"records":[[1,2],[3,4]]}`,
	`{"RECORDS":[[1]]}`,
	"{\"record\u017f\":[[1]]}",
	`{"rec\u006Frds":[[1]]}`,
	`{"records":[]}`,
	`{"records":null}`,
	`{"records":[[]]}`,
	`{"records":[[],[1]]}`,
	`{"records":[null]}`,
	`{"records":[null,[1]]}`,
	`{"records":[[1,null]]}`,
	`{"records":[[1],[2]],"records":[[3]]}`,
	`{"records":[[1,2,3]],"records":[[4]]}`,
	`{"records":[[1,2]],"records":[[]]}`,
	`{"records":[[1],[2],[3],[4],[5]]}`,
	`{"records":[[1],[2],[3],x`,
	`{"records":[[1],[2],[3],]}`,
	`{"records":[[1],[2]]} tail`,
	`{"records":[1]}`,
	`{"records":[[1]],}`,
	`{"records":[[1]]`,
	`{"records":[[01]]}`,
	`{"records":[[1e999]]}`,
	`{"records":[["1"]]}`,
	`{"records":[[[1]]]}`,
	`{"values":[1]}`,
	`{}`,
	`null`,
	`[[1]]`,
}

func FuzzDecodePredict(f *testing.F) {
	for _, s := range predictSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkPredictParity(t, body)
	})
}

// FuzzDecodeBatch holds the uncapped scan to the oracle, and the capped
// scan to the uncapped one: it fails with errTooManyRecords when the
// uncapped result is over the cap, and may when an earlier occurrence of
// the field or a malformed tail was; otherwise it agrees.
func FuzzDecodeBatch(f *testing.F) {
	for _, s := range batchSeeds {
		f.Add([]byte(s), uint8(2))
	}
	f.Fuzz(func(t *testing.T, body []byte, max uint8) {
		all, allErr := checkBatchParity(t, body)
		limit := int(max) + 1
		got, err := decodeBatch(&codecBuf{b: body}, limit)
		switch {
		case errors.Is(err, errTooManyRecords):
		case allErr == nil && len(all) > limit:
			t.Fatalf("%q: %d records passed cap %d (err %v)", body, len(all), limit, err)
		case err != nil:
			if allErr == nil || allErr.Error() != err.Error() {
				t.Fatalf("%q: cap %d: err = %v, uncapped err = %v", body, limit, err, allErr)
			}
		default:
			if allErr != nil || len(got) != len(all) {
				t.Fatalf("%q: cap %d: %d records, uncapped %d (err %v)", body, limit, len(got), len(all), allErr)
			}
			for i := range got {
				if !sameFloats(got[i], all[i]) {
					t.Fatalf("%q: cap %d: record %d differs", body, limit, i)
				}
			}
		}
	})
}

// TestDecodeQuirks pins the outcome of the quirks the fuzzers seed with,
// independently of the oracle.
func TestDecodeQuirks(t *testing.T) {
	for _, tc := range []struct {
		body string
		want []float64 // nil with ok: accepted but empty
		ok   bool
	}{
		{`{"values":[1,2]}`, []float64{1, 2}, true},
		{`{"VALUES":[1,2]}`, []float64{1, 2}, true},
		{"{\"value\u017f\":[1,2]}", []float64{1, 2}, true},
		{`{"\u0076alue\u017F":[3]}`, []float64{3}, true},
		{`{"values":[1,2,3],"values":[4]}`, []float64{4}, true},
		{`{"values":[1,2],"values":null}`, nil, true},
		{`null`, nil, true},
		{`nullx`, nil, true},
		{" \t{\"values\":[-0]} trailing", []float64{math.Copysign(0, -1)}, true},
		{`{"values":[1e-400]}`, []float64{0}, true},
		{`{"values":[1e999]}`, nil, false},
		{`{"values":[01]}`, nil, false},
		{`{"values":[+1]}`, nil, false},
		{`{"values":[.5]}`, nil, false},
		{`{"values":[null,2]}`, nil, false},
		{`{"values":[1,]}`, nil, false},
		{`{"other":1}`, nil, false},
		{`{"val\ud800ues":[1]}`, nil, false},
	} {
		got, err := decodePredict(&codecBuf{b: []byte(tc.body)})
		if (err == nil) != tc.ok || !sameFloats(got, tc.want) {
			t.Errorf("%q: got %v, err %v; want %v, ok %v", tc.body, got, err, tc.want, tc.ok)
		}
	}
	if _, err := decodeBatch(&codecBuf{b: []byte(`{"records":[[1],[2],[3]]}`)}, 2); !errors.Is(err, errTooManyRecords) {
		t.Errorf("3 records under a cap of 2: err = %v, want errTooManyRecords", err)
	}
}

// TestReadBodyIgnoresInflatedLength: a declared Content-Length sizes the
// buffer at most to maxPooledBytes, whatever the client claims.
func TestReadBodyIgnoresInflatedLength(t *testing.T) {
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"values":[1]}`))
	req.ContentLength = maxBodyBytes
	c := &codecBuf{}
	if err := c.readBody(req); err != nil {
		t.Fatal(err)
	}
	if string(c.b) != `{"values":[1]}` || cap(c.b) > maxPooledBytes {
		t.Fatalf("read %q into a %d-byte buffer", c.b, cap(c.b))
	}
}

// TestHTTPBatchCapWhileScanning: a batch is refused with 413 as soon as
// the record past the cap begins, so a malformed tail after it is never
// reached. Decoding the whole body first answered 400 here.
func TestHTTPBatchCapWhileScanning(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{MaxBatchRecords: 2}, saveModel(t, dir, "m.json", trainModel(t, 1)))
	h := s.Handler()
	for body, want := range map[string]int{
		`{"records":[[1,2],[3,4],[5,6],{malformed`: http.StatusRequestEntityTooLarge,
		`{"records":[[1,2],[3,4]]}`:                http.StatusOK,
		`{"records":[[1,2],{malformed`:             http.StatusBadRequest,
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict/batch", strings.NewReader(body)))
		if w.Code != want {
			t.Errorf("%s: status %d, want %d: %s", body, w.Code, want, w.Body)
		}
	}
}

// TestHTTPNullElementRejected: a null element is a 400, not a prediction
// for a made-up 0.
func TestHTTPNullElementRejected(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{}, saveModel(t, dir, "m.json", trainModel(t, 1)))
	h := s.Handler()
	for url, body := range map[string]string{
		"/predict":       `{"values":[null,2]}`,
		"/predict/batch": `{"records":[[1,null]]}`,
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, strings.NewReader(body)))
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "null") {
			t.Errorf("%s %s: status %d, want 400 naming the null: %s", url, body, w.Code, w.Body)
		}
	}
}

// TestHTTPRequestTimeout: a request that outlives RequestTimeout gets 504
// and counts as expired, through the deadline carried on the job. Several
// requests in a row reuse pooled timers that fired.
func TestHTTPRequestTimeout(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{
		RequestTimeout: 10 * time.Millisecond,
		ScoreDelay:     40 * time.Millisecond,
		Registry:       reg,
	}, saveModel(t, dir, "m.json", trainModel(t, 1)))
	h := s.Handler()
	const requests = 3
	for i := 0; i < requests; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(`{"values":[1,2]}`)))
		if w.Code != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status %d, want 504: %s", i, w.Code, w.Body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("serve_deadline_expired").Value(); got != requests {
		t.Fatalf("serve_deadline_expired = %d, want %d", got, requests)
	}
}

// TestTimerReuseDrainsStaleFire: a pooled timer that fired without being
// received must not fire again straight after its next Reset.
func TestTimerReuseDrainsStaleFire(t *testing.T) {
	for i := 0; i < 20; i++ {
		tm := getTimer(time.Microsecond)
		time.Sleep(time.Millisecond)
		putTimer(tm, false)
		tm = getTimer(time.Hour)
		select {
		case <-tm.C:
			t.Fatalf("round %d: reused timer fired at once", i)
		default:
		}
		putTimer(tm, false)
	}
}

// classNamesModel trains a four-class tree whose class names need JSON
// escaping, and a server that has reloaded it up to a multi-digit version.
func classNamesModel(t *testing.T) (*cmpdt.Tree, *Server) {
	t.Helper()
	ds, err := cmpdt.NewDataset(cmpdt.Schema{
		Attrs:   []cmpdt.Attr{{Name: "x"}, {Name: "y"}},
		Classes: []string{"<a&b>", "q\"\\", "\u2028", "\xff"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		x := float64(i % 40)
		if err := ds.Append([]float64{x, float64(i % 7)}, int(x)/10); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := cmpdt.Train(ds, cmpdt.Config{Algorithm: cmpdt.CMPS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Loader: func(string) (cmpdt.Predictor, error) { return tr, nil }}, "")
	for i := 0; i < 12; i++ {
		if _, err := s.Reload("m.json"); err != nil {
			t.Fatal(err)
		}
	}
	return tr, s
}

// TestResponseBytesMatchEncoder: the hand-written responses are the bytes
// json.Encoder wrote for the old structs, header included.
func TestResponseBytesMatchEncoder(t *testing.T) {
	tr, s := classNamesModel(t)
	h := s.Handler()
	names := tr.ModelSchema().Classes
	version := s.Model().Version
	encode := func(v any) string {
		var b bytes.Buffer
		if err := json.NewEncoder(&b).Encode(v); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	post := func(url string, v any) *httptest.ResponseRecorder {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, url, bytes.NewReader(body)))
		if w.Code != http.StatusOK || w.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%s: status %d, Content-Type %q: %s", url, w.Code, w.Header().Get("Content-Type"), w.Body)
		}
		return w
	}

	var recs [][]float64
	seen := map[int]bool{}
	for x := 5.0; x < 40; x += 10 {
		rec := []float64{x, 3}
		recs = append(recs, rec)
		c := tr.Predict(rec)
		seen[c] = true
		want := encode(predictResponse{Class: names[c], ClassIndex: c, ModelVersion: version})
		if got := post("/predict", predictRequest{Values: rec}).Body.String(); got != want {
			t.Errorf("/predict %v:\n got %q\nwant %q", rec, got, want)
		}
	}
	if len(seen) != len(names) {
		t.Fatalf("records cover classes %v, want all %d", seen, len(names))
	}
	classes := tr.PredictBatchWorkers(nil, recs, 1)
	batchNames := make([]string, len(classes))
	for i, c := range classes {
		batchNames[i] = names[c]
	}
	want := encode(batchResponse{Classes: batchNames, ClassIndexes: classes, ModelVersion: version})
	if got := post("/predict/batch", batchRequest{Records: recs}).Body.String(); got != want {
		t.Errorf("/predict/batch:\n got %q\nwant %q", got, want)
	}
}

// predictAllocs is the measured allocation count of one /predict through
// Handler: the decoded record and its one-record batch, the job and the
// two halves of its done channel, and the dispatcher's per-batch record
// list, class slice and answered flags.
const predictAllocs = 8

// TestPredictAllocs holds one /predict through Handler to its measured
// allocation count, with the request and recorder reused.
func TestPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are inflated by the race detector")
	}
	dir := t.TempDir()
	s := newTestServer(t, Config{}, saveModel(t, dir, "m.json", trainModel(t, 1)))
	h := s.Handler()
	body := []byte(`{"values":[3,9]}`)
	rb := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/predict", nil)
	req.Body = rb
	req.ContentLength = int64(len(body))
	w := &reusedRecorder{header: http.Header{}}
	serveOnce := func() {
		rb.Reset(body)
		clear(w.header)
		w.status = 0
		w.body.Reset()
		h.ServeHTTP(w, req)
	}
	serveOnce()
	if w.status != http.StatusOK {
		t.Fatalf("status %d: %s", w.status, w.body.String())
	}
	if got := testing.AllocsPerRun(1000, serveOnce); got > predictAllocs {
		t.Fatalf("one /predict allocates %v times, ceiling %d", got, predictAllocs)
	}
}

// rewindBody is a request body that can be reset to new bytes.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// reusedRecorder is an http.ResponseWriter that can be reset in place.
type reusedRecorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *reusedRecorder) Header() http.Header { return r.header }

func (r *reusedRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *reusedRecorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}
