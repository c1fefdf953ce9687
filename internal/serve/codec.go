package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The hot request and response shapes are
//
//	/predict        {"values":[n,…]}         → {"class":…,"class_index":…,"model_version":…}
//	/predict/batch  {"records":[[n,…],…]}    → {"classes":[…],"class_indexes":[…],"model_version":…}
//
// and this file scans and writes them by hand. The scanner accepts what
// encoding/json's Decoder with DisallowUnknownFields accepts for those
// shapes and yields bitwise-identical float64s, with three deliberate
// exceptions: a null array element is rejected (JSON cannot carry the NaN
// a tree routes as missing, and the Decoder silently scored it as 0), a
// batch is rejected as soon as its record past the cap begins, and a body
// over maxBodyBytes is rejected even if its first JSON value ends inside
// the limit. The encoder writes the bytes json.Encoder wrote.

// maxBodyBytes bounds request bodies; a batch of MaxBatchRecords
// 9-attribute records fits comfortably.
const maxBodyBytes = 32 << 20

// maxPooledBytes is the largest buffer returned to codecPool, so one huge
// batch does not pin its buffers for the life of the process.
const maxPooledBytes = 64 << 10

var (
	errBodyTooLarge   = fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)
	errTooManyRecords = errors.New("serve: batch exceeds the record cap")
)

// jsonContentType is shared by every success response. net/http only
// reads header values, so one slice serves them all without allocating.
var jsonContentType = []string{"application/json"}

// codecBuf is one request's scratch: the body bytes, reused afterwards
// for the response, and the scanned numbers before they are copied out.
// The copied-out records are never pooled: Submit can return on a
// deadline while the dispatcher still reads them.
type codecBuf struct {
	b    []byte
	vals []float64 // every scanned number, record after record
	ends []int     // ends[i] is where record i ends in vals (batches)
}

var codecPool = sync.Pool{New: func() any { return &codecBuf{b: make([]byte, 0, 512)} }}

func getCodecBuf() *codecBuf { return codecPool.Get().(*codecBuf) }

func (c *codecBuf) release() {
	if cap(c.b) > maxPooledBytes {
		c.b = nil
	}
	if cap(c.vals) > maxPooledBytes/8 {
		c.vals = nil
	}
	if cap(c.ends) > maxPooledBytes/8 {
		c.ends = nil
	}
	codecPool.Put(c)
}

// readBody reads r's whole body into c.b, failing once it passes
// maxBodyBytes. A declared length pre-sizes the buffer only up to
// maxPooledBytes, so a client cannot make the server allocate for bytes
// it never sends.
func (c *codecBuf) readBody(r *http.Request) error {
	c.b = c.b[:0]
	if n := min(r.ContentLength+1, maxPooledBytes); n > int64(cap(c.b)) {
		c.b = make([]byte, 0, n) // +1 so the final Read sees EOF without growing
	}
	for {
		if len(c.b) == cap(c.b) {
			c.b = append(c.b, 0)[:len(c.b)]
		}
		n, err := r.Body.Read(c.b[len(c.b):min(cap(c.b), maxBodyBytes+1)])
		c.b = c.b[:len(c.b)+n]
		if len(c.b) > maxBodyBytes {
			return errBodyTooLarge
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// decodePredict scans c.b as a /predict body and returns its values
// (nil when absent, null or empty).
func decodePredict(c *codecBuf) ([]float64, error) {
	d := decoder{data: c.b, c: c}
	if err := d.decode(keyValues); err != nil {
		return nil, err
	}
	if len(c.vals) == 0 {
		return nil, nil
	}
	return append([]float64(nil), c.vals...), nil
}

// decodeBatch scans c.b as a /predict/batch body and returns its records
// (nil when absent, null or empty). It fails with errTooManyRecords as
// soon as record maxRecords+1 begins.
func decodeBatch(c *codecBuf, maxRecords int) ([][]float64, error) {
	d := decoder{data: c.b, c: c, batch: true, maxRecords: maxRecords}
	if err := d.decode(keyRecords); err != nil {
		return nil, err
	}
	if len(c.ends) == 0 {
		return nil, nil
	}
	flat := append([]float64(nil), c.vals...)
	records := make([][]float64, len(c.ends))
	lo := 0
	for i, hi := range c.ends {
		records[i] = flat[lo:hi:hi]
		lo = hi
	}
	return records, nil
}

var (
	keyValues  = []byte("values")
	keyRecords = []byte("records")
)

// decoder scans one body. Every byte the two shapes do not allow is an
// error, so it never has to skip over a value it does not understand.
type decoder struct {
	data       []byte
	pos        int
	c          *codecBuf
	batch      bool // records of numbers rather than one record
	maxRecords int
}

// decode scans the first JSON value of data: null, or an object whose only
// field is key. A field that occurs twice keeps its last value, as in
// encoding/json. Bytes after the value are ignored.
func (d *decoder) decode(key []byte) error {
	d.c.vals, d.c.ends = d.c.vals[:0], d.c.ends[:0]
	switch d.skipSpace() {
	case 'n':
		return d.null()
	case '{':
		d.pos++
	default:
		return d.unexpected("looking for the beginning of an object")
	}
	if d.skipSpace() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.skipSpace() != '"' {
			return d.unexpected("looking for the beginning of an object key")
		}
		start := d.pos
		match, err := d.key(key)
		if err != nil {
			return err
		}
		if !match {
			return fmt.Errorf("unknown field %s", d.data[start:d.pos])
		}
		if d.skipSpace() != ':' {
			return d.unexpected("after object key")
		}
		d.pos++
		if err := d.field(); err != nil {
			return err
		}
		switch d.skipSpace() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.unexpected("after object key:value pair")
		}
	}
}

// field scans the value of the one known field, replacing any earlier
// occurrence's numbers.
func (d *decoder) field() error {
	d.c.vals, d.c.ends = d.c.vals[:0], d.c.ends[:0]
	switch d.skipSpace() {
	case 'n':
		return d.null()
	case '[':
		d.pos++
	default:
		return d.unexpected("looking for an array")
	}
	if !d.batch {
		return d.numbers()
	}
	if d.skipSpace() == ']' {
		d.pos++
		return nil
	}
	for n := 0; ; n++ {
		if n == d.maxRecords {
			return errTooManyRecords
		}
		switch d.skipSpace() {
		case '[':
			d.pos++
		case 'n':
			return d.nullElement()
		default:
			return d.unexpected("looking for a record array")
		}
		if err := d.numbers(); err != nil {
			return err
		}
		d.c.ends = append(d.c.ends, len(d.c.vals))
		switch d.skipSpace() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.unexpected("after array element")
		}
	}
}

// numbers scans the elements of a number array whose '[' is consumed,
// through its ']', appending them to c.vals.
func (d *decoder) numbers() error {
	if d.skipSpace() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := d.number(); err != nil {
			return err
		}
		switch d.skipSpace() {
		case ',':
			d.pos++
		case ']':
			d.pos++
			return nil
		default:
			return d.unexpected("after array element")
		}
	}
}

// number scans one number in the strict JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and parses it with
// strconv.ParseFloat, as encoding/json does: overflow is an error,
// underflow rounds to zero.
func (d *decoder) number() error {
	data := d.data
	start := d.skipSpace()
	p := d.pos
	if start == 'n' {
		return d.nullElement()
	}
	if start == '-' {
		p++
	}
	switch {
	case p < len(data) && data[p] == '0':
		p++
	case p < len(data) && '1' <= data[p] && data[p] <= '9':
		p = digits(data, p+1)
	default:
		d.pos = p
		return d.unexpected("looking for a number")
	}
	if p < len(data) && data[p] == '.' {
		if p++; p >= len(data) || !isDigit(data[p]) {
			d.pos = p
			return d.unexpected("after decimal point in numeric literal")
		}
		p = digits(data, p)
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		if p++; p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		if p >= len(data) || !isDigit(data[p]) {
			d.pos = p
			return d.unexpected("in exponent of numeric literal")
		}
		p = digits(data, p)
	}
	f, err := strconv.ParseFloat(string(data[d.pos:p]), 64)
	if err != nil {
		return fmt.Errorf("number %s at offset %d does not fit a float64", data[d.pos:p], d.pos)
	}
	d.c.vals = append(d.c.vals, f)
	d.pos = p
	return nil
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func digits(data []byte, p int) int {
	for p < len(data) && isDigit(data[p]) {
		p++
	}
	return p
}

// key scans the string at d.pos and reports whether it names field the
// way encoding/json matches names: unescaped, then compared with
// bytes.EqualFold (so "VALUES" and "valueſ" match "values").
func (d *decoder) key(field []byte) (bool, error) {
	d.pos++ // the opening quote
	start := d.pos
	escaped := false
	for {
		if d.pos >= len(d.data) {
			return false, d.unexpected("in string literal")
		}
		switch c := d.data[d.pos]; {
		case c == '"':
			raw := d.data[start:d.pos]
			d.pos++
			if escaped {
				var buf [32]byte
				raw = unescape(buf[:0], raw)
			}
			return bytes.EqualFold(raw, field), nil
		case c == '\\':
			escaped = true
			if err := d.escape(); err != nil {
				return false, err
			}
		case c < 0x20:
			return false, d.unexpected("in string literal")
		default:
			d.pos++
		}
	}
}

// escape validates the escape sequence at d.pos and steps over it.
func (d *decoder) escape() error {
	p := d.pos + 1
	if p >= len(d.data) {
		d.pos = p
		return d.unexpected("in string escape code")
	}
	switch d.data[p] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		d.pos = p + 1
		return nil
	case 'u':
		for i := 1; i <= 4; i++ {
			if p+i >= len(d.data) || hexValue(d.data[p+i]) < 0 {
				d.pos = p + i
				return d.unexpected("in \\u hexadecimal character escape")
			}
		}
		d.pos = p + 5
		return nil
	}
	d.pos = p
	return d.unexpected("in string escape code")
}

// unescape appends the decoded form of a validated string body to dst,
// for matching against a field name only. It differs from encoding/json
// in two ways that cannot change a match: a surrogate escape, paired or
// not, becomes U+FFFD (no rune outside the BMP folds to a letter of a
// field name), and invalid UTF-8 bytes stay as they are.
func unescape(dst, raw []byte) []byte {
	for i := 0; i < len(raw); {
		if raw[i] != '\\' {
			dst = append(dst, raw[i])
			i++
			continue
		}
		c := raw[i+1]
		switch c {
		case 'u':
			dst = utf8.AppendRune(dst, hex4(raw[i+2:]))
			i += 6
			continue
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		}
		dst = append(dst, c)
		i += 2
	}
	return dst
}

func hexValue(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		r = r<<4 | hexValue(c)
	}
	return r
}

// null scans the literal null.
func (d *decoder) null() error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		return d.unexpected("in literal null")
	}
	d.pos += 4
	return nil
}

func (d *decoder) nullElement() error {
	return fmt.Errorf("null array element at offset %d: a value must be a number", d.pos)
}

// skipSpace steps over JSON whitespace and returns the next byte, or 0
// at the end of data.
func (d *decoder) skipSpace() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// unexpected reports the byte at d.pos (or the end of data) as a syntax
// error met while doing what context says.
func (d *decoder) unexpected(context string) error {
	if d.pos >= len(d.data) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q at offset %d %s", d.data[d.pos], d.pos, context)
}

// appendPredictResponse appends what json.Encoder wrote for
// {"class":…,"class_index":…,"model_version":…}.
func appendPredictResponse(b []byte, m *Model, class int) []byte {
	b = append(b, `{"class":`...)
	b = append(b, m.classJSON[class]...)
	b = append(b, `,"class_index":`...)
	b = strconv.AppendInt(b, int64(class), 10)
	return appendVersion(b, m)
}

// appendBatchResponse appends what json.Encoder wrote for
// {"classes":[…],"class_indexes":[…],"model_version":…}.
func appendBatchResponse(b []byte, m *Model, classes []int) []byte {
	b = append(b, `{"classes":[`...)
	for i, c := range classes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, m.classJSON[c]...)
	}
	b = append(b, `],"class_indexes":[`...)
	for i, c := range classes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	b = append(b, ']')
	return appendVersion(b, m)
}

func appendVersion(b []byte, m *Model) []byte {
	b = append(b, `,"model_version":`...)
	b = strconv.AppendInt(b, m.Version, 10)
	return append(b, "}\n"...)
}

func writeOK(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}
