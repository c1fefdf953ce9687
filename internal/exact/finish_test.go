package exact

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/prune"
	"cmpdt/internal/tree"
)

// codeRows is a buffer of bin-coded rows, k codes per row, each row with
// the number of records it stands for.
type codeRows struct {
	k       int
	codes   []uint16
	labels  []int32
	weights []uint32
}

func (b *codeRows) add(codes []uint16, label int, w uint32) {
	b.codes = append(b.codes, codes...)
	b.labels = append(b.labels, int32(label))
	b.weights = append(b.weights, w)
}

func (b *codeRows) finish(schema *dataset.Schema, cfg Config) *tree.Node {
	return FinishCodes(b.codes, b.k, b.labels, b.weights, schema, cfg)
}

// finishCase is one input to the code front end: a buffer of codes,
// whether its rows carry multiplicities, the schema it was drawn from and
// the stopping rules.
type finishCase struct {
	buf      *codeRows
	weighted bool
	schema   *dataset.Schema
	cfg      Config
}

// byteStream hands out the bytes of a fuzz input, then zeros.
type byteStream []byte

func (s *byteStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// decodeHeader reads the part of a fuzz input that fixes the class count,
// each attribute's kind and shape (drawn from numShapes) and the stopping
// rules, and returns the flag byte, whose remaining bits the callers read.
func decodeHeader(s *byteStream, numShapes int) (schema *dataset.Schema, shapes []int, cfg Config, flag int) {
	nc := 2 + s.next()%2
	k := 1 + s.next()%5
	schema = &dataset.Schema{Classes: make([]string, nc)}
	shapes = make([]int, k)
	for a := 0; a < k; a++ {
		b := s.next()
		attr := dataset.Attribute{Name: fmt.Sprintf("a%d", a), Kind: dataset.Numeric}
		if b%4 == 0 {
			// 2..20 values: both the exhaustive and the greedy subset search.
			attr.Kind = dataset.Categorical
			attr.Values = make([]string, 2+(b/4)%19)
		}
		shapes[a] = (b / 4) % numShapes
		schema.Attrs = append(schema.Attrs, attr)
	}
	c := s.next()
	cfg = Config{MinSplitRecords: 1 + c%4, MaxDepth: 32}
	if c&0x04 != 0 {
		cfg.MaxDepth = 1 + (c>>4)%4
	}
	if c&0x08 != 0 {
		cfg.MinGiniGain = 1e-4
	}
	flag = s.next()
	if flag&0x01 != 0 {
		cfg.PurityStop = 0.85
	}
	if flag&0x02 != 0 {
		mask := s.next()
		cfg.AllowedAttrs = make([]bool, k)
		for a := range cfg.AllowedAttrs {
			cfg.AllowedAttrs[a] = mask&(1<<a) != 0
		}
	}
	return schema, shapes, cfg, flag
}

// Numeric column shapes decodeFinishCase draws codes from.
const (
	colConst  = iota // one code for every record
	colGapped        // a few codes with gaps between them, each repeated
	colByte          // any code in [0, 256)
	colWide          // sparse codes spread over [0, 65536)
	numColShapes
)

// decodeFinishCase turns bytes into a code front end input. A header fixes
// the class count, each attribute's kind and shape, the stopping rules and
// whether rows are weighted; every following group of k+1 bytes (k+2 when
// weighted) is one row's codes, label and multiplicity.
func decodeFinishCase(data []byte) finishCase {
	s := byteStream(data)
	schema, shapes, cfg, flag := decodeHeader(&s, numColShapes)
	weighted := flag&0x04 != 0
	constCode := s.next()
	k := len(shapes)
	nc := schema.NumClasses()

	buf := &codeRows{k: k}
	codes := make([]uint16, k)
	for n := 0; len(s) > 0 && n < 512; n++ {
		for a := 0; a < k; a++ {
			v := s.next()
			if card := schema.Attrs[a].Cardinality(); card > 0 {
				codes[a] = uint16(v % card)
				continue
			}
			switch shapes[a] {
			case colConst:
				codes[a] = uint16(constCode)
			case colGapped:
				codes[a] = uint16(3 * (v % 5))
			case colByte:
				codes[a] = uint16(v)
			default:
				codes[a] = uint16(v * 257)
			}
		}
		label, mult := s.next()%nc, uint32(1)
		if weighted {
			// Mostly 1-3 draws, now and then up to 16.
			mult = uint32(1 + s.next()%3)
			if v := s.next(); v%8 == 7 {
				mult = uint32(1 + v/16)
			}
		}
		buf.add(codes, label, mult)
	}
	return finishCase{buf: buf, weighted: weighted, schema: schema, cfg: cfg}
}

// randomFinishBytes draws a fuzz-shaped input of up to maxRows rows whose
// labels follow the first attribute's byte, with noise, so trees grow
// several levels deep. About half the inputs weight their rows.
func randomFinishBytes(rng *rand.Rand, maxRows int) []byte {
	k := 1 + rng.Intn(5)
	data := []byte{byte(rng.Intn(2)), byte(k - 1)}
	for a := 0; a < k; a++ {
		data = append(data, byte(rng.Intn(256)))
	}
	rules := byte(rng.Intn(256))
	data = append(data, byte(rng.Intn(256)), rules)
	if rules&0x02 != 0 {
		data = append(data, byte(rng.Intn(256))) // AllowedAttrs mask
	}
	data = append(data, byte(rng.Intn(256))) // the constant column's code
	width := k + 1
	if rules&0x04 != 0 {
		width += 2
	}
	n := rng.Intn(maxRows)
	for i := 0; i < n; i++ {
		row := make([]byte, width)
		rng.Read(row)
		label := int(row[0]) / 86
		if rng.Intn(5) == 0 {
			label = rng.Intn(3)
		}
		row[k] = byte(label)
		data = append(data, row...)
	}
	return data
}

// expand returns buf's rows as a buffer of unit rows, each repeated in
// place as often as it is weighted.
func expand(buf *codeRows) *codeRows {
	out := &codeRows{k: buf.k}
	for i, w := range buf.weights {
		for ; w > 0; w-- {
			out.add(buf.codes[i*buf.k:(i+1)*buf.k], int(buf.labels[i]), 1)
		}
	}
	return out
}

// floatRows presents float64 rows to the builders.
type floatRows struct {
	vals   []float64
	labels []int32
	k      int
}

func (w *floatRows) Len() int            { return len(w.labels) }
func (w *floatRows) Row(i int) []float64 { return w.vals[i*w.k : (i+1)*w.k] }
func (w *floatRows) Label(i int) int     { return int(w.labels[i]) }

// widen presents a code buffer's unit rows as float64 rows.
func widen(buf *codeRows) *floatRows {
	w := &floatRows{vals: make([]float64, len(buf.codes)), labels: buf.labels, k: buf.k}
	for i, c := range buf.codes {
		w.vals[i] = float64(c)
	}
	return w
}

// diffTrees returns the path to the first node where got and want differ,
// or "" when they are identical, thresholds bit for bit.
func diffTrees(got, want *tree.Node, path string) string {
	switch {
	case got == nil || want == nil:
		if got != want {
			return path + ": one side missing"
		}
		return ""
	case got.N != want.N || got.Class != want.Class || got.Gini != want.Gini ||
		!slices.Equal(got.ClassCounts, want.ClassCounts):
		return fmt.Sprintf("%s: counts %v gini %v, want %v gini %v", path, got.ClassCounts, got.Gini, want.ClassCounts, want.Gini)
	case (got.Split == nil) != (want.Split == nil):
		return fmt.Sprintf("%s: split %v, want %v", path, got.Split, want.Split)
	case got.Split != nil && !sameSplit(*got.Split, *want.Split):
		return fmt.Sprintf("%s: split %+v, want %+v", path, *got.Split, *want.Split)
	}
	if d := diffTrees(got.Left, want.Left, path+"L"); d != "" {
		return d
	}
	return diffTrees(got.Right, want.Right, path+"R")
}

// sameSplit reports whether two splits are equal, thresholds bit for bit.
func sameSplit(a, b tree.Split) bool {
	ta, tb := a.Threshold, b.Threshold
	a.Threshold, b.Threshold = 0, 0
	return a == b && math.Float64bits(ta) == math.Float64bits(tb)
}

// checkFinisher builds c with the code front end, and with the float front
// end and the reference builder over the widened codes of its expansion,
// and reports the first difference; a weighted buffer must also finish node
// for node like its expansion. Then it holds both front ends, growing under
// the PUBLIC bound, to post-pruning.
func checkFinisher(t *testing.T, c finishCase) {
	t.Helper()
	exp := expand(c.buf)
	rows := widen(exp)
	want := oracleSubtree(rows, c.schema, c.cfg)
	got := c.buf.finish(c.schema, c.cfg)
	where := fmt.Sprintf("%d rows (weighted %v), %d records, %d classes, attrs %+v, cfg %+v",
		len(c.buf.labels), c.weighted, len(exp.labels), c.schema.NumClasses(), c.schema.Attrs, c.cfg)
	if d := diffTrees(got, want, "root"); d != "" {
		t.Fatalf("%s: code front end: %s", where, d)
	}
	if d := diffTrees(BuildSubtree(rows, c.schema, c.cfg), want, "root"); d != "" {
		t.Fatalf("%s: float front end: %s", where, d)
	}
	if c.weighted {
		if d := diffTrees(got, exp.finish(c.schema, c.cfg), "root"); d != "" {
			t.Fatalf("%s: the weighted buffer finishes unlike its expansion: %s", where, d)
		}
	}
	checkPrunedGrowth(t, c.schema, c.cfg, func(cfg Config) *tree.Node { return c.buf.finish(c.schema, cfg) })
	checkPrunedGrowth(t, c.schema, c.cfg, func(cfg Config) *tree.Node { return BuildSubtree(rows, c.schema, cfg) })
}

// checkPrunedGrowth requires grow, growing with Prune, to build byte for
// byte the subtree it builds without Prune and then prunes with
// prune.PUBLIC1.
func checkPrunedGrowth(t *testing.T, schema *dataset.Schema, cfg Config, grow func(Config) *tree.Node) {
	t.Helper()
	cfg.Prune = false
	want := &tree.Tree{Root: grow(cfg), Schema: schema}
	prune.PUBLIC1(want, nil)
	cfg.Prune = true
	got := &tree.Tree{Root: grow(cfg), Schema: schema}
	if g, w := serializeTree(t, got), serializeTree(t, want); !bytes.Equal(g, w) {
		t.Fatalf("%d classes, attrs %+v, cfg %+v: pruned growth differs from post-pruning at %s",
			schema.NumClasses(), schema.Attrs, cfg, diffTrees(got.Root, want.Root, "root"))
	}
}

func serializeTree(t *testing.T, tr *tree.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCodeFinisherMatchesExact is the differential test: the code front
// end must grow, node for node, the tree the reference builder grows over
// the same codes widened to float64, with rows weighted in about half the
// cases (the reference then grows over the expansion).
func TestCodeFinisherMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	weighted := 0
	for iter := 0; iter < 600; iter++ {
		c := decodeFinishCase(randomFinishBytes(rng, 400))
		if c.weighted {
			weighted++
		}
		checkFinisher(t, c)
	}
	if weighted < 200 || weighted > 400 {
		t.Fatalf("%d of 600 cases weighted; want about half", weighted)
	}
}

// TestCodeFinisherThresholdIsMidpoint pins the threshold rule: with codes 5
// and 7 present and 6 absent, the split sits at 6, midway between them.
func TestCodeFinisherThresholdIsMidpoint(t *testing.T) {
	schema := &dataset.Schema{Attrs: []dataset.Attribute{{Name: "x"}}, Classes: []string{"a", "b"}}
	buf := &codeRows{k: 1}
	for i := 0; i < 4; i++ {
		buf.add([]uint16{5}, 0, 1)
		buf.add([]uint16{7}, 1, 1)
	}
	root := buf.finish(schema, Config{MinSplitRecords: 2, MaxDepth: 32})
	if root.Split == nil || root.Split.Threshold != 6 {
		t.Fatalf("split %+v, want threshold 6", root.Split)
	}
}

// FuzzCodeFinisher runs the code front end's differential oracle on
// decoded byte inputs.
func FuzzCodeFinisher(f *testing.F) {
	rng := rand.New(rand.NewSource(6))
	// Small seeds keep each run, and so minimization, quick.
	for i := 0; i < 8; i++ {
		f.Add(randomFinishBytes(rng, 48))
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFinisher(t, decodeFinishCase(data))
	})
}

// Numeric value shapes decodeFloatCase draws from.
const (
	valTies     = iota // a handful of values, both zeros among them
	valAdjacent        // floats a few ULPs apart, whose midpoints round
	valHuge            // values near ±MaxFloat64 and ±Inf, whose gaps overflow
	valSpread          // any of 256 values spread over [-64, 64)
	numValShapes
)

// tieValues holds valTies' values: -0 and +0 are one value to the builders.
var tieValues = []float64{-2, -1, math.Copysign(0, -1), 0, 1, 2.5}

// decodeFloatCase turns bytes into float rows for the float front end. The
// header is decodeFinishCase's, with bit 0x04 of the flag byte asking for
// Prune; each following group of k+2 bytes is one row's values and label,
// led by a byte that, one time in five, repeats the previous row instead.
func decodeFloatCase(data []byte) (*floatRows, *dataset.Schema, Config) {
	s := byteStream(data)
	schema, shapes, cfg, flag := decodeHeader(&s, numValShapes)
	cfg.Prune = flag&0x04 != 0
	k, nc := len(shapes), schema.NumClasses()
	rows := &floatRows{k: k}
	for n := 0; len(s) > 0 && n < 512; n++ {
		if s.next()%5 == 0 && n > 0 {
			rows.vals = append(rows.vals, rows.Row(n-1)...)
			rows.labels = append(rows.labels, rows.labels[n-1])
			continue
		}
		for a := 0; a < k; a++ {
			v := s.next()
			if card := schema.Attrs[a].Cardinality(); card > 0 {
				rows.vals = append(rows.vals, float64(v%card))
				continue
			}
			var x float64
			switch shapes[a] {
			case valTies:
				x = tieValues[v%len(tieValues)]
			case valAdjacent:
				x = 1.0
				if v&0x80 != 0 {
					x = 1 + 0x1p-52 // an odd mantissa: midpoints round up
				}
				for j := v % 6; j > 0; j-- {
					x = math.Nextafter(x, 2)
				}
			case valHuge:
				x = []float64{math.Inf(-1), -math.MaxFloat64, -1e308, 0, 1e308, math.MaxFloat64, math.Inf(1)}[v%7]
			default:
				x = float64(v-128) / 2
			}
			rows.vals = append(rows.vals, x)
		}
		rows.labels = append(rows.labels, int32(s.next()%nc))
	}
	return rows, schema, cfg
}

// FuzzBuildSubtree holds the float front end to the reference builder node
// for node, thresholds bit for bit, on ties, mixed zeros, adjacent and
// huge floats, repeated rows and categorical attributes under every stop
// rule, AllowedAttrs and Prune; and BestSplit to the reference root search.
func FuzzBuildSubtree(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 8; i++ {
		f.Add(randomFinishBytes(rng, 48))
	}
	f.Add([]byte{1, 2, 1, 5, 9, 0x20, 0x04})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rows, schema, cfg := decodeFloatCase(data)
		if d := diffTrees(BuildSubtree(rows, schema, cfg), oracleSubtree(rows, schema, cfg), "root"); d != "" {
			t.Fatalf("%d rows, %d classes, attrs %+v, cfg %+v: %s", rows.Len(), schema.NumClasses(), schema.Attrs, cfg, d)
		}
		split, g, ok := BestSplit(rows, schema)
		wsplit, wg, wok := oracleBestSplit(rows, schema)
		if ok != wok || ok && (!sameSplit(split, wsplit) || g != wg) {
			t.Fatalf("%d rows: BestSplit %+v %v %v, want %+v %v %v", rows.Len(), split, g, ok, wsplit, wg, wok)
		}
	})
}

// TestBuildTableManyDistinct grows a tree over an attribute with more than
// 65,536 distinct values, past what a 16-bit rank could number, and holds
// it and BestSplit to the reference builder.
func TestBuildTableManyDistinct(t *testing.T) {
	const n = 70_000
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "x", Kind: dataset.Numeric},
			{Name: "c", Kind: dataset.Categorical, Values: []string{"u", "v", "w"}},
		},
		Classes: []string{"a", "b"},
	}
	tbl := dataset.MustNew(schema)
	rng := rand.New(rand.NewSource(8))
	for _, i := range rng.Perm(n) {
		x := float64(i) * 0.25
		label := (i / 5000) % 2
		if rng.Intn(10) == 0 {
			label = 1 - label
		}
		tbl.Append([]float64{x, float64(rng.Intn(3))}, label)
	}
	cfg := DefaultConfig()
	cfg.MaxDepth = 8
	got := BuildTable(tbl, cfg)
	if d := diffTrees(got.Root, oracleSubtree(tableRows{tbl}, schema, cfg), "root"); d != "" {
		t.Fatal(d)
	}
	if got.Depth() < 4 {
		t.Fatalf("depth %d: the tree should split the x range several times", got.Depth())
	}
	split, g, _ := BestSplit(tableRows{tbl}, schema)
	wsplit, wg, _ := oracleBestSplit(tableRows{tbl}, schema)
	if !sameSplit(split, wsplit) || g != wg {
		t.Fatalf("BestSplit %+v %v, want %+v %v", split, g, wsplit, wg)
	}
}
