package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/prune"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

// finishCase is one input to the code finisher: a buffer of codes, whether
// its rows carry multiplicities, the schema it was drawn from and the
// stopping rules.
type finishCase struct {
	buf      *codeBuffer
	weighted bool
	schema   *dataset.Schema
	cfg      exact.Config
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

// Numeric column shapes decodeFinishCase draws codes from.
const (
	colConst  = iota // one code for every record
	colGapped        // a few codes with gaps between them, each repeated
	colByte          // any code in [0, 256)
	colWide          // sparse codes spread over [0, 65536)
	numColShapes
)

// decodeFinishCase turns bytes into a finisher input. A header fixes the
// class count, each attribute's kind and shape, the stopping rules and
// whether rows are weighted; every following group of k+1 bytes (k+2 when
// weighted) is one row's codes, label and multiplicity.
func decodeFinishCase(data []byte) finishCase {
	s := byteStream(data)
	nc := 2 + s.next()%2
	k := 1 + s.next()%5
	schema := &dataset.Schema{Classes: make([]string, nc)}
	shapes := make([]int, k)
	for a := 0; a < k; a++ {
		b := s.next()
		attr := dataset.Attribute{Name: fmt.Sprintf("a%d", a), Kind: dataset.Numeric}
		if b%4 == 0 {
			// 2..20 values: both the exhaustive and the greedy subset search.
			attr.Kind = dataset.Categorical
			attr.Values = make([]string, 2+(b/4)%19)
		}
		shapes[a] = (b / 4) % numColShapes
		schema.Attrs = append(schema.Attrs, attr)
	}
	c := s.next()
	cfg := exact.Config{MinSplitRecords: 1 + c%4, MaxDepth: 32}
	if c&0x04 != 0 {
		cfg.MaxDepth = 1 + (c>>4)%4
	}
	if c&0x08 != 0 {
		cfg.MinGiniGain = 1e-4
	}
	c = s.next()
	if c&0x01 != 0 {
		cfg.PurityStop = 0.85
	}
	weighted := c&0x04 != 0
	if c&0x02 != 0 {
		mask := s.next()
		cfg.AllowedAttrs = make([]bool, k)
		for a := range cfg.AllowedAttrs {
			cfg.AllowedAttrs[a] = mask&(1<<a) != 0
		}
	}
	constCode := s.next()

	buf := &codeBuffer{}
	buf.init(k)
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
func expand(buf *codeBuffer) *codeBuffer {
	out := &codeBuffer{}
	out.init(buf.k)
	for i, w := range buf.weights {
		for ; w > 0; w-- {
			out.add(buf.codes[i*buf.k:(i+1)*buf.k], int(buf.labels[i]), 1)
		}
	}
	return out
}

// widenedRows presents a code buffer to the exact builder as float64 rows.
type widenedRows struct {
	vals   []float64
	labels []int32
	k      int
}

func widen(buf *codeBuffer) *widenedRows {
	w := &widenedRows{vals: make([]float64, len(buf.codes)), labels: buf.labels, k: buf.k}
	for i, c := range buf.codes {
		w.vals[i] = float64(c)
	}
	return w
}

func (w *widenedRows) Len() int            { return len(w.labels) }
func (w *widenedRows) Row(i int) []float64 { return w.vals[i*w.k : (i+1)*w.k] }
func (w *widenedRows) Label(i int) int     { return int(w.labels[i]) }

// diffTrees returns the path to the first node where got and want differ,
// or "" when they are identical, thresholds included.
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
	case got.Split != nil && *got.Split != *want.Split:
		return fmt.Sprintf("%s: split %+v, want %+v", path, *got.Split, *want.Split)
	}
	if d := diffTrees(got.Left, want.Left, path+"L"); d != "" {
		return d
	}
	return diffTrees(got.Right, want.Right, path+"R")
}

// checkFinisher builds c with the code finisher and with the exact builder
// over the widened codes of its expansion, and reports the first
// difference; a weighted buffer must also finish node for node like its
// expansion. Then it holds both finishers, growing under the PUBLIC bound,
// to post-pruning.
func checkFinisher(t *testing.T, c finishCase) {
	t.Helper()
	exp := expand(c.buf)
	want := exact.BuildSubtree(widen(exp), c.schema, c.cfg)
	got := finishCodes(c.buf, c.schema, c.cfg)
	if d := diffTrees(got, want, "root"); d != "" {
		t.Fatalf("%d rows (weighted %v), %d records, %d classes, attrs %+v, cfg %+v: %s",
			c.buf.Len(), c.weighted, exp.Len(), c.schema.NumClasses(), c.schema.Attrs, c.cfg, d)
	}
	if c.weighted {
		if d := diffTrees(got, finishCodes(exp, c.schema, c.cfg), "root"); d != "" {
			t.Fatalf("%d weighted rows, %d records: the weighted buffer finishes unlike its expansion: %s",
				c.buf.Len(), exp.Len(), d)
		}
	}
	checkPrunedFinishers(t, c, widen(exp))
}

// checkPrunedFinishers requires each finisher, growing with Prune, to build
// byte for byte the subtree it builds without Prune and then prunes with
// prune.PUBLIC1: the code finisher over c, the exact builder over rows.
func checkPrunedFinishers(t *testing.T, c finishCase, rows exact.Rows) {
	t.Helper()
	finishers := []struct {
		name string
		grow func(cfg exact.Config) *tree.Node
	}{
		{"code finisher", func(cfg exact.Config) *tree.Node { return finishCodes(c.buf, c.schema, cfg) }},
		{"exact builder", func(cfg exact.Config) *tree.Node { return exact.BuildSubtree(rows, c.schema, cfg) }},
	}
	for _, fin := range finishers {
		cfg := c.cfg
		cfg.Prune = false
		want := &tree.Tree{Root: fin.grow(cfg), Schema: c.schema}
		prune.PUBLIC1(want, nil)
		cfg.Prune = true
		got := &tree.Tree{Root: fin.grow(cfg), Schema: c.schema}
		if g, w := serializeTree(t, got), serializeTree(t, want); !bytes.Equal(g, w) {
			t.Fatalf("%s, %d records, %d classes, attrs %+v, cfg %+v: pruned growth differs from post-pruning at %s",
				fin.name, c.buf.Len(), c.schema.NumClasses(), c.schema.Attrs, c.cfg, diffTrees(got.Root, want.Root, "root"))
		}
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

// TestPrunedFinishersMatchPostPruning holds both finishers, growing with
// Prune, to post-pruning on whole-store collect buffers of every Agrawal
// function and of a 7-class Statlog stand-in, where the bound minimizes
// over more than one split (PUBLIC(S)). The exact builder grows over the
// raw records, as the raw builder's finisher does.
func TestPrunedFinishersMatchPostPruning(t *testing.T) {
	type input struct {
		name string
		tbl  *dataset.Table
	}
	var inputs []input
	for fn := synth.F1; fn <= synth.F10; fn++ {
		inputs = append(inputs, input{fn.String(), synth.Generate(fn, 3000, int64(fn))})
	}
	seg, err := synth.Statlog("segment", 1)
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, input{"segment", seg})
	def := Default(CMPB)
	cfg := exact.Config{
		MinSplitRecords: def.MinSplitRecords,
		MaxDepth:        def.MaxDepth,
		MinGiniGain:     def.MinGiniGain,
		PurityStop:      def.PurityStop,
	}
	for _, in := range inputs {
		tbl := in.tbl
		t.Run(in.name, func(t *testing.T) {
			q := tableQuantizer(t, tbl, 64)
			buf := &codeBuffer{}
			buf.init(q.NumAttrs())
			codes := make([]uint16, q.NumAttrs())
			for i := 0; i < tbl.NumRecords(); i++ {
				q.Encode(tbl.Row(i), codes)
				buf.add(codes, tbl.Label(i), 1)
			}
			checkPrunedFinishers(t, finishCase{buf: buf, schema: tbl.Schema(), cfg: cfg}, tableRows{tbl})
		})
	}
}

// tableRows presents a table to the exact builder.
type tableRows struct{ t *dataset.Table }

func (r tableRows) Len() int            { return r.t.NumRecords() }
func (r tableRows) Row(i int) []float64 { return r.t.Row(i) }
func (r tableRows) Label(i int) int     { return r.t.Label(i) }

// TestCodeFinisherMatchesExact is the differential test: the code finisher
// must grow, node for node, the tree the exact builder grows over the same
// codes widened to float64, with rows weighted in about half the cases
// (the exact builder then grows over the expansion).
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
	buf := &codeBuffer{}
	buf.init(1)
	for i := 0; i < 4; i++ {
		buf.add([]uint16{5}, 0, 1)
		buf.add([]uint16{7}, 1, 1)
	}
	root := finishCodes(buf, schema, exact.Config{MinSplitRecords: 2, MaxDepth: 32})
	if root.Split == nil || root.Split.Threshold != 6 {
		t.Fatalf("split %+v, want threshold 6", root.Split)
	}
}

// FuzzCodeFinisher runs the differential oracle on decoded byte inputs.
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
