package attrlist

import (
	"fmt"
	"math"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
)

// fuzzStream hands out the bytes of a fuzz input, then zeros.
type fuzzStream []byte

func (s *fuzzStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// fuzzValues are the numeric values a fuzzed table draws from: ties, both
// zeros, negatives, a denormal, and adjacent floats whose midpoint rounds
// onto one of them.
var fuzzValues = []float64{
	math.Copysign(0, -1), 0, 1, -1, 2.5, -7, 100, 5e-324,
	math.Nextafter(1, 2), math.Nextafter(math.Nextafter(1, 2), 2), 3,
}

// decodeFuzzTable turns bytes into a small table and stopping rules: 2-6
// classes, 1-4 attributes (numeric, or categorical with 2-5 values), 1-64
// records, MaxDepth 1-8, MinSplitRecords 1-8, an occasional PurityStop in
// [0.5, 1), pruning on or off; and RainForest's collection threshold,
// 0-31 records, and a small AVC buffer, 1-256 entries.
func decodeFuzzTable(data []byte) (tbl *dataset.Table, cfg exact.Config, inMemory int, buffer int64) {
	s := fuzzStream(data)
	nc := 2 + s.next()%5
	na := 1 + s.next()%4
	schema := &dataset.Schema{Classes: make([]string, nc)}
	for c := range schema.Classes {
		schema.Classes[c] = fmt.Sprintf("c%d", c)
	}
	for a := 0; a < na; a++ {
		attr := dataset.Attribute{Name: fmt.Sprintf("a%d", a), Kind: dataset.Numeric}
		if b := s.next(); b%3 == 0 {
			attr.Kind = dataset.Categorical
			for v := 0; v < 2+b%4; v++ {
				attr.Values = append(attr.Values, fmt.Sprintf("v%d", v))
			}
		}
		schema.Attrs = append(schema.Attrs, attr)
	}
	cfg = exact.DefaultConfig()
	cfg.MaxDepth = 1 + s.next()%8
	cfg.MinSplitRecords = 1 + s.next()%8
	if b := s.next(); b%4 == 0 {
		cfg.PurityStop = 0.5 + float64(b%50)/100
	}
	cfg.Prune = s.next()%2 == 1
	inMemory, buffer = s.next()%32, 1+int64(s.next())
	tbl = dataset.MustNew(schema)
	n := 1 + s.next()%64
	row := make([]float64, na)
	for i := 0; i < n; i++ {
		for a, attr := range schema.Attrs {
			b := s.next()
			if attr.Kind == dataset.Categorical {
				row[a] = float64(b % attr.Cardinality())
			} else {
				row[a] = fuzzValues[b%len(fuzzValues)]
			}
		}
		if err := tbl.Append(row, s.next()%nc); err != nil {
			panic(err)
		}
	}
	return tbl, cfg, inMemory, buffer
}

// FuzzAttrListCost: over random small tables and stopping rules, Build
// grows the replaced builders' trees byte for byte and charges their
// scans, traffic and peak memory, under every layout.
func FuzzAttrListCost(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 3, 1, 2, 0, 7, 0, 3, 0, 4, 1, 60, 8, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	f.Add([]byte{0, 1, 2, 9, 1, 1, 0, 63, 8, 0, 9, 1, 8, 0, 9, 1, 10, 0, 8, 1, 9, 0, 10, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		tbl, cfg, inMemory, buffer := decodeFuzzTable(data)
		checkOracle(t, "fuzz", tbl, cfg, inMemory, buffer)
	})
}
