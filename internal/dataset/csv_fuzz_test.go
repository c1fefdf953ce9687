package dataset

import (
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// FuzzCSVReader holds the CSV record reader to three properties on
// arbitrary input: it never panics; every record it accepts has the
// schema's arity, a label indexing Schema.Classes and categorical values
// indexing their domain; and ReadCSV is exactly a drain of the reader into
// a table (the same records, or the same error).
func FuzzCSVReader(f *testing.F) {
	f.Add([]byte("x,color,class\n1.5,red,no\n-2,blue,yes\n"))
	f.Add([]byte("x,color,class\nNaN,green,no\n"))
	f.Add([]byte("x,color,class\n-Inf,green,yes\n+inf,red,no\n"))
	f.Add([]byte("x,color,class\n1,purple,no\n"))
	f.Add([]byte("x,color,class\n1,red,maybe\n"))
	f.Add([]byte("x,color,class\n1,red\n"))
	f.Add([]byte("x,colour,class\n"))
	f.Add([]byte("x,color,label\n"))
	f.Add([]byte("x,color,class\n\"1\",\"red\",\"no\"\n0x1p-2,red,yes\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		schema := testSchema()
		// The oracle: drain the reader into a table by hand, stopping at the
		// first read or append failure.
		want, err := New(schema)
		if err != nil {
			t.Fatal(err)
		}
		var wantErr error
		cr, err := NewCSVReader(strings.NewReader(string(data)), schema)
		if err != nil {
			wantErr = err
		}
		for wantErr == nil {
			vals, label, err := cr.Read()
			if err == io.EOF {
				break
			}
			if err != nil {
				wantErr = err
				break
			}
			if len(vals) != schema.NumAttrs() {
				t.Fatalf("record has %d values, schema has %d attributes", len(vals), schema.NumAttrs())
			}
			if label < 0 || label >= schema.NumClasses() {
				t.Fatalf("label %d outside [0,%d)", label, schema.NumClasses())
			}
			for a := range schema.Attrs {
				if card := schema.Attrs[a].Cardinality(); card > 0 {
					if v := vals[a]; v != math.Trunc(v) || v < 0 || int(v) >= card {
						t.Fatalf("categorical %q value %v outside [0,%d)", schema.Attrs[a].Name, v, card)
					}
				}
			}
			if err := want.Append(vals, label); err != nil {
				wantErr = fmt.Errorf("dataset: line %d: %w", cr.Line(), err)
			}
		}

		got, err := ReadCSV(strings.NewReader(string(data)), schema)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("ReadCSV returned error %v, draining the reader %v", err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("ReadCSV failed with %v, draining the reader succeeded", err)
		}
		if got.NumRecords() != want.NumRecords() {
			t.Fatalf("ReadCSV read %d records, the reader %d", got.NumRecords(), want.NumRecords())
		}
		for i := 0; i < got.NumRecords(); i++ {
			if got.Label(i) != want.Label(i) {
				t.Fatalf("record %d: label %d, reader %d", i, got.Label(i), want.Label(i))
			}
			g, w := got.Row(i), want.Row(i)
			for a := range g {
				if math.Float64bits(g[a]) != math.Float64bits(w[a]) {
					t.Fatalf("record %d attribute %d: %v, reader %v", i, a, g[a], w[a])
				}
			}
		}
	})
}
