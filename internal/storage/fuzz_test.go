package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cmpdt/internal/dataset"
)

// FuzzOpenFile throws arbitrary bytes at the header parser and, when a file
// is accepted, at the scanner: neither may panic, whatever the input. The
// seeds cover both real formats, both magics with garbage after, a few
// header-length edge cases (one running a byte past the end of the file),
// and a valid header past 1 MiB.
func FuzzOpenFile(f *testing.F) {
	dir, err := os.MkdirTemp("", "fuzz-openfile")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { os.RemoveAll(dir) })

	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "a", Kind: dataset.Numeric},
			{Name: "b", Kind: dataset.Categorical, Values: []string{"u", "v"}},
		},
		Classes: []string{"n", "y"},
	}
	seedPath := filepath.Join(dir, "seed.rec")
	store := func(schema *dataset.Schema, version Version, n int) []byte {
		w, err := CreateFileVersion(seedPath, schema, version)
		if err != nil {
			f.Fatal(err)
		}
		vals := make([]float64, schema.NumAttrs())
		for r := 0; r < n; r++ {
			for a, attr := range schema.Attrs {
				vals[a] = float64(r)
				if attr.Kind == dataset.Categorical {
					vals[a] = float64(r % attr.Cardinality())
				}
			}
			if err := w.Append(vals, r%2); err != nil {
				f.Fatal(err)
			}
		}
		if _, err := w.Close(); err != nil {
			f.Fatal(err)
		}
		raw, err := os.ReadFile(seedPath)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	for _, version := range []Version{FormatV1, FormatV2} {
		raw := store(schema, version, 50)
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(append(append([]byte(nil), raw...), 0xff, 0xfe))
	}
	f.Add(pastEOF(store(schema, FormatV2, 50)))
	large := &dataset.Schema{Attrs: []dataset.Attribute{{Name: "c", Kind: dataset.Categorical}}, Classes: schema.Classes}
	for v := 0; v < 150_000; v++ {
		large.Attrs[0].Values = append(large.Attrs[0].Values, fmt.Sprintf("value%d", v))
	}
	f.Add(store(large, FormatV2, 2))
	f.Add([]byte(magicV1))
	f.Add([]byte(magicV2))
	f.Add([]byte(magicV1 + "\xff\xff\xff\xff"))
	f.Add([]byte(magicV2 + "\x10\x00\x00\x00{\"schema\":null}"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "in.rec")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		file, err := OpenFile(path)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		// Accepted files must scan without panicking; errors are fine.
		_ = file.Scan(func(int, []float64, int) error { return nil })
		var st Stats
		_ = file.ScanRange(1, file.NumRecords(), &st, func(int, []float64, int) error { return nil })
	})
}

// pastEOF returns a copy of the store raw whose header length field
// declares a header ending one byte past the end of the file.
func pastEOF(raw []byte) []byte {
	c := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(c[len(magicV1):], uint32(len(c)-len(magicV1)-4+1))
	return c
}
