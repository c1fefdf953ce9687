package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV writes the table as CSV: a header row with attribute names plus
// "class", then one row per record. Categorical values and class labels are
// written symbolically.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, t.schema.NumAttrs()+1)
	for i := range t.schema.Attrs {
		header = append(header, t.schema.Attrs[i].Name)
	}
	header = append(header, "class")
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i := 0; i < t.NumRecords(); i++ {
		vals := t.Row(i)
		for j, v := range vals {
			a := &t.schema.Attrs[j]
			if a.Kind == Categorical {
				row[j] = a.Values[int(v)]
			} else {
				row[j] = strconv.FormatFloat(v, 'g', -1, 64)
			}
		}
		row[len(row)-1] = t.schema.Classes[t.Label(i)]
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a CSV stream written by WriteCSV (or hand-authored in the
// same shape) against the given schema by draining a CSVReader into a
// table. The header row is validated.
func ReadCSV(r io.Reader, schema *Schema) (*Table, error) {
	t, err := New(schema)
	if err != nil {
		return nil, err
	}
	cr, err := NewCSVReader(r, schema)
	if err != nil {
		return nil, err
	}
	for {
		vals, label, err := cr.Read()
		if err == io.EOF {
			return t, nil
		}
		if err != nil {
			return nil, err
		}
		if err := t.Append(vals, label); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", cr.Line(), err)
		}
	}
}

// CSVReader parses the WriteCSV record shape incrementally: a validated
// header row naming the schema's attributes plus "class", then one record
// per row with categorical values and the class written symbolically. It
// is the one CSV record parser; ReadCSV drains it into a table and
// streaming ingestion reads from it record by record.
//
// Every record Read returns has the schema's arity, a label indexing
// Schema.Classes and categorical values indexing their domain. Numeric
// fields are parsed with strconv.ParseFloat, which accepts "NaN" and
// "Inf"; trainers reject those through Schema.RecordDefect.
type CSVReader struct {
	cr       *csv.Reader
	schema   *Schema
	classIdx map[string]int
	catIdx   []map[string]int
	vals     []float64
	line     int
}

// NewCSVReader reads and validates the header row of r against schema.
func NewCSVReader(r io.Reader, schema *Schema) (*CSVReader, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = schema.NumAttrs() + 1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: reading CSV header: %w", err)
	}
	for i := range schema.Attrs {
		if header[i] != schema.Attrs[i].Name {
			return nil, fmt.Errorf("dataset: CSV column %d is %q, schema expects %q",
				i, header[i], schema.Attrs[i].Name)
		}
	}
	if last := header[len(header)-1]; last != "class" {
		return nil, fmt.Errorf("dataset: CSV last column is %q, expected \"class\"", last)
	}
	c := &CSVReader{
		cr:       cr,
		schema:   schema,
		classIdx: make(map[string]int, schema.NumClasses()),
		catIdx:   make([]map[string]int, schema.NumAttrs()),
		vals:     make([]float64, schema.NumAttrs()),
		line:     1,
	}
	for i, name := range schema.Classes {
		c.classIdx[name] = i
	}
	for i := range schema.Attrs {
		if schema.Attrs[i].Kind == Categorical {
			m := make(map[string]int, len(schema.Attrs[i].Values))
			for j, v := range schema.Attrs[i].Values {
				m[v] = j
			}
			c.catIdx[i] = m
		}
	}
	return c, nil
}

// Read parses the next record. The returned slice is reused by the next
// call; callers that keep a record must copy it. io.EOF signals a clean end
// of input; any other error names the offending line.
func (c *CSVReader) Read() ([]float64, int, error) {
	rec, err := c.cr.Read()
	if err == io.EOF {
		return nil, 0, io.EOF
	}
	c.line++
	if err != nil {
		return nil, 0, fmt.Errorf("dataset: reading CSV line %d: %w", c.line, err)
	}
	for j := range c.schema.Attrs {
		if m := c.catIdx[j]; m != nil {
			idx, ok := m[rec[j]]
			if !ok {
				return nil, 0, fmt.Errorf("dataset: line %d: unknown category %q for attribute %q",
					c.line, rec[j], c.schema.Attrs[j].Name)
			}
			c.vals[j] = float64(idx)
			continue
		}
		v, err := strconv.ParseFloat(rec[j], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("dataset: line %d attribute %q: %w", c.line, c.schema.Attrs[j].Name, err)
		}
		c.vals[j] = v
	}
	label, ok := c.classIdx[rec[len(rec)-1]]
	if !ok {
		return nil, 0, fmt.Errorf("dataset: line %d: unknown class %q", c.line, rec[len(rec)-1])
	}
	return c.vals, label, nil
}

// Line returns the 1-based line number of the record Read last returned
// (the header is line 1).
func (c *CSVReader) Line() int { return c.line }
