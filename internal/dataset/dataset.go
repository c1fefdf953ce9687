// Package dataset defines the tabular data model shared by every classifier
// in this repository: schemas, records, and in-memory tables.
//
// Attribute values are stored uniformly as float64. Categorical attributes
// hold the index of their value in Attribute.Values, converted to float64;
// this keeps record layout flat and scan loops branch-free. Class labels are
// small ints indexing Schema.Classes.
package dataset

import (
	"errors"
	"fmt"
	"math"
)

// Kind distinguishes ordered (numeric) attributes from categorical ones.
type Kind int

const (
	// Numeric attributes have a totally ordered domain and are split with
	// threshold predicates (value <= c).
	Numeric Kind = iota
	// Categorical attributes have an unordered finite domain and are split
	// with subset predicates (value in S).
	Categorical
)

// String returns "numeric" or "categorical".
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Attribute describes one column of a dataset.
type Attribute struct {
	Name string
	Kind Kind
	// Values enumerates the domain of a categorical attribute. A record
	// stores float64(i) where i indexes this slice. Empty for numeric
	// attributes.
	Values []string
}

// Cardinality returns the number of distinct values of a categorical
// attribute, or 0 for a numeric one.
func (a *Attribute) Cardinality() int {
	if a.Kind != Categorical {
		return 0
	}
	return len(a.Values)
}

// Schema describes the columns of a dataset and its class labels. The class
// label is kept out of the attribute list, mirroring the paper's convention
// that a dataset with N attributes has N predictive columns plus one
// distinguished class column.
type Schema struct {
	Attrs   []Attribute
	Classes []string
}

// NumAttrs returns the number of predictive attributes.
func (s *Schema) NumAttrs() int { return len(s.Attrs) }

// NumClasses returns the number of class labels.
func (s *Schema) NumClasses() int { return len(s.Classes) }

// NumericAttrs returns the indices of the numeric attributes, in schema
// order — the set the discretizing builders quantize and split by threshold.
func (s *Schema) NumericAttrs() []int {
	var out []int
	for i := range s.Attrs {
		if s.Attrs[i].Kind == Numeric {
			out = append(out, i)
		}
	}
	return out
}

// AttrIndex returns the index of the attribute with the given name, or -1.
func (s *Schema) AttrIndex(name string) int {
	for i := range s.Attrs {
		if s.Attrs[i].Name == name {
			return i
		}
	}
	return -1
}

// Validate reports an error for malformed schemas: no attributes, fewer than
// two classes, duplicate column names, or categorical attributes without an
// enumerated domain.
func (s *Schema) Validate() error {
	if len(s.Attrs) == 0 {
		return errors.New("dataset: schema has no attributes")
	}
	if len(s.Classes) < 2 {
		return fmt.Errorf("dataset: schema needs >= 2 classes, got %d", len(s.Classes))
	}
	seen := make(map[string]bool, len(s.Attrs))
	for i := range s.Attrs {
		a := &s.Attrs[i]
		if a.Name == "" {
			return fmt.Errorf("dataset: attribute %d has empty name", i)
		}
		if seen[a.Name] {
			return fmt.Errorf("dataset: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Kind == Categorical && len(a.Values) == 0 {
			return fmt.Errorf("dataset: categorical attribute %q has no values", a.Name)
		}
	}
	return nil
}

// RecordDefect reports why a record cannot be trained on, or "" if it is
// valid: the one validity rule every trainer applies. NaN/infinite numeric
// features break histogram binning and sort determinism, non-integral or
// out-of-range categorical codes would index outside their histogram, and
// out-of-range labels outside the class-count arrays. The check is a pure
// function of the record, so a trainer that skips invalid records skips the
// same ones on every pass.
func (s *Schema) RecordDefect(vals []float64, label int) string {
	if label < 0 || label >= s.NumClasses() {
		return fmt.Sprintf("label %d outside [0,%d)", label, s.NumClasses())
	}
	if len(vals) != s.NumAttrs() {
		return fmt.Sprintf("%d values for %d attributes", len(vals), s.NumAttrs())
	}
	for a := range s.Attrs {
		v := vals[a]
		if s.Attrs[a].Kind == Numeric {
			if math.IsNaN(v) {
				return fmt.Sprintf("attribute %q is NaN", s.Attrs[a].Name)
			}
			if math.IsInf(v, 0) {
				return fmt.Sprintf("attribute %q is %v", s.Attrs[a].Name, v)
			}
			continue
		}
		card := s.Attrs[a].Cardinality()
		iv := int(v)
		if math.IsNaN(v) || float64(iv) != v || iv < 0 || iv >= card {
			return fmt.Sprintf("categorical %q value %v outside [0,%d)", s.Attrs[a].Name, v, card)
		}
	}
	return ""
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	c := &Schema{
		Attrs:   make([]Attribute, len(s.Attrs)),
		Classes: append([]string(nil), s.Classes...),
	}
	for i := range s.Attrs {
		c.Attrs[i] = s.Attrs[i]
		c.Attrs[i].Values = append([]string(nil), s.Attrs[i].Values...)
	}
	return c
}

// Table is an in-memory dataset: a flat row-major value matrix plus labels.
// The zero value is an empty table with a nil schema; use New.
type Table struct {
	schema *Schema
	values []float64 // row-major, len == n*NumAttrs
	labels []int32
}

// New returns an empty table with the given schema. The schema must be valid.
func New(schema *Schema) (*Table, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	return &Table{schema: schema}, nil
}

// MustNew is New for statically known-good schemas; it panics on error.
func MustNew(schema *Schema) *Table {
	t, err := New(schema)
	if err != nil {
		panic(err)
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRecords returns the number of rows.
func (t *Table) NumRecords() int { return len(t.labels) }

// Append adds one record. vals must have exactly one entry per attribute and
// label must index Schema.Classes. Categorical values must be integral and in
// range; numeric values must not be NaN.
func (t *Table) Append(vals []float64, label int) error {
	k := t.schema.NumAttrs()
	if len(vals) != k {
		return fmt.Errorf("dataset: record has %d values, schema has %d attributes", len(vals), k)
	}
	if label < 0 || label >= t.schema.NumClasses() {
		return fmt.Errorf("dataset: label %d out of range [0,%d)", label, t.schema.NumClasses())
	}
	for i, v := range vals {
		a := &t.schema.Attrs[i]
		if math.IsNaN(v) {
			return fmt.Errorf("dataset: attribute %q is NaN", a.Name)
		}
		if a.Kind == Categorical {
			if v != math.Trunc(v) || v < 0 || int(v) >= len(a.Values) {
				return fmt.Errorf("dataset: attribute %q value %v not a valid category index", a.Name, v)
			}
		}
	}
	t.values = append(t.values, vals...)
	t.labels = append(t.labels, int32(label))
	return nil
}

// Row returns a view of record i's attribute values. The slice aliases the
// table's storage; callers must not modify or retain it across appends.
func (t *Table) Row(i int) []float64 {
	k := t.schema.NumAttrs()
	return t.values[i*k : i*k+k : i*k+k]
}

// RecordInto copies record i's attribute values into dst and returns it,
// growing dst only if its capacity is insufficient. Unlike Row, the result
// does not alias the table's storage, so callers that buffer records across
// appends (or hand them to other goroutines alongside table mutation) can
// reuse one buffer with no per-record allocation.
func (t *Table) RecordInto(dst []float64, i int) []float64 {
	k := t.schema.NumAttrs()
	if cap(dst) < k {
		dst = make([]float64, k)
	}
	dst = dst[:k]
	copy(dst, t.values[i*k:i*k+k])
	return dst
}

// Value returns attribute a of record i.
func (t *Table) Value(i, a int) float64 {
	return t.values[i*t.schema.NumAttrs()+a]
}

// Label returns the class label of record i.
func (t *Table) Label(i int) int { return int(t.labels[i]) }

// ClassCounts returns the per-class record counts.
func (t *Table) ClassCounts() []int {
	counts := make([]int, t.schema.NumClasses())
	for _, l := range t.labels {
		counts[l]++
	}
	return counts
}

// Column copies attribute a of every record into a new slice.
func (t *Table) Column(a int) []float64 {
	n := t.NumRecords()
	out := make([]float64, n)
	k := t.schema.NumAttrs()
	for i := 0; i < n; i++ {
		out[i] = t.values[i*k+a]
	}
	return out
}

// Slice returns a new table containing the rows whose indices are listed in
// idx, in order. Rows are copied.
func (t *Table) Slice(idx []int) *Table {
	out := MustNew(t.schema)
	for _, i := range idx {
		out.values = append(out.values, t.Row(i)...)
		out.labels = append(out.labels, t.labels[i])
	}
	return out
}

// Split partitions the table's rows into two new tables by predicate.
func (t *Table) Split(pred func(row []float64, label int) bool) (yes, no *Table) {
	yes, no = MustNew(t.schema), MustNew(t.schema)
	for i := 0; i < t.NumRecords(); i++ {
		row := t.Row(i)
		dst := no
		if pred(row, t.Label(i)) {
			dst = yes
		}
		dst.values = append(dst.values, row...)
		dst.labels = append(dst.labels, t.labels[i])
	}
	return yes, no
}
