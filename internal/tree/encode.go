package tree

import (
	"encoding/json"
	"fmt"
	"io"

	"cmpdt/internal/dataset"
)

// The JSON model format: a versioned envelope carrying the schema and a
// recursive node structure. Stable across releases; unknown versions are
// rejected loudly.

const modelFormatVersion = 1

type modelEnvelope struct {
	Format  string          `json:"format"`
	Version int             `json:"version"`
	Schema  *dataset.Schema `json:"schema"`
	Root    *nodeJSON       `json:"root"`
}

type nodeJSON struct {
	// Leaf fields.
	Class       int     `json:"class"`
	N           int     `json:"n,omitempty"`
	ClassCounts []int   `json:"counts,omitempty"`
	Value       float64 `json:"value,omitempty"` // regression prediction

	// Split fields (internal nodes only).
	Split *splitJSON `json:"split,omitempty"`
	Left  *nodeJSON  `json:"left,omitempty"`
	Right *nodeJSON  `json:"right,omitempty"`
}

// NodeJSON is the serialized node structure, exported so ensemble encoders
// can embed per-tree node graphs inside their own envelopes while sharing
// this package's validation.
type NodeJSON = nodeJSON

// EncodeNodeJSON converts a node graph into its serialized form.
func EncodeNodeJSON(n *Node) *NodeJSON { return encodeNode(n) }

// DecodeNodeJSON reconstructs a node graph from its serialized form,
// validating every split against the schema.
func DecodeNodeJSON(n *NodeJSON, schema *dataset.Schema) (*Node, error) {
	return decodeNode(n, schema)
}

type splitJSON struct {
	Kind      string  `json:"kind"`
	Attr      int     `json:"attr,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Subset    uint64  `json:"subset,omitempty"`
	AttrX     int     `json:"attr_x,omitempty"`
	AttrY     int     `json:"attr_y,omitempty"`
	A         float64 `json:"a,omitempty"`
	B         float64 `json:"b,omitempty"`
	C         float64 `json:"c,omitempty"`
}

func splitKindName(k SplitKind) string {
	switch k {
	case SplitNumeric:
		return "numeric"
	case SplitCategorical:
		return "categorical"
	case SplitLinear:
		return "linear"
	default:
		return fmt.Sprintf("kind-%d", int(k))
	}
}

func splitKindFromName(s string) (SplitKind, error) {
	switch s {
	case "numeric":
		return SplitNumeric, nil
	case "categorical":
		return SplitCategorical, nil
	case "linear":
		return SplitLinear, nil
	default:
		return 0, fmt.Errorf("tree: unknown split kind %q", s)
	}
}

// WriteJSON serializes the tree as a self-contained JSON model.
func (t *Tree) WriteJSON(w io.Writer) error {
	env := modelEnvelope{
		Format:  "cmpdt-tree",
		Version: modelFormatVersion,
		Schema:  t.Schema,
		Root:    encodeNode(t.Root),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(env)
}

func encodeNode(n *Node) *nodeJSON {
	if n == nil {
		return nil
	}
	out := &nodeJSON{
		Class:       n.Class,
		N:           n.N,
		ClassCounts: n.ClassCounts,
		Value:       n.Value,
	}
	if !n.IsLeaf() {
		out.Split = &splitJSON{
			Kind:      splitKindName(n.Split.Kind),
			Attr:      n.Split.Attr,
			Threshold: n.Split.Threshold,
			Subset:    n.Split.Subset,
			AttrX:     n.Split.AttrX,
			AttrY:     n.Split.AttrY,
			A:         n.Split.A,
			B:         n.Split.B,
			C:         n.Split.C,
		}
		out.Left = encodeNode(n.Left)
		out.Right = encodeNode(n.Right)
	}
	return out
}

// ReadJSON deserializes a model written by WriteJSON, validating the schema
// and structure.
func ReadJSON(r io.Reader) (*Tree, error) {
	var env modelEnvelope
	dec := json.NewDecoder(r)
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("tree: decoding model: %w", err)
	}
	if env.Format != "cmpdt-tree" {
		return nil, fmt.Errorf("tree: not a cmpdt tree model (format %q)", env.Format)
	}
	if env.Version != modelFormatVersion {
		return nil, fmt.Errorf("tree: unsupported model version %d", env.Version)
	}
	if env.Schema == nil {
		return nil, fmt.Errorf("tree: model has no schema")
	}
	if err := env.Schema.Validate(); err != nil {
		return nil, fmt.Errorf("tree: model schema invalid: %w", err)
	}
	if env.Root == nil {
		return nil, fmt.Errorf("tree: model has no root")
	}
	root, err := decodeNode(env.Root, env.Schema)
	if err != nil {
		return nil, err
	}
	return &Tree{Root: root, Schema: env.Schema}, nil
}

func decodeNode(n *nodeJSON, schema *dataset.Schema) (*Node, error) {
	out := &Node{Class: n.Class, N: n.N, ClassCounts: n.ClassCounts, Value: n.Value}
	if n.Class < 0 || n.Class >= schema.NumClasses() {
		return nil, fmt.Errorf("tree: node class %d out of range", n.Class)
	}
	if len(out.ClassCounts) > 0 {
		if len(out.ClassCounts) != schema.NumClasses() {
			return nil, fmt.Errorf("tree: node has %d class counts for %d classes", len(out.ClassCounts), schema.NumClasses())
		}
		out.SetCounts(out.ClassCounts)
	}
	if n.Split == nil {
		if n.Left != nil || n.Right != nil {
			return nil, fmt.Errorf("tree: leaf with children")
		}
		return out, nil
	}
	if n.Left == nil || n.Right == nil {
		return nil, fmt.Errorf("tree: internal node missing a child")
	}
	kind, err := splitKindFromName(n.Split.Kind)
	if err != nil {
		return nil, err
	}
	sp := &Split{
		Kind:      kind,
		Attr:      n.Split.Attr,
		Threshold: n.Split.Threshold,
		Subset:    n.Split.Subset,
		AttrX:     n.Split.AttrX,
		AttrY:     n.Split.AttrY,
		A:         n.Split.A,
		B:         n.Split.B,
		C:         n.Split.C,
	}
	switch kind {
	case SplitNumeric, SplitCategorical:
		if sp.Attr < 0 || sp.Attr >= schema.NumAttrs() {
			return nil, fmt.Errorf("tree: split attribute %d out of range", sp.Attr)
		}
		if kind == SplitCategorical && schema.Attrs[sp.Attr].Kind != dataset.Categorical {
			return nil, fmt.Errorf("tree: categorical split on numeric attribute %d", sp.Attr)
		}
	case SplitLinear:
		if sp.AttrX < 0 || sp.AttrX >= schema.NumAttrs() ||
			sp.AttrY < 0 || sp.AttrY >= schema.NumAttrs() {
			return nil, fmt.Errorf("tree: linear split attributes (%d,%d) out of range", sp.AttrX, sp.AttrY)
		}
	}
	out.Split = sp
	if out.Left, err = decodeNode(n.Left, schema); err != nil {
		return nil, err
	}
	if out.Right, err = decodeNode(n.Right, schema); err != nil {
		return nil, err
	}
	return out, nil
}
