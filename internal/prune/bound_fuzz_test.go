package prune

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/tree"
)

// boundStream hands out the bytes of a fuzz input, then zeros.
type boundStream []byte

func (s *boundStream) next() int {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return int(b)
}

// decodeBoundTree turns bytes into a random tree: a header fixes the class
// count (2-6) and attribute count (1-12); then each node is a leaf with
// small random class counts or an internal node with a numeric,
// categorical or linear split over two decoded children. Small counts keep
// numeric value bits near their 1-bit minimum, where the bound is tightest.
func decodeBoundTree(data []byte) *tree.Tree {
	s := boundStream(data)
	nc := 2 + s.next()%5
	na := 1 + s.next()%12
	schema := &dataset.Schema{Classes: make([]string, nc)}
	for a := 0; a < na; a++ {
		schema.Attrs = append(schema.Attrs, dataset.Attribute{Name: fmt.Sprintf("a%d", a)})
	}
	budget := 63
	var node func(depth int) *tree.Node
	node = func(depth int) *tree.Node {
		n := &tree.Node{}
		b := s.next()
		budget--
		if depth >= 6 || budget < 2 || b%3 == 0 {
			counts := make([]int, nc)
			for c := range counts {
				v := s.next()
				if v >= 224 {
					v *= 4 // an occasional large count
				}
				counts[c] = v % 29
			}
			n.SetCounts(counts)
			return n
		}
		switch b % 3 {
		case 1:
			n.Split = &tree.Split{Kind: tree.SplitNumeric, Attr: s.next() % na, Threshold: float64(s.next())}
		default:
			if b&0x80 != 0 {
				n.Split = &tree.Split{Kind: tree.SplitLinear, AttrX: s.next() % na, AttrY: s.next() % na, A: 1, B: 1}
			} else {
				n.Split = &tree.Split{Kind: tree.SplitCategorical, Attr: s.next() % na, Subset: uint64(s.next()<<8 | s.next())}
			}
		}
		n.Left = node(depth + 1)
		n.Right = node(depth + 1)
		counts := make([]int, nc)
		for c := range counts {
			counts[c] = n.Left.ClassCounts[c] + n.Right.ClassCounts[c]
		}
		n.SetCounts(counts)
		return n
	}
	return &tree.Tree{Root: node(0), Schema: schema}
}

func cloneNode(n *tree.Node) *tree.Node {
	if n == nil {
		return nil
	}
	c := *n
	if n.Split != nil {
		s := *n.Split
		c.Split = &s
	}
	c.ClassCounts = append([]int(nil), n.ClassCounts...)
	c.Left, c.Right = cloneNode(n.Left), cloneNode(n.Right)
	return &c
}

func serialized(t *testing.T, tr *tree.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// roundingSlack absorbs the float rounding between two evaluation orders
// of one cost; the margin it is compared against is a whole bit.
const roundingSlack = 1e-9

// checkBound checks the two facts pruning while growing rests on (see MDL):
// every subtree with at least one split costs at least Bound+1 under
// pruneNode, and PUBLIC1 collapses nothing in a tree it has already pruned.
func checkBound(t *testing.T, tr *tree.Tree) {
	t.Helper()
	m := MDL{NumAttrs: tr.Schema.NumAttrs(), NumClasses: tr.Schema.NumClasses()}
	res := Result{Collapsed: map[*tree.Node]bool{}, Finalized: map[*tree.Node]bool{}}
	var walk func(n *tree.Node, path string)
	walk = func(n *tree.Node, path string) {
		if n == nil || n.IsLeaf() {
			return
		}
		c := cloneNode(n)
		sub := m.Internal(c.Split, c.N, m.pruneNode(c.Left, nil, &res), m.pruneNode(c.Right, nil, &res))
		if bound := m.Bound(n.ClassCounts, n.N); sub < bound+1-roundingSlack {
			t.Fatalf("%s (%+v, counts %v): subtree costs %v, below Bound %v + 1", path, *n.Split, n.ClassCounts, sub, bound)
		}
		walk(n.Left, path+"L")
		walk(n.Right, path+"R")
	}
	walk(tr.Root, "root")

	PUBLIC1(tr, nil)
	once := serialized(t, tr)
	again := PUBLIC1(tr, nil)
	if len(again.Collapsed) != 0 {
		t.Fatalf("PUBLIC1 collapsed %d nodes of an already-pruned tree", len(again.Collapsed))
	}
	if !bytes.Equal(serialized(t, tr), once) {
		t.Fatal("PUBLIC1 changed an already-pruned tree")
	}
}

func randomBoundBytes(rng *rand.Rand, n int) []byte {
	data := make([]byte, n)
	rng.Read(data)
	return data
}

func TestBoundSoundOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 2000; iter++ {
		checkBound(t, decodeBoundTree(randomBoundBytes(rng, 16+rng.Intn(400))))
	}
}

// FuzzPruneBound runs checkBound on decoded byte inputs.
func FuzzPruneBound(f *testing.F) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 6; i++ {
		f.Add(randomBoundBytes(rng, 24+rng.Intn(200)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBound(t, decodeBoundTree(data))
	})
}

func TestBoundDoesNotAllocate(t *testing.T) {
	m := MDL{NumAttrs: 9, NumClasses: 7}
	counts := []int{3, 40, 0, 17, 17, 2, 9}
	if a := testing.AllocsPerRun(100, func() { m.Bound(counts, 88) }); a != 0 {
		t.Errorf("Bound allocates %v times per call", a)
	}
}
