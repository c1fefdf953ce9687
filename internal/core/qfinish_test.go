package core

import (
	"bytes"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/prune"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

// TestPrunedFinishersMatchPostPruning holds both finisher front ends,
// growing with Prune, to post-pruning on whole-store collect buffers of
// every Agrawal function and of a 7-class Statlog stand-in, where the bound
// minimizes over more than one split (PUBLIC(S)): the code front end over
// the buffered codes, as quantized builds finish, and the float front end
// over the raw records, as the raw builder finishes.
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
		MinSplitRecords: exact.MinSplitRecords,
		MaxDepth:        def.MaxDepth,
		MinGiniGain:     exact.MinGiniGain,
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
			finishers := []struct {
				name string
				grow func(cfg exact.Config) *tree.Node
			}{
				{"code front end", func(cfg exact.Config) *tree.Node {
					return exact.FinishCodes(buf.codes, buf.k, buf.labels, buf.weights, tbl.Schema(), cfg)
				}},
				{"float front end", func(cfg exact.Config) *tree.Node {
					return exact.BuildSubtree(tableRows{tbl}, tbl.Schema(), cfg)
				}},
			}
			for _, fin := range finishers {
				cfg := cfg
				want := &tree.Tree{Root: fin.grow(cfg), Schema: tbl.Schema()}
				prune.PUBLIC1(want, nil)
				cfg.Prune = true
				got := &tree.Tree{Root: fin.grow(cfg), Schema: tbl.Schema()}
				var g, w bytes.Buffer
				if err := got.WriteJSON(&g); err != nil {
					t.Fatal(err)
				}
				if err := want.WriteJSON(&w); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(g.Bytes(), w.Bytes()) {
					t.Fatalf("%s: pruned growth differs from post-pruning", fin.name)
				}
			}
		})
	}
}

// tableRows presents a table to the float front end.
type tableRows struct{ t *dataset.Table }

func (r tableRows) Len() int            { return r.t.NumRecords() }
func (r tableRows) Row(i int) []float64 { return r.t.Row(i) }
func (r tableRows) Label(i int) int     { return r.t.Label(i) }
