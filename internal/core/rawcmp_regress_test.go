package core

import (
	"bytes"
	"fmt"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

// noisyF7 is the store both raw CMP regressions below were found on:
// Function 7 with 5% label noise.
func noisyF7(t *testing.T, n int, seed int64) storage.Source {
	t.Helper()
	tbl := dataset.MustNew(synth.Schema())
	if err := synth.GenerateTo(tbl, synth.F7, n, seed, synth.Options{Noise: 0.05}); err != nil {
		t.Fatal(err)
	}
	return storage.NewMem(tbl)
}

// checkCountsAdd asserts that every split node's record count is the sum of
// its children's: a subtree grafted from an emptied buffer breaks it.
func checkCountsAdd(t *testing.T, tr *tree.Tree) {
	t.Helper()
	tr.Walk(func(n *tree.Node, depth int) {
		if n.IsLeaf() {
			return
		}
		if n.N != n.Left.N+n.Right.N {
			t.Errorf("depth %d: node holds %d records, children %d + %d", depth, n.N, n.Left.N, n.Right.N)
		}
	})
}

// TestRawCMPRegressions builds the two noisy Function 7 stores on which raw
// full CMP used to panic, at Workers 1 and 2, and requires byte-identical
// trees whose counts add up.
//
//   - seed 5062515045699853606: a same-scan second split decided a child
//     from its parent's X-sliced view and went pending; when that split
//     failed, the merged re-decision binned the region histograms with the
//     child's own (differently sized) discretizers, and gapsFor indexed
//     past their boundaries.
//   - seed 5952516414777839341: a collect child turned pending by a second
//     split, reverted and collected again in the same round sat twice in
//     the collect list. Two workers then finished one buffer concurrently
//     (index out of range in the exact finisher); serially the second pass
//     grafted an empty leaf over the real subtree.
func TestRawCMPRegressions(t *testing.T) {
	for _, seed := range []int64{5062515045699853606, 5952516414777839341} {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			src := noisyF7(t, 100_000, seed)
			var trees [2][]byte
			for i, workers := range []int{1, 2} {
				cfg := Default(CMPFull)
				cfg.Workers = workers
				res, err := Build(src, cfg)
				if err != nil {
					t.Fatalf("Workers=%d: %v", workers, err)
				}
				checkCountsAdd(t, res.Tree)
				var buf bytes.Buffer
				if err := res.Tree.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				trees[i] = buf.Bytes()
			}
			if !bytes.Equal(trees[0], trees[1]) {
				t.Error("Workers=2 tree differs from the serial build")
			}
		})
	}
}
