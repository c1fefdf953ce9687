package gini

import "testing"

// FuzzBestSubsetSplit decodes a count table of 2-16 values and 2-7 classes
// from the input and checks BestSubsetSplit three ways: the float64
// instantiation on the same integral counts returns the int result
// bit-identically; an exhaustively searched domain reaches the brute-force
// optimum exactly; a greedily searched one never beats it.
func FuzzBestSubsetSplit(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0, 0, 3})
	f.Add([]byte{5, 1, 1, 2, 3, 4, 5, 6, 7, 0, 0, 9})
	f.Add([]byte{13, 5, 7, 1, 0, 2, 2, 2, 5, 3, 1, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		v, nc := 2+int(data[0])%15, 2+int(data[1])%6
		body := data[2:]
		counts := make([][]int, v)
		for val := range counts {
			counts[val] = make([]int, nc)
			for c := range counts[val] {
				counts[val][c] = int(body[(val*nc+c)%len(body)]) % 8
			}
		}
		mask, g, ok := BestSubsetSplit(counts)
		if fMask, fg, fok := BestSubsetSplit(toFloat(counts)); fMask != mask || fg != g || fok != ok {
			t.Fatalf("counts=%v: float64 counts give (%b, %v, %v), int (%b, %v, %v)", counts, fMask, fg, fok, mask, g, ok)
		}
		_, bg, bok := bruteBestSubset(counts)
		if ok != bok {
			t.Fatalf("counts=%v: ok=%v, brute force %v", counts, ok, bok)
		}
		switch {
		case !ok:
		case v <= exhaustiveSubsetLimit && g != bg:
			t.Fatalf("counts=%v: exhaustive gini %v, brute-force optimum %v", counts, g, bg)
		case g < bg:
			t.Fatalf("counts=%v: greedy gini %v below the brute-force optimum %v", counts, g, bg)
		}
	})
}
