package gini

import (
	"math/rand"
	"testing"
)

func BenchmarkIndex(b *testing.B) {
	counts := []int{1234, 5678, 910, 1112}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Index(counts)
	}
}

func BenchmarkSplitBelow(b *testing.B) {
	below := []int{120, 340}
	total := []int{500, 800}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SplitBelow(below, total)
	}
}

func BenchmarkEstimateInterval(b *testing.B) {
	for _, nc := range []int{2, 7, 26} {
		b.Run(benchName("classes", nc), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x := make([]int, nc)
			y := make([]int, nc)
			total := make([]int, nc)
			for c := 0; c < nc; c++ {
				x[c] = rng.Intn(1000)
				y[c] = x[c] + rng.Intn(100)
				total[c] = y[c] + rng.Intn(1000)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				EstimateInterval(x, y, total)
			}
		})
	}
}

func BenchmarkBestSubsetSplit(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	for _, card := range []int{8, 20} {
		counts := make([][]int, card)
		for v := range counts {
			counts[v] = []int{rng.Intn(500), rng.Intn(500)}
		}
		b.Run(benchName("card", card), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				BestSubsetSplit(counts)
			}
		})
	}
}

func benchName(k string, v int) string {
	return k + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
