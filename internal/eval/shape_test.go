package eval

import (
	"testing"

	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// TestShapeF2 checks, at a figure-like scale, the relative shape the paper
// reports: CMP-B needs fewer scans than CMP-S, CMP-S and CLOUDS-SS both
// need fewer than CLOUDS-SSE (the extra pass per level CMP-S removes), and
// SPRINT moves more auxiliary bytes than every other algorithm.
func TestShapeF2(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale run")
	}
	tbl := synth.Generate(synth.F2, 100_000, 11)
	results := map[string]*RunResult{}
	for _, algo := range Algorithms() {
		src := storage.NewMem(tbl)
		res, _, err := Run(algo, src, nil, nil, Options{})
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		results[algo] = res
		t.Logf("%-10s scans=%2d leaves=%3d depth=%2d mem=%6dKB aux=%8dKB sim=%6.1fs wall=%v",
			algo, res.Scans, res.TreeLeaves, res.TreeDepth, res.PeakMemBytes/1024,
			res.AuxBytesIO/1024, res.SimSeconds, res.WallTime)
	}
	cmpb, cmps := results[AlgoCMPB].Scans, results[AlgoCMPS].Scans
	sse, ss := results[AlgoCLOUDS].Scans, results[AlgoCLOUDSSS].Scans
	if !(cmpb < cmps && cmps < sse && ss < sse) {
		t.Errorf("scans: cmp-b %d, cmp-s %d, clouds-sse %d, clouds-ss %d; want cmp-b < cmp-s < clouds-sse and clouds-ss < clouds-sse",
			cmpb, cmps, sse, ss)
	}
	sprint := results[AlgoSPRINT].AuxBytesIO
	for algo, res := range results {
		if algo != AlgoSPRINT && res.AuxBytesIO >= sprint {
			t.Errorf("%s moves %d auxiliary bytes, SPRINT %d; want SPRINT above every other algorithm", algo, res.AuxBytesIO, sprint)
		}
	}
}

// TestCLOUDSScanRatio bounds what CMP-S saves over CLOUDS-SSE, the pass
// the paper's contribution 1 removes: on 100k-record F2 and F7 stores,
// CLOUDS-SSE's scans over CMP-S's lie in [1.5, 2.5].
func TestCLOUDSScanRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("figure-scale run")
	}
	for _, fn := range []synth.Func{synth.F2, synth.F7} {
		for _, seed := range []int64{3, 11} {
			tbl := synth.Generate(fn, 100_000, seed)
			scans := map[string]int64{}
			for _, algo := range []string{AlgoCMPS, AlgoCLOUDS} {
				res, _, err := Run(algo, storage.NewMem(tbl), nil, nil, Options{})
				if err != nil {
					t.Fatalf("%s: %v", algo, err)
				}
				scans[algo] = res.Scans
			}
			ratio := float64(scans[AlgoCLOUDS]) / float64(scans[AlgoCMPS])
			t.Logf("F%d seed %d: clouds %d scans, cmp-s %d, ratio %.2f", int(fn), seed, scans[AlgoCLOUDS], scans[AlgoCMPS], ratio)
			if ratio < 1.5 || ratio > 2.5 {
				t.Errorf("F%d seed %d: clouds/cmp-s scans %d/%d = %.2f, want [1.5, 2.5]", int(fn), seed, scans[AlgoCLOUDS], scans[AlgoCMPS], ratio)
			}
		}
	}
}
