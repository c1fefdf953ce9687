package eval

import (
	"testing"

	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// TestShapeF2 checks, at a figure-like scale, the relative shape the paper
// reports: CMP-B needs fewer scans than CMP-S, both need fewer than
// CLOUDS-SS, and SPRINT moves more auxiliary bytes than every other
// algorithm (at seed 11: 9 < 10 < 11 scans; SPRINT 225 MB).
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
	cmpb, cmps, cloudsSS := results[AlgoCMPB].Scans, results[AlgoCMPS].Scans, results[AlgoCLOUDSSS].Scans
	if !(cmpb < cmps && cmps < cloudsSS) {
		t.Errorf("scans: cmp-b %d, cmp-s %d, clouds-ss %d; want cmp-b < cmp-s < clouds-ss", cmpb, cmps, cloudsSS)
	}
	sprint := results[AlgoSPRINT].AuxBytesIO
	for algo, res := range results {
		if algo != AlgoSPRINT && res.AuxBytesIO >= sprint {
			t.Errorf("%s moves %d auxiliary bytes, SPRINT %d; want SPRINT above every other algorithm", algo, res.AuxBytesIO, sprint)
		}
	}
}
