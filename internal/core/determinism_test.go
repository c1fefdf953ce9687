package core

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// buildOnce trains with the given worker count and returns the serialized
// tree plus the build and I/O statistics. Serializing via WriteJSON makes
// the comparison exhaustive: every split attribute, threshold, subset mask,
// linear coefficient, class count and leaf label participates.
func buildOnce(t *testing.T, src storage.Source, cfg Config) ([]byte, Stats, storage.Stats) {
	t.Helper()
	src.ResetStats()
	res, err := Build(src, cfg)
	if err != nil {
		t.Fatalf("Build(Workers=%d): %v", cfg.Workers, err)
	}
	var buf bytes.Buffer
	if err := res.Tree.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res.Stats, res.IO
}

// TestParallelBuildDeterminism is the contract behind Config.Workers: any
// worker count yields the bit-identical tree, build statistics and scan
// accounting of a serial build. Covered across all three variants, two
// Agrawal functions, memory and file sources, and worker counts around and
// beyond the shard-merge edge cases (odd counts, counts > node counts).
func TestParallelBuildDeterminism(t *testing.T) {
	funcs := []struct {
		name string
		fn   synth.Func
	}{{"F2", synth.F2}, {"F7", synth.F7}}
	algos := []Algorithm{CMPS, CMPB, CMPFull}

	for _, fc := range funcs {
		tbl := synth.Generate(fc.fn, 20_000, 7)
		mem := storage.NewMem(tbl)

		path := filepath.Join(t.TempDir(), "det.rec")
		if _, err := storage.WriteTable(path, tbl); err != nil {
			t.Fatal(err)
		}
		file, err := storage.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}

		sources := []struct {
			name string
			src  storage.Source
		}{{"mem", mem}, {"file", file}}

		for _, algo := range algos {
			for _, sc := range sources {
				t.Run(fmt.Sprintf("%s/%s/%s", algo, fc.name, sc.name), func(t *testing.T) {
					cfg := Default(algo)
					cfg.Workers = 1
					wantTree, wantStats, wantIO := buildOnce(t, sc.src, cfg)

					for _, w := range []int{2, 3, 8} {
						cfg.Workers = w
						gotTree, gotStats, gotIO := buildOnce(t, sc.src, cfg)
						if !bytes.Equal(gotTree, wantTree) {
							t.Errorf("Workers=%d tree differs from serial build", w)
						}
						if !reflect.DeepEqual(gotStats, wantStats) {
							t.Errorf("Workers=%d stats differ:\n got  %+v\n want %+v", w, gotStats, wantStats)
						}
						if gotIO != wantIO {
							t.Errorf("Workers=%d IO stats differ:\n got  %+v\n want %+v", w, gotIO, wantIO)
						}
					}
				})
			}
		}
	}
}

// TestParallelBuildDeterminismAllPairs exercises the all-pairs oblique
// extension, whose pair matrices take a separate sharding path.
func TestParallelBuildDeterminismAllPairs(t *testing.T) {
	tbl := synth.Generate(synth.F2, 15_000, 11)
	src := storage.NewMem(tbl)
	cfg := Default(CMPFull)
	cfg.ObliqueAllPairs = true

	cfg.Workers = 1
	wantTree, wantStats, wantIO := buildOnce(t, src, cfg)
	for _, w := range []int{2, 5, 8} {
		cfg.Workers = w
		gotTree, gotStats, gotIO := buildOnce(t, src, cfg)
		if !bytes.Equal(gotTree, wantTree) {
			t.Errorf("Workers=%d all-pairs tree differs from serial build", w)
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Errorf("Workers=%d stats differ:\n got  %+v\n want %+v", w, gotStats, wantStats)
		}
		if gotIO != wantIO {
			t.Errorf("Workers=%d IO stats differ:\n got  %+v\n want %+v", w, gotIO, wantIO)
		}
	}
}

// TestWorkersValidation pins the Config.Workers normalization contract.
func TestWorkersValidation(t *testing.T) {
	tbl := synth.Generate(synth.F1, 500, 3)
	src := storage.NewMem(tbl)

	cfg := Default(CMPS)
	cfg.Workers = -2
	if _, err := Build(src, cfg); err == nil {
		t.Error("negative Workers accepted")
	}

	cfg.Workers = 0 // zero selects the default
	if _, err := Build(src, cfg); err != nil {
		t.Errorf("zero Workers rejected: %v", err)
	}
}

// TestParallelTreePredicts sanity-checks that a parallel-built tree still
// classifies its training function well (guarding against a determinism
// test that compares two equally broken trees).
func TestParallelTreePredicts(t *testing.T) {
	tbl := synth.Generate(synth.F2, 20_000, 7)
	src := storage.NewMem(tbl)
	cfg := Default(CMPFull)
	cfg.Workers = 4
	res, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < tbl.NumRecords(); i++ {
		if res.Tree.Predict(tbl.Row(i)) == tbl.Label(i) {
			correct++
		}
	}
	if acc := float64(correct) / float64(tbl.NumRecords()); acc < 0.95 {
		t.Errorf("parallel-built tree training accuracy %.3f, want >= 0.95", acc)
	}
}

// TestCLOUDSDeterminism: CLOUDS-SSE and CLOUDS-SS build bit-identical
// trees, statistics and scan accounting at any worker count, over memory
// and file sources, so the gap pass's shards merge like a round's. SSE
// builds CMP-S's tree in CMP-S's rounds, buffering the same records, with
// at most one gap pass per round on top of CMP-S's scans.
func TestCLOUDSDeterminism(t *testing.T) {
	for _, fn := range []synth.Func{synth.F2, synth.F7} {
		tbl := synth.Generate(fn, 10_000, 7)
		path := filepath.Join(t.TempDir(), "det.rec")
		if _, err := storage.WriteTable(path, tbl); err != nil {
			t.Fatal(err)
		}
		file, err := storage.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range []struct {
			name string
			src  storage.Source
		}{{"mem", storage.NewMem(tbl)}, {"file", file}} {
			cfg := Default(CMPS)
			cfg.Workers = 1
			cmpsTree, cmpsStats, _ := buildOnce(t, sc.src, cfg)
			for _, algo := range []Algorithm{CLOUDSSSE, CLOUDSSS} {
				t.Run(fmt.Sprintf("%v/F%d/%s", algo, int(fn), sc.name), func(t *testing.T) {
					cfg := Default(algo)
					cfg.Workers = 1
					wantTree, wantStats, wantIO := buildOnce(t, sc.src, cfg)
					for _, w := range []int{2, 8} {
						cfg.Workers = w
						gotTree, gotStats, gotIO := buildOnce(t, sc.src, cfg)
						if !bytes.Equal(gotTree, wantTree) {
							t.Errorf("Workers=%d tree differs from serial build", w)
						}
						if !reflect.DeepEqual(gotStats, wantStats) {
							t.Errorf("Workers=%d stats differ:\n got  %+v\n want %+v", w, gotStats, wantStats)
						}
						if gotIO != wantIO {
							t.Errorf("Workers=%d IO stats differ:\n got  %+v\n want %+v", w, gotIO, wantIO)
						}
					}
					if algo != CLOUDSSSE {
						return
					}
					if !bytes.Equal(wantTree, cmpsTree) {
						t.Error("CLOUDS-SSE tree differs from CMP-S's")
					}
					gaps := wantStats.Scans - cmpsStats.Scans
					if wantStats.Rounds != cmpsStats.Rounds || wantStats.BufferedRecords != cmpsStats.BufferedRecords ||
						gaps < 1 || gaps >= wantStats.Rounds {
						t.Errorf("CLOUDS-SSE %d rounds, %d scans, %d buffered; CMP-S %d, %d, %d",
							wantStats.Rounds, wantStats.Scans, wantStats.BufferedRecords,
							cmpsStats.Rounds, cmpsStats.Scans, cmpsStats.BufferedRecords)
					}
				})
			}
		}
	}
}
