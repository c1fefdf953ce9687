package eval

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// listGoldenPath holds one "<row> <sha256 of the serialized model>
// aux=<AuxBytesIO> mem=<PeakMemBytes>" line per golden run of the exact
// comparators: the tree and the figures the paper's Figures 16, 17 and 19
// read from them. RainForest's rows also carry scans=<Scans>
// read=<BytesRead> ahead of aux, since its AVC buffer sets how often it
// scans the source. On a mismatch the test logs the file its runs would
// produce.
const listGoldenPath = "testdata/golden_lists.sha256"

// TestGoldenListBuilds pins SPRINT's, SLIQ's and RainForest's trees,
// metered auxiliary traffic and peak memory through Run, and RainForest's
// source scans: F1–F10 at 10k records, pruned and unpruned; F7 under
// MaxDepth 3, under PurityStop 0.8 and with InMemoryNodeRecords 512; and
// the 7-class Statlog "segment" stand-in.
func TestGoldenListBuilds(t *testing.T) {
	raw, err := os.ReadFile(listGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, pin, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			want[name] = pin
		}
	}
	type row struct {
		name string
		tbl  *dataset.Table
		cfg  core.Config
	}
	var rows []row
	for fn := synth.F1; fn <= synth.F10; fn++ {
		tbl := synth.Generate(fn, 10_000, int64(fn))
		rows = append(rows,
			row{fmt.Sprintf("F%d/pruned", int(fn)), tbl, core.Config{}},
			row{fmt.Sprintf("F%d/unpruned", int(fn)), tbl, core.Config{DisablePruning: true}})
	}
	f7 := synth.Generate(synth.F7, 10_000, 7)
	segment, err := synth.Statlog("segment", 1)
	if err != nil {
		t.Fatal(err)
	}
	rows = append(rows,
		row{"F7/maxdepth=3", f7, core.Config{MaxDepth: 3}},
		row{"F7/puritystop=0.8", f7, core.Config{PurityStop: 0.8}},
		row{"F7/inmemory=512", f7, core.Config{InMemoryNodeRecords: 512}},
		row{"segment/pruned", segment, core.Config{}})

	var regen strings.Builder
	n := 0
	for _, algo := range []string{AlgoSPRINT, AlgoSLIQ, AlgoRainForest} {
		for _, r := range rows {
			name := algo + "/" + r.name
			res, tr, err := Run(algo, storage.NewMem(r.tbl), nil, nil, Options{Tree: r.cfg})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var buf bytes.Buffer
			if err := tr.WriteJSON(&buf); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got := hex.EncodeToString(sum[:])
			if algo == AlgoRainForest {
				got += fmt.Sprintf(" scans=%d read=%d", res.Scans, res.BytesRead)
			}
			got += fmt.Sprintf(" aux=%d mem=%d", res.AuxBytesIO, res.PeakMemBytes)
			fmt.Fprintf(&regen, "%s %s\n", name, got)
			n++
			if want[name] != got {
				t.Errorf("%s:\n got    %s\n golden %s", name, got, want[name])
			}
		}
	}
	if len(want) != n {
		t.Errorf("%s has %d rows, the test runs %d", listGoldenPath, len(want), n)
	}
	if t.Failed() {
		t.Logf("regenerated %s:\n%s", listGoldenPath, regen.String())
	}
}
