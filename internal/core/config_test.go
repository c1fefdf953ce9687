package core

import (
	"context"
	"strings"
	"testing"

	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// TestObliqueAllPairsHonouredOrRejected holds the knob to raw full CMP:
// every other Algorithm × Quantize combination fails normalization with an
// error naming it, and so do the quantized builds that take no Quantize
// flag (a pre-quantized source, BuildIndexed).
func TestObliqueAllPairsHonouredOrRejected(t *testing.T) {
	for _, algo := range []Algorithm{CMPS, CMPB, CMPFull} {
		for _, quantize := range []bool{false, true} {
			for _, allPairs := range []bool{false, true} {
				cfg := Default(algo)
				cfg.Quantize, cfg.ObliqueAllPairs = quantize, allPairs
				_, err := cfg.normalize()
				wantErr := allPairs && (algo != CMPFull || quantize)
				if (err != nil) != wantErr {
					t.Errorf("%v Quantize=%v ObliqueAllPairs=%v: err %v, want error %v", algo, quantize, allPairs, err, wantErr)
				}
				if err != nil && !strings.Contains(err.Error(), "ObliqueAllPairs") {
					t.Errorf("%v Quantize=%v: error does not name the knob: %v", algo, quantize, err)
				}
			}
		}
	}

	tbl := synth.Generate(synth.F2, 2_000, 1)
	cfg := Default(CMPFull)
	cfg.ObliqueAllPairs = true
	_, qm, _ := quantizeTable(t, tbl, 32, t.TempDir()+"/f2.qrec")
	if _, err := Build(qm, cfg); err == nil || !strings.Contains(err.Error(), "ObliqueAllPairs") {
		t.Errorf("pre-quantized source: err %v, want the ObliqueAllPairs error", err)
	}
	src := storage.NewMem(tbl)
	ix, err := NewIndex(context.Background(), src, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildIndexed(context.Background(), ix, storage.FullMask(tbl.NumRecords()), cfg); err == nil || !strings.Contains(err.Error(), "ObliqueAllPairs") {
		t.Errorf("BuildIndexed: err %v, want the ObliqueAllPairs error", err)
	}
	if _, err := Build(src, cfg); err != nil {
		t.Errorf("raw full CMP: %v", err)
	}
}
