package eval

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cmpdt/internal/core"
	"cmpdt/internal/dataset"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// TestAllAlgorithmsF2 trains every algorithm on the same Function 2 sample
// and requires high train accuracy and reasonable generalization from all
// of them — the cross-cutting sanity check for the whole repository.
func TestAllAlgorithmsF2(t *testing.T) {
	full := synth.Generate(synth.F2, 12000, 99)
	train, test := dataset.TrainTestSplit(full, 0.8, 7)
	opts := Options{Tree: core.Config{Intervals: 40, InMemoryNodeRecords: 512}}
	for _, algo := range Algorithms() {
		src := storage.NewMem(train)
		res, tr, err := Run(algo, src, train, test, opts)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if tr == nil {
			t.Fatalf("%s: nil tree", algo)
		}
		t.Logf("%-10s train=%.3f test=%.3f scans=%d leaves=%d depth=%d mem=%dKB aux=%dKB wall=%v",
			algo, res.TrainAccuracy, res.TestAccuracy, res.Scans, res.TreeLeaves,
			res.TreeDepth, res.PeakMemBytes/1024, res.AuxBytesIO/1024, res.WallTime)
		if res.TrainAccuracy < 0.95 {
			t.Errorf("%s: train accuracy %.3f < 0.95", algo, res.TrainAccuracy)
		}
		if res.TestAccuracy < 0.90 {
			t.Errorf("%s: test accuracy %.3f < 0.90", algo, res.TestAccuracy)
		}
	}
}

// TestCompiledEvalMatchesPointer pins the compiled-tree evaluation path:
// Accuracy, Confusion and Evaluate must agree exactly with record-by-record
// pointer-tree prediction.
func TestCompiledEvalMatchesPointer(t *testing.T) {
	full := synth.Generate(synth.F7, 6000, 5)
	train, test := dataset.TrainTestSplit(full, 0.8, 3)
	_, tr, err := Run(AlgoCMPB, storage.NewMem(train), nil, nil, Options{Tree: core.Config{Intervals: 40}})
	if err != nil {
		t.Fatal(err)
	}

	n := test.NumRecords()
	nc := test.Schema().NumClasses()
	wantConf := make([][]int, nc)
	for i := range wantConf {
		wantConf[i] = make([]int, nc)
	}
	correct := 0
	for i := 0; i < n; i++ {
		pred := tr.Predict(test.Row(i))
		wantConf[test.Label(i)][pred]++
		if pred == test.Label(i) {
			correct++
		}
	}
	wantAcc := float64(correct) / float64(n)

	if got := Accuracy(tr, test); got != wantAcc {
		t.Errorf("Accuracy = %v, pointer loop gives %v", got, wantAcc)
	}
	gotConf := Confusion(tr, test)
	for a := range wantConf {
		for p := range wantConf[a] {
			if gotConf[a][p] != wantConf[a][p] {
				t.Errorf("Confusion[%d][%d] = %d, want %d", a, p, gotConf[a][p], wantConf[a][p])
			}
		}
	}
	rep := Evaluate(tr, test)
	if rep.Accuracy != wantAcc {
		t.Errorf("Evaluate.Accuracy = %v, want %v", rep.Accuracy, wantAcc)
	}
}

// TestOptionsValidate: the run's name picks the algorithm (a nonzero
// Tree.Algorithm must agree with a CMP name, and a baseline takes none),
// the defaults are core's, and validation is idempotent.
func TestOptionsValidate(t *testing.T) {
	cmpb := Options{Tree: core.Config{Algorithm: core.CMPB}}
	for _, algo := range []string{AlgoCMP, AlgoCLOUDS, AlgoSPRINT, AlgoWindow} {
		if _, err := cmpb.Validate(algo); err == nil || !strings.Contains(err.Error(), "Algorithm") {
			t.Errorf("%s with Tree.Algorithm CMP-B: err %v, want an error naming Algorithm", algo, err)
		}
	}
	// CLOUDS runs on the raw kernel with CMP-S's geometry: it rejects the
	// knobs only other builds honour, and takes those that cannot change
	// a tree.
	for _, algo := range []string{AlgoCLOUDS, AlgoCLOUDSSS} {
		for _, r := range []struct {
			field string
			cfg   core.Config
		}{
			{"Quantize", core.Config{Quantize: true}},
			{"ObliqueAllPairs", core.Config{ObliqueAllPairs: true}},
			{"", core.Config{Workers: 3, Validation: core.ValidateSkip, CacheBytes: 1 << 20}},
		} {
			_, err := Options{Tree: r.cfg}.Validate(algo)
			if r.field == "" && err != nil {
				t.Errorf("%s: %+v: %v", algo, r.cfg, err)
			}
			if r.field != "" && (err == nil || !strings.Contains(err.Error(), r.field)) {
				t.Errorf("%s with %s: err %v, want an error naming it", algo, r.field, err)
			}
		}
	}
	for _, algo := range Algorithms() {
		o, err := Options{}.Validate(algo)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := core.Config{Algorithm: o.Tree.Algorithm}.Validate()
		if !reflect.DeepEqual(o.Tree, want) {
			t.Errorf("%s: validated Tree %+v, want core's defaults %+v", algo, o.Tree, want)
		}
		if again, err := o.Validate(algo); err != nil || !reflect.DeepEqual(again, o) {
			t.Errorf("%s: Validate is not idempotent: %+v, then %+v (%v)", algo, o, again, err)
		}
	}
	if o, _ := cmpb.Validate(AlgoCMPB); o.Tree.Algorithm != core.CMPB {
		t.Errorf("cmp-b validated as %v", o.Tree.Algorithm)
	}
}

// TestInvalidRecordRejected: every algorithm rejects a record that
// Schema.RecordDefect flags (a categorical value outside its domain, a NaN
// or an infinite numeric value) with an error naming the record, instead
// of indexing outside a histogram or sorting a value with no order.
func TestInvalidRecordRejected(t *testing.T) {
	for _, defect := range []struct {
		name string
		attr int
		v    float64
	}{
		{"car=99", synth.AttrCar, 99},
		{"salary=NaN", synth.AttrSalary, math.NaN()},
		{"age=+Inf", synth.AttrAge, math.Inf(1)},
	} {
		for _, algo := range Algorithms() {
			tbl := synth.Generate(synth.F2, 2000, 5)
			tbl.Row(1234)[defect.attr] = defect.v
			_, _, err := Run(algo, storage.NewMem(tbl), nil, nil, Options{})
			if err == nil || !strings.Contains(err.Error(), "record 1234") {
				t.Errorf("%s with %s: err %v, want an error naming record 1234", algo, defect.name, err)
			}
		}
	}
}
