package core

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
)

// tripwireStore is a two-record store that counts the records it is asked
// to read and refuses a page cache. A build sizes the store's cache right
// after its record-count check, so a build that got past the check panics
// there, before it allocates anything sized by the record count.
type tripwireStore struct {
	storage.RangeSource
	read int
}

func (s *tripwireStore) ScanRange(lo, hi int, stats *storage.Stats, fn func(rid int, vals []float64, label int) error) error {
	return s.RangeSource.ScanRange(lo, hi, stats, func(rid int, vals []float64, label int) error {
		s.read++
		return fn(rid, vals, label)
	})
}

func (s *tripwireStore) SetCacheBytes(int64) { panic("the build got past its record-count check") }

// TestCountRangeRejected: histogram counts are 32-bit, so a training set
// whose multiplicity sum passes math.MaxInt32 is rejected before any record
// is read, by an error naming the sum. The sum is synthetic: two records,
// one drawn math.MaxUint32 times.
func TestCountRangeRejected(t *testing.T) {
	mask := storage.NewMask([]uint32{math.MaxUint32, 1})
	sum := strconv.FormatInt(int64(math.MaxUint32)+1, 10)
	check := func(name string, err error, read int) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "multiplicity sum "+sum) {
			t.Errorf("%s: error %v, want the multiplicity sum %s rejected", name, err, sum)
		}
		if read != 0 {
			t.Errorf("%s: read %d records before rejecting the training set", name, read)
		}
	}
	for _, quantize := range []bool{false, true} {
		store := &tripwireStore{RangeSource: storage.NewMem(synth.Generate(synth.F2, 2, 1))}
		view, err := storage.NewMasked(store, mask)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Default(CMPB)
		cfg.Quantize = quantize
		cfg.CacheBytes = 1
		_, err = Build(view, cfg)
		check("masked view, quantize="+strconv.FormatBool(quantize), err, store.read)
	}

	// An index build past the check would count the weighted records, not
	// allocate for them; the deadline bounds its time.
	store := &tripwireStore{RangeSource: storage.NewMem(synth.Generate(synth.F2, 2, 1))}
	idx, err := NewIndex(context.Background(), store, 1)
	if err != nil {
		t.Fatal(err)
	}
	read := store.read
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = BuildIndexed(ctx, idx, mask, Default(CMPB))
	check("index", err, store.read-read)

	if err := checkCountRange("record count", math.MaxInt32); err != nil {
		t.Errorf("math.MaxInt32 records rejected: %v", err)
	}
}
