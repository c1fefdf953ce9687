package attrlist

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cmpdt/internal/dataset"
	"cmpdt/internal/exact"
	"cmpdt/internal/prune"
	"cmpdt/internal/storage"
	"cmpdt/internal/synth"
	"cmpdt/internal/tree"
)

var layouts = []Layout{SPRINT, SLIQ}

func (l Layout) String() string {
	switch l.kind {
	case sprint:
		return "SPRINT"
	case sliq:
		return "SLIQ"
	}
	return fmt.Sprintf("RainForest(inMemory=%d, buffer=%d)", l.inMemory, l.buffer)
}

// smallBuffer is an AVC buffer far below one level's entries on a few
// thousand records, forcing RainForest to take extra scans.
const smallBuffer = 30_000

// rainForestBuffer is RainForest's layout over an AVC buffer of buffer
// entries.
func rainForestBuffer(inMemory int, buffer int64) Layout {
	l := RainForest(inMemory)
	l.buffer = buffer
	return l
}

// defaultConfig is the comparators' evaluation setup: exact's stopping
// rules, pruned.
func defaultConfig() exact.Config {
	cfg := exact.DefaultConfig()
	cfg.Prune = true
	return cfg
}

func build(t *testing.T, tbl *dataset.Table, cfg exact.Config, layout Layout) *Result {
	t.Helper()
	res, err := Build(storage.NewMem(tbl), cfg, layout)
	if err != nil {
		t.Fatalf("%v: %v", layout, err)
	}
	return res
}

func accuracy(t *tree.Tree, tbl *dataset.Table) float64 {
	correct := 0
	for i := 0; i < tbl.NumRecords(); i++ {
		if t.Predict(tbl.Row(i)) == tbl.Label(i) {
			correct++
		}
	}
	return float64(correct) / float64(tbl.NumRecords())
}

// treeJSON serializes t for byte comparison.
func treeJSON(t *testing.T, tr *tree.Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracle runs the replaced builder of layout under cfg's rules.
func oracle(t *testing.T, tbl *dataset.Table, cfg exact.Config, layout Layout) *oracleResult {
	t.Helper()
	oc := oracleConfig{
		MinSplitRecords: cfg.MinSplitRecords, MaxDepth: cfg.MaxDepth,
		MinGiniGain: cfg.MinGiniGain, PurityStop: cfg.PurityStop, Prune: cfg.Prune,
	}
	src := storage.NewMem(tbl)
	var res *oracleResult
	var err error
	switch layout.kind {
	case sprint:
		res, err = oracleSPRINT(src, oc)
	case sliq:
		res, err = oracleSLIQ(src, oc)
	default:
		res, err = oracleRainForest(src, oc, int(layout.buffer), layout.inMemory)
	}
	if err != nil {
		t.Fatalf("%v oracle: %v", layout, err)
	}
	return res
}

// checkOracle requires Build's tree, scans, traffic and memory to equal
// the oracle's under SPRINT, SLIQ, and RainForest collecting nodes of at
// most inMemory records over the paper's buffer and over one of buffer
// entries. Where a split's midpoint overflows or rounds onto the upper of
// its two values, the old builders go their own way (DESIGN.md, "SPRINT
// and SLIQ are list-I/O cost policies" and "RainForest is an AVC-buffer
// cost policy"): if every record goes one way, the exact tree keeps a
// leaf where SLIQ's and RainForest's oracles grow an empty child, and the
// comparison is skipped; otherwise RainForest's oracle estimates a
// child's AVC entries from other records than Build, and only the trees
// are compared.
func checkOracle(t *testing.T, name string, tbl *dataset.Table, cfg exact.Config, inMemory int, buffer int64) {
	t.Helper()
	for _, layout := range []Layout{SPRINT, SLIQ, RainForest(inMemory), rainForestBuffer(inMemory, buffer)} {
		want := oracle(t, tbl, cfg, layout)
		if want.EmptyChild {
			continue
		}
		got := build(t, tbl, cfg, layout)
		if g, w := treeJSON(t, got.Tree), treeJSON(t, want.Tree); !bytes.Equal(g, w) {
			t.Fatalf("%s %v: trees differ\nBuild:\n%s\noracle:\n%s", name, layout, got.Tree, want.Tree)
		}
		if want.Rerouted {
			continue
		}
		if got.Scans != want.Scans || got.AuxBytesIO != want.AuxBytesIO || got.PeakMemoryBytes != want.PeakMemoryBytes {
			t.Fatalf("%s %v: scans %d, aux bytes %d, peak memory %d; oracle %d, %d, %d", name, layout,
				got.Scans, got.AuxBytesIO, got.PeakMemoryBytes, want.Scans, want.AuxBytesIO, want.PeakMemoryBytes)
		}
	}
}

// TestLayoutsMatchOracles: on Agrawal data, with and without pruning and
// under each stopping rule, every layout grows the replaced builders'
// trees and charges their traffic and memory, RainForest over the paper's
// buffer and a small one, collecting nodes below a random size.
func TestLayoutsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, fn := range []synth.Func{synth.F1, synth.F2, synth.F3, synth.F6, synth.F7} {
		tbl := synth.Generate(fn, 3000, int64(fn))
		for _, prune := range []bool{false, true} {
			cfg := exact.DefaultConfig()
			cfg.Prune = prune
			checkOracle(t, fmt.Sprintf("F%d prune=%v", int(fn), prune), tbl, cfg, rng.Intn(1500), smallBuffer)
		}
		cfg := exact.DefaultConfig()
		cfg.MaxDepth, cfg.PurityStop, cfg.MinSplitRecords = 3, 0.8, 50
		checkOracle(t, fmt.Sprintf("F%d stops", int(fn)), tbl, cfg, rng.Intn(1500), smallBuffer)
	}
}

func checkTrainAccuracy(t *testing.T, layout Layout) {
	tbl := synth.Generate(synth.F2, 8000, 3)
	res := build(t, tbl, exact.DefaultConfig(), layout)
	if acc := accuracy(res.Tree, tbl); acc < 0.999 {
		t.Errorf("%v training accuracy %.4f, want ~1.0 (exact algorithm)", layout, acc)
	}
}

func TestSPRINTAccuracy(t *testing.T) { checkTrainAccuracy(t, SPRINT) }

func TestSLIQAccuracy(t *testing.T) { checkTrainAccuracy(t, SLIQ) }

func TestSLIQCategorical(t *testing.T) {
	tbl := synth.Generate(synth.F3, 8000, 6)
	for _, layout := range layouts {
		res := build(t, tbl, defaultConfig(), layout)
		if acc := accuracy(res.Tree, tbl); acc < 0.99 {
			t.Errorf("%v: F3 accuracy %.4f", layout, acc)
		}
		hasCat := false
		res.Tree.Walk(func(n *tree.Node, _ int) {
			if !n.IsLeaf() && n.Split.Kind == tree.SplitCategorical {
				hasCat = true
			}
		})
		if !hasCat {
			t.Errorf("%v: F3 tree should contain a categorical split", layout)
		}
	}
}

func TestSPRINTCategoricalSplits(t *testing.T) {
	schema := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "c", Kind: dataset.Categorical, Values: []string{"p", "q", "r"}},
			{Name: "x", Kind: dataset.Numeric},
		},
		Classes: []string{"no", "yes"},
	}
	tbl := dataset.MustNew(schema)
	for i := 0; i < 600; i++ {
		v := i % 3
		label := 0
		if v == 1 {
			label = 1
		}
		tbl.Append([]float64{float64(v), float64(i % 7)}, label)
	}
	for _, layout := range layouts {
		res := build(t, tbl, defaultConfig(), layout)
		if acc := accuracy(res.Tree, tbl); acc != 1.0 {
			t.Errorf("%v: categorical accuracy %.3f", layout, acc)
		}
		if res.Tree.Root.Split.Kind != tree.SplitCategorical {
			t.Errorf("%v: root should split on the categorical attribute", layout)
		}
	}
}

func TestSPRINTEmptyInput(t *testing.T) {
	tbl := dataset.MustNew(synth.Schema())
	for _, layout := range layouts {
		if _, err := Build(storage.NewMem(tbl), defaultConfig(), layout); err == nil {
			t.Errorf("%v: empty training set accepted", layout)
		}
	}
	if _, err := Build(storage.NewMem(synth.Generate(synth.F1, 10, 1)), defaultConfig(), Layout{}); err == nil {
		t.Error("unknown layout accepted")
	}
}

func TestSLIQEmptyAndStops(t *testing.T) {
	tbl := synth.Generate(synth.F7, 6000, 4)
	cfg := defaultConfig()
	cfg.MaxDepth = 2
	if res := build(t, tbl, cfg, SLIQ); res.Tree.Depth() > 2 {
		t.Errorf("depth %d exceeds MaxDepth 2", res.Tree.Depth())
	}
}

func TestSPRINTPurityStop(t *testing.T) {
	tbl := synth.Generate(synth.F2, 5000, 3)
	cfg := exact.DefaultConfig()
	cfg.PurityStop = 0.80
	for _, layout := range layouts {
		res := build(t, tbl, cfg, layout)
		full := build(t, tbl, defaultConfig(), layout)
		if res.Tree.Size() > full.Tree.Size() {
			t.Errorf("%v: purity stop grew the tree: %d > %d", layout, res.Tree.Size(), full.Tree.Size())
		}
	}
}

// TestSPRINTStats: SPRINT reads the source once, moves at least its
// presort's bytes, and holds the root's rid hash next to its page buffers.
func TestSPRINTStats(t *testing.T) {
	const n = 5000
	tbl := synth.Generate(synth.F1, n, 2)
	src := storage.NewMem(tbl)
	res, err := Build(src, defaultConfig(), SPRINT)
	if err != nil {
		t.Fatal(err)
	}
	if presort := int64(2*n*sprintEntry) * int64(len(tbl.Schema().NumericAttrs())); res.AuxBytesIO <= presort {
		t.Errorf("AuxBytesIO = %d, want above the presort's %d", res.AuxBytesIO, presort)
	}
	if want := 9*n + int64(tbl.Schema().NumAttrs())*4*storage.PageSize; res.PeakMemoryBytes != want {
		t.Errorf("PeakMemoryBytes = %d, want %d", res.PeakMemoryBytes, want)
	}
	if scans := src.Stats().Scans; scans != 1 {
		t.Errorf("source scans = %d, want 1", scans)
	}
}

// TestSLIQIOModel: SLIQ reads the source once, pins its 8-byte-per-record
// class list in memory, and never rewrites its lists, so it moves fewer
// list bytes than SPRINT over the same tree.
func TestSLIQIOModel(t *testing.T) {
	const n = 5000
	tbl := synth.Generate(synth.F1, n, 2)
	src := storage.NewMem(tbl)
	res, err := Build(src, defaultConfig(), SLIQ)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakMemoryBytes <= 8*n {
		t.Errorf("PeakMemoryBytes = %d, want above the class list's %d", res.PeakMemoryBytes, 8*n)
	}
	if sprint := build(t, tbl, defaultConfig(), SPRINT); res.AuxBytesIO <= 0 || res.AuxBytesIO >= sprint.AuxBytesIO {
		t.Errorf("SLIQ moves %d list bytes, SPRINT %d; want 0 < SLIQ < SPRINT", res.AuxBytesIO, sprint.AuxBytesIO)
	}
	if scans := src.Stats().Scans; scans != 1 {
		t.Errorf("source scans = %d, want 1", scans)
	}
}

// TestDegenerateSplit: a split whose every record goes one way leaves the
// exact tree a leaf. Here the root's best split lies between -MaxFloat64
// and MaxFloat64, whose midpoint overflows to +Inf. SPRINT still charges
// the rid hash it builds for that split; SLIQ's oracle grows an empty
// child, and Build keeps the leaf under both layouts.
func TestDegenerateSplit(t *testing.T) {
	schema := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Numeric}},
		Classes: []string{"no", "yes"},
	}
	tbl := dataset.MustNew(schema)
	for i := 0; i < 20; i++ {
		tbl.Append([]float64{math.Copysign(math.MaxFloat64, float64(i%2)-0.5)}, i%2)
	}
	cfg := exact.DefaultConfig()
	got := build(t, tbl, cfg, SPRINT)
	want := oracle(t, tbl, cfg, SPRINT)
	if !got.Tree.Root.IsLeaf() || !want.Tree.Root.IsLeaf() {
		t.Fatalf("root split: Build %v, oracle %v", got.Tree.Root.Split, want.Tree.Root.Split)
	}
	if got.PeakMemoryBytes != want.PeakMemoryBytes || got.PeakMemoryBytes != 9*20+4*storage.PageSize {
		t.Errorf("SPRINT peak memory %d, oracle %d, want the hash charged", got.PeakMemoryBytes, want.PeakMemoryBytes)
	}
	if !oracle(t, tbl, cfg, SLIQ).EmptyChild {
		t.Error("SLIQ's oracle did not grow an empty child")
	}
	if res := build(t, tbl, cfg, SLIQ); !res.Tree.Root.IsLeaf() {
		t.Errorf("SLIQ split the root: %v", res.Tree.Root.Split)
	}
}

func TestRainForestAccuracy(t *testing.T) {
	tbl := synth.Generate(synth.F2, 10_000, 4)
	res := build(t, tbl, exact.DefaultConfig(), RainForest(4096))
	if acc := accuracy(res.Tree, tbl); acc < 0.999 {
		t.Errorf("RF-Hybrid training accuracy %.4f, want ~1.0 (exact splits)", acc)
	}
}

// TestSmallBufferForcesExtraPasses: an AVC buffer too small for one
// level's groups forces RF-Hybrid to scan the source more often, while its
// tree stays the exact one and the source is still loaded once.
func TestSmallBufferForcesExtraPasses(t *testing.T) {
	tbl := synth.Generate(synth.F2, 20_000, 4)
	big := build(t, tbl, defaultConfig(), RainForest(1000))
	src := storage.NewMem(tbl)
	small, err := Build(src, defaultConfig(), rainForestBuffer(1000, smallBuffer))
	if err != nil {
		t.Fatal(err)
	}
	if small.Scans <= big.Scans {
		t.Errorf("small buffer scans %d should exceed big buffer scans %d", small.Scans, big.Scans)
	}
	if small.AuxBytesIO != 8*20_000*small.Scans {
		t.Errorf("node-id traffic %d, want 8 bytes per record per scan (%d scans)", small.AuxBytesIO, small.Scans)
	}
	if !bytes.Equal(treeJSON(t, small.Tree), treeJSON(t, big.Tree)) {
		t.Error("the buffer changed the tree")
	}
	if scans := src.Stats().Scans; scans != 1 {
		t.Errorf("source scans = %d, want 1", scans)
	}
	if want := oracle(t, tbl, defaultConfig(), rainForestBuffer(1000, smallBuffer)); want.Scans != small.Scans ||
		!bytes.Equal(treeJSON(t, small.Tree), treeJSON(t, want.Tree)) {
		t.Errorf("oracle: %d scans, tree equal %v; Build %d scans", want.Scans,
			bytes.Equal(treeJSON(t, small.Tree), treeJSON(t, want.Tree)), small.Scans)
	}
}

func TestBufferMemoryModel(t *testing.T) {
	tbl := synth.Generate(synth.F1, 5000, 2)
	res := build(t, tbl, defaultConfig(), RainForest(4096))
	// The paper's arithmetic: 2.5M entries x 2 classes x 4 bytes = 20 MB.
	if want := int64(2_500_000) * 2 * 4; res.PeakMemoryBytes != want {
		t.Errorf("PeakMemoryBytes = %d, want %d", res.PeakMemoryBytes, want)
	}
}

// TestAVCEntriesTracked: a group's entries are the distinct values (by ==)
// of each numeric attribute among its records plus each categorical
// domain, for the root and for any subset of its records.
func TestAVCEntriesTracked(t *testing.T) {
	tbl := synth.Generate(synth.F2, 5000, 2)
	for i := 0; i < 100; i++ {
		tbl.Row(i)[synth.AttrSalary] = math.Copysign(0, float64(i%2)-0.5) // -0 and +0 are one value
	}
	schema := tbl.Schema()
	avc := newAVCCounter(tbl)
	rows := make([]int32, tbl.NumRecords())
	for i := range rows {
		rows[i] = int32(i)
	}
	for _, rs := range [][]int32{rows, rows[:50], rows[1000:1700]} {
		want := int64(0)
		for a, attr := range schema.Attrs {
			if attr.Kind == dataset.Categorical {
				want += int64(attr.Cardinality())
				continue
			}
			distinct := map[float64]bool{}
			for _, r := range rs {
				distinct[tbl.Row(int(r))[a]] = true
			}
			want += int64(len(distinct))
		}
		if got := avc.entries(rs); got != want {
			t.Errorf("%d records: %d entries, want %d", len(rs), got, want)
		}
	}
	// The root's group holds ~one entry per record per numeric attribute
	// (values are continuous) plus the categorical domains.
	if got := avc.entries(rows); got < 5000 {
		t.Errorf("root entries = %d implausibly low", got)
	}
}

func TestRainForestEmptyInput(t *testing.T) {
	tbl := dataset.MustNew(synth.Schema())
	if _, err := Build(storage.NewMem(tbl), defaultConfig(), RainForest(4096)); err == nil {
		t.Error("empty training set accepted")
	}
}

func TestRainForestCategorical(t *testing.T) {
	tbl := synth.Generate(synth.F3, 8000, 6)
	res := build(t, tbl, defaultConfig(), RainForest(4096))
	if acc := accuracy(res.Tree, tbl); acc < 0.99 {
		t.Errorf("F3 accuracy %.4f", acc)
	}
}

// TestRainForestMatchesSPRINT: RF-Hybrid evaluates the same exact criterion
// as SPRINT, whose tree is the exact in-memory builder's pruned by
// PUBLIC1, so both must grow the same tree byte for byte; they differ only
// in how statistics reach memory.
func TestRainForestMatchesSPRINT(t *testing.T) {
	for _, fn := range []synth.Func{synth.F1, synth.F6} {
		tbl := synth.Generate(fn, 6000, 7)
		got := build(t, tbl, defaultConfig(), RainForest(512))
		want := exact.BuildTable(tbl, exact.DefaultConfig())
		prune.PUBLIC1(want, nil)
		if !bytes.Equal(treeJSON(t, got.Tree), treeJSON(t, want)) {
			t.Errorf("%v: trees differ\nRainForest:\n%s\nexact:\n%s", fn, got.Tree, want)
		}
		if sprint := build(t, tbl, defaultConfig(), SPRINT); !bytes.Equal(treeJSON(t, got.Tree), treeJSON(t, sprint.Tree)) {
			t.Errorf("%v: RainForest and SPRINT trees differ", fn)
		}
	}
}
