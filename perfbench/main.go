package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cmpdt"
	"cmpdt/internal/synth"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its report
// line followed by the result line. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	workdir := fs.String("workdir", ".bench_build", "directory that holds the run's stores and model files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	cfg := config{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, scale: 1, workdir: *workdir}
	rep, res, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]*report{"report": rep}); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// scale multiplies every record count: 1 from the command line, less
	// in the self-test.
	scale   float64
	workdir string
	// tamper, when non-nil, wraps every model the serve workloads load, so
	// the self-test can serve wrong answers and watch ok_frac drop.
	tamper func(cmpdt.Predictor) cmpdt.Predictor
}

// report is the full account of one run, printed on the line before the
// result. It carries every metric, including those the result line leaves
// out: a metric that does not apply to the workload, or could not be
// measured, is null with its reason.
type report struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     bool           `json:"trace"`
	Machine   machine        `json:"machine"`
	Attempted int64          `json:"attempted"`
	Failed    int64          `json:"failed"`
	EndToEnd  metrics        `json:"end_to_end"`
	PerLayer  metrics        `json:"per_layer"`
	Samples   map[string]int `json:"samples"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]plainValue `json:"metrics"`
}

type plainValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs one workload and assembles its report and result.
func execute(cfg config) (*report, *result, error) {
	run, ok := workloads[cfg.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, workloadNames())
	}
	if cfg.seconds <= 0 || cfg.scale <= 0 {
		return nil, nil, errors.New("-seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	// The quantized builder spills its bin-coded store to the temporary
	// directory; keep that inside the run directory too.
	if prev, ok := os.LookupEnv("TMPDIR"); ok {
		defer os.Setenv("TMPDIR", prev)
	} else {
		defer os.Unsetenv("TMPDIR")
	}
	if err := os.Setenv("TMPDIR", dir); err != nil {
		return nil, nil, err
	}

	e := &env{config: cfg, dir: dir, budget: time.Duration(cfg.seconds * float64(time.Second))}
	before := probe()
	out, err := run(e)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	after := probe()

	rep := &report{
		Workload:  cfg.workload,
		Seed:      cfg.seed,
		Seconds:   cfg.seconds,
		Trace:     cfg.trace,
		Machine:   describeMachine(cfg.seed, before, after),
		Attempted: out.attempted,
		Failed:    out.failed,
		EndToEnd:  out.e2e,
		Samples:   out.samples,
	}
	if cfg.trace {
		out.layers.set("machine.probe_ms", median(append(append([]float64(nil), before...), after...)))
		rep.PerLayer = out.layers
	}

	declared := endToEnd
	source := out.e2e
	if cfg.trace {
		declared, source = perLayer, out.layers
	}
	res := &result{
		Correct:   out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]plainValue, len(declared)),
	}
	for _, name := range declared {
		m, ok := source[name]
		if !ok || m.Value == nil {
			return nil, nil, fmt.Errorf("%s: declared metric %s was not measured", cfg.workload, name)
		}
		res.Metrics[name] = plainValue{Value: *m.Value, Unit: m.Unit}
	}
	return rep, res, nil
}

// env is what a workload sees of its invocation.
type env struct {
	config
	dir    string
	budget time.Duration
}

// records scales a full-size record count, keeping at least 200 records.
func (e *env) records(full int) int {
	n := int(float64(full) * e.scale)
	if n < 200 {
		n = 200
	}
	return n
}

// subSeed derives the seed of the i-th generated input from the run's
// seed, so different runs and different inputs never share a stream.
func (e *env) subSeed(i int) int64 {
	x := uint64(e.seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return int64(x >> 1)
}

func (e *env) path(name string) string { return filepath.Join(e.dir, name) }

// outcome is what a workload measured.
type outcome struct {
	e2e       metrics
	layers    metrics
	samples   map[string]int
	attempted int64
	failed    int64
}

func newOutcome() *outcome {
	return &outcome{e2e: metrics{}, layers: metrics{}, samples: map[string]int{}}
}

// count records one operation and whether it passed its check.
func (o *outcome) count(ok bool) {
	o.attempted++
	if !ok {
		o.failed++
	}
}

// okFrac is the share of attempted operations that succeeded and passed
// their correctness check.
func (o *outcome) okFrac() float64 {
	if o.attempted == 0 {
		return 0
	}
	return float64(o.attempted-o.failed) / float64(o.attempted)
}

// workloads maps each workload name to its run. BENCHMARK.json and doc.go
// say why each was chosen, and why train-raw and serve-batch are left out
// of BENCHMARK.json.
var workloads = map[string]func(*env) (*outcome, error){
	"train-raw": func(e *env) (*outcome, error) {
		return runBuild(e, buildSpec{fn: synth.F7, records: 100_000, stores: 10, train: trainRaw})
	},
	"train-forest": func(e *env) (*outcome, error) {
		return runBuild(e, buildSpec{fn: synth.F2, records: 50_000, stores: 6, train: forestTrainer(8), quantized: true})
	},
	"serve-predict": func(e *env) (*outcome, error) {
		return runServe(e, serveSpec{fn: synth.F7, records: 50_000, train: trainQuantTree, batch: 1, requests: 4096, quantized: true})
	},
	"serve-batch": func(e *env) (*outcome, error) {
		return runServe(e, serveSpec{fn: synth.F2, records: 20_000, train: forestTrainer(16), batch: 512, requests: 16, quantized: true})
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
