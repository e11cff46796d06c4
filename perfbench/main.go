// Command perfbench is the repository's benchmark. It runs one named
// workload against the offloading runtime or the serving layer, checks the
// generated tokens, and prints every metric with its unit and sample count.
//
// Run it from the repository root (run.sh builds it first):
//
//	perfbench --workload offline-quant --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// BENCHMARK.json's end_to_end list, all measured with tracing off; with
// --trace 1 they are its per_layer list, taken from an untraced half of the
// run and a traced half. README.md maps every metric to its layer.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/stats"
)

// specFile is the benchmark manifest, read from the working directory (the
// repository root): it names the workloads and fixes each metric's unit.
const specFile = "BENCHMARK.json"

// A run builds its model, engine and scheduler again and again for at least
// setupBudget and at least minSetupReps times; setup_s is the median build.
// Spreading the builds over a second keeps a short burst of load on the
// machine from moving the median.
const (
	setupBudget  = time.Second
	minSetupReps = 7
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// metric is one reported value with the number of samples behind it.
type metric struct {
	value float64
	unit  string
	n     int
}

// report is what a workload run returns: operations attempted and failed,
// every metric it measured, and the first output mismatch, if any.
type report struct {
	attempted, failed int
	metrics           map[string]metric
	mismatch          error
}

func (r *report) set(name, unit string, value float64, n int) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{value: value, unit: unit, n: n}
}

// workloads maps each workload name in BENCHMARK.json to its runner.
var workloads = map[string]func(options) (*report, error){
	"offline-quant": func(o options) (*report, error) { return runOffline(o, offlineQuant) },
	"offline-raw":   func(o options) (*report, error) { return runOffline(o, offlineRaw) },
	"serve-chat":    runServe,
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", "", "workload name from "+specFile)
	fs.Int64Var(&opt.seed, "seed", 1, "seed for the generated inputs")
	fs.IntVar(&opt.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if opt.seconds < 1 || (traceFlag != 0 && traceFlag != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: need --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	opt.trace = traceFlag == 1
	spec, err := readSpec(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runner, ok := workloads[opt.workload]
	if !ok || !spec.hasWorkload(opt.workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", opt.workload)
		return 2
	}
	runtime.GOMAXPROCS(width())
	fmt.Fprintln(stdout, machineContext(opt))

	rep, err := runner(opt)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	want := spec.EndToEnd
	if opt.trace {
		want = spec.PerLayer
	}
	fmt.Fprint(stdout, table(rep))
	line, err := resultLine(rep, want)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", opt.workload, err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if rep.mismatch != nil {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %v\n", opt.workload, rep.mismatch)
		return 1
	}
	return 0
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the manifest (run from the repository root): %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &spec, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// timeSetups calls build, each time from a collected heap, until the set-up
// budget is spent, and returns each call's seconds. Every build but the last
// is then released, untimed, through the function it returned (if any).
func timeSetups(build func() (release func(), err error)) ([]float64, error) {
	var out []float64
	start := time.Now()
	for {
		runtime.GC()
		t0 := time.Now()
		release, err := build()
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
		if len(out) >= minSetupReps && time.Since(start) >= setupBudget {
			return out, nil
		}
		if release != nil {
			release()
		}
	}
}

// width is the worker count for GOMAXPROCS and every pool: two, or fewer on
// a machine with fewer CPUs.
func width() int {
	return min(2, runtime.NumCPU())
}

// machineContext is the line that lets a run on a loaded or different box be
// told apart from the others.
func machineContext(opt options) string {
	load := "unknown"
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			load = f[0]
		}
	}
	trace := 0
	if opt.trace {
		trace = 1
	}
	return fmt.Sprintf("machine: nproc=%d gomaxprocs=%d go=%s workload=%s seed=%d seconds=%d trace=%d loadavg_1m=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), opt.workload, opt.seed, opt.seconds, trace, load)
}

// table renders every measured metric, the ones not on the result line too.
func table(rep *report) string {
	names := make([]string, 0, len(rep.metrics))
	for name := range rep.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	t := stats.NewTable("metric", "value", "unit", "samples")
	for _, name := range names {
		m := rep.metrics[name]
		if m.n == 0 {
			t.AddRow(name, "n/a", m.unit, "0")
			continue
		}
		t.AddRowf("%s\t%.6g\t%s\t%d", name, m.value, m.unit, m.n)
	}
	return fmt.Sprintf("attempted=%d failed=%d\n%s", rep.attempted, rep.failed, t.String())
}

// resultLine is the JSON object the last line carries: exactly the metrics
// of want, each in the unit the manifest fixes.
func resultLine(rep *report, want []specMetric) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: rep.mismatch == nil, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]value{}}
	for _, w := range want {
		m, ok := rep.metrics[w.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", w.Name)
		}
		if m.unit != w.Unit {
			return "", fmt.Errorf("metric %s measured in %s, manifest says %s", w.Name, m.unit, w.Unit)
		}
		out.Metrics[w.Name] = value{Value: m.value, Unit: m.unit}
	}
	if out.Attempted < 1 {
		return "", errors.New("no operation attempted")
	}
	raw, err := json.Marshal(out)
	return string(raw), err
}
