// Command perfbench is jmake's benchmark. It runs one of two workloads
// against the program's public Go API, checks every output against
// reference bytes, and prints the workload's metrics as one JSON object
// on the last line of standard output. The line before it is a JSON
// detail record: host facts, within-run spreads and sample counts.
//
// Workloads (BENCHMARK.json says why each exists):
//
//	window   fresh Session per pass, CheckCommitWith over every window commit
//	follow   one incr Follower per pass, Step through every later commit
//
// With -trace 1 it instead runs the workload once more with spans
// recorded around the benchmark's own calls into each layer, writes them
// as Chrome trace-event JSON, validates the file with trace-check, replays
// each layer's public functions on the same inputs, probes a real jmaked
// process on the same seed and prints the per-layer metrics.
//
// It is normally started by run.sh, which builds it, jmaked and
// trace-check from the same checkout:
//
//	bash perfbench/run.sh --workload window --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
)

// units names every metric the benchmark can print, with its unit; it
// must agree with BENCHMARK.json.
var units = map[string]string{
	// End to end.
	"setup_s":         "s",
	"ops_per_s":       "1/s",
	"latency_p50_ms":  "ms",
	"latency_p99_ms":  "ms",
	"max_rps":         "1/s",
	"alloc_mb_per_op": "MB",
	"peak_rss_mb":     "MB",
	// Per layer.
	"vcs.checkout_ms":                "ms",
	"vcs.checkout_alloc_kb":          "KB",
	"vcs.filediffs_ms":               "ms",
	"fstree.clone_ms":                "ms",
	"fstree.clone_alloc_kb":          "KB",
	"core.check_patch_ms":            "ms",
	"core.mutate_us":                 "us",
	"core.make_i_per_op":             "count",
	"core.make_o_per_op":             "count",
	"core.configs_per_op":            "count",
	"core.config_hit_ratio":          "ratio",
	"kconfig.config_gen_ms":          "ms",
	"kbuild.parse_makefile_us":       "us",
	"kbuild.parse_makefile_alloc_kb": "KB",
	"kbuild.reachable_us":            "us",
	"cpp.preprocess_ms_per_tu":       "ms",
	"cpp.alloc_kb_per_tu":            "KB",
	"cpp.token_cache_hit_ratio":      "ratio",
	"cc.compile_ms_per_tu":           "ms",
	"cc.alloc_kb_per_tu":             "KB",
	"ccache.make_i_hit_ratio":        "ratio",
	"ccache.make_o_hit_ratio":        "ratio",
	"incr.refresh_us":                "us",
	"incr.index_update_us":           "us",
	"incr.dependents_us":             "us",
	"incr.invalidated_tus_per_op":    "count",
	"incr.structural_ratio":          "ratio",
	"daemon.queue_wait_mean_ms":      "ms",
	"daemon.server_wall_mean_ms":     "ms",
	"daemon.http_overhead_ms":        "ms",
	"daemon.shed_ratio":              "ratio",
	"loadgen.lateness_p99_ms":        "ms",
	"go.gc_cpu_fraction":             "ratio",
	"go.cpu_ms_per_op":               "ms",
	"trace.overhead_pct":             "%",
}

var endToEnd = []string{"setup_s", "ops_per_s", "latency_p50_ms", "latency_p99_ms", "max_rps", "alloc_mb_per_op", "peak_rss_mb"}

type config struct {
	ctx        context.Context
	workload   string
	seed       int64
	seconds    int
	trace      bool
	jmaked     string
	traceCheck string
	out        string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome collects one run's metrics, op counts and supporting detail.
type outcome struct {
	metrics   map[string]metric
	spread    map[string]float64
	samples   map[string]int
	notes     map[string]any
	attempted int
	failed    int
	ver       *verifier
}

func newOutcome() *outcome {
	return &outcome{
		metrics: make(map[string]metric),
		spread:  make(map[string]float64),
		samples: make(map[string]int),
		notes:   make(map[string]any),
		ver:     newVerifier(),
	}
}

// set records a metric; parts, when given, are the within-run values
// (per pass or per repetition) whose relative spread goes beside it.
func (o *outcome) set(name string, v float64, parts ...float64) {
	unit, ok := units[name]
	if !ok {
		panic("perfbench: metric without a unit: " + name)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
	if len(parts) > 1 {
		o.spread[name] = relSpread(parts)
	}
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: window or follow")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; tree, history and traffic seeds derive from it")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&cfg.jmaked, "jmaked", "", "jmaked binary built from this checkout")
	flag.StringVar(&cfg.traceCheck, "trace-check", "", "trace-check binary built from this checkout")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for logs and span files")
	flag.Parse()
	cfg.trace = trace == 1
	if err := validate(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}

	// A signal cancels the run; the workload then stops jmaked and
	// returns, so no process outlives the benchmark.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	cfg.ctx = ctx
	code := run(cfg)
	if ctx.Err() != nil {
		code = 1
	}
	stop()
	os.Exit(code)
}

func validate(cfg config) error {
	switch cfg.workload {
	case "window", "follow":
	default:
		return fmt.Errorf("unknown -workload %q (want window or follow)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if cfg.jmaked == "" || cfg.traceCheck == "" {
		return fmt.Errorf("-jmaked and -trace-check are required (run.sh sets them)")
	}
	return nil
}

// run executes the workload and prints its result; it returns the exit
// code.
func run(cfg config) int {
	cpu0 := readHostCPU()
	var o *outcome
	var err error
	if cfg.trace {
		o, err = runTraced(cfg)
	} else {
		o, err = runInProcess(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	want := endToEnd
	if cfg.trace {
		want = nil
		for name := range units {
			if !contains(endToEnd, name) {
				want = append(want, name)
			}
		}
	}
	for _, name := range want {
		if _, ok := o.metrics[name]; !ok {
			fmt.Fprintln(os.Stderr, "perfbench: metric not measured:", name)
			return 1
		}
	}
	correct := o.ver.mismatched == 0
	detail := map[string]any{
		"workload":   cfg.workload,
		"trace":      cfg.trace,
		"host":       hostFacts(cfg.seed),
		"host_cpu":   hostLoad(cpu0),
		"spread":     o.spread,
		"samples":    o.samples,
		"notes":      o.notes,
		"mismatched": o.ver.mismatched,
	}
	if o.ver.firstBad != "" {
		detail["first_mismatch"] = o.ver.firstBad
	}
	printJSON(map[string]any{"detail": detail})
	printJSON(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, o.attempted, o.failed, pick(o.metrics, want)})
	if !correct || o.failed > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d ops failed (%d report mismatches)\n", o.failed, o.attempted, o.ver.mismatched)
		return 1
	}
	return 0
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func pick(m map[string]metric, names []string) map[string]metric {
	sort.Strings(names)
	out := make(map[string]metric, len(names))
	for _, n := range names {
		out[n] = m[n]
	}
	return out
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, numbers and strings reach here
	}
	fmt.Println(string(b))
}
