// Command perfbench is the repository benchmark. It drives the public
// entry points of build, clack, machine, fleet, oskit and assemble with
// seeded workloads, checks every operation's output, and prints one JSON
// result line:
//
//	perfbench -workload build-router -seed 1 -seconds 10 -trace 0
//
// Each workload times two kinds of operation: a base path and the fast
// path the system offers for it (an edit rebuild over the compile
// cache, the compiled backend, two shards). With -trace 0 the result
// carries the end-to-end metrics base_ms, fast_ms and setup_s, medians
// scaled by the probe of probe.go; with -trace 1 every other operation
// runs under span tracing and the result carries the per-layer metrics
// instead. NOTES.md explains the choice of workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// setupRounds is how many times a run performs its set-up; setup_s is
// the median, so one slow set-up does not move it.
const setupRounds = 5

// minOps is the fewest timed operations of each kind a run makes, even
// when one operation outlasts -seconds.
const minOps = 5

// workload is one named benchmark input set. setup builds and generates
// everything the timed operations need; it runs setupRounds times and
// the last state is kept. op performs one timed operation: it returns
// the base-path and fast-path wall times, or an error when the output
// failed its oracle. extras runs after the timed loop of a traced run,
// for per-layer measurements that would distort the timed operations.
// parallelFast says the fast path keeps every P busy, so its timings
// scale by a probe on every P; every other timing scales by a probe on
// one.
type workload struct {
	why          string
	parallelFast bool
	setup        func(r *runner) error
	op           func(r *runner, i int) (base, fast time.Duration, err error)
	extras       func(r *runner) error
}

var workloads = map[string]workload{
	"build-router": buildRouterWorkload,
	"build-kit":    buildKitWorkload,
	"route":        routeWorkload,
	"serve":        serveWorkload,
}

// runner is one benchmark run's state, shared by every workload.
type runner struct {
	name    string
	seed    int64
	tr      *tracer // nil unless the current operation is traced
	traceOn bool    // -trace 1: the per-layer run
	round   int     // set-up round, from 0

	// layer collects per-layer samples by metric name; each metric's
	// reported value is the median of its samples.
	layer map[string][]float64
	units map[string]string

	state any // the workload's set-up result
}

// sample records one per-layer observation.
func (r *runner) sample(name, unit string, v float64) {
	if r.layer == nil {
		r.layer = map[string][]float64{}
		r.units = map[string]string{}
	}
	r.layer[name] = append(r.layer[name], v)
	r.units[name] = unit
}

func main() {
	name := flag.String("workload", "", "workload to run: build-router, build-kit, route or serve")
	seed := flag.Int64("seed", 1, "seed for the generated inputs")
	seconds := flag.Float64("seconds", 10, "measurement time")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	traceOut := flag.String("trace-out", "", "file for the span trace (JSON lines) of a traced run")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		os.Exit(2)
	}
	r := &runner{name: *name, seed: *seed, traceOn: *trace == 1}
	res, err := run(r, w, time.Duration(*seconds*float64(time.Second)), *traceOut)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run performs set-up, the timed loop and (when tracing) the extras,
// printing a human-readable report on the way. A set-up error aborts
// the run; an operation error counts that operation as failed. Every
// set-up round and operation is preceded by a probe (see probe.go); the
// end-to-end metrics are the raw medians scaled by probeRef over the
// probe's median.
func run(r *runner, w workload, measure time.Duration, traceOut string) (*result, error) {
	printHost()
	fmt.Printf("workload %s (seed %d): %s\n", r.name, r.seed, w.why)

	var setups, setupProbes []float64
	for i := 0; i < setupRounds; i++ {
		r.round = i
		runtime.GC()
		setupProbes = append(setupProbes, ms(probe(1)))
		start := time.Now()
		if err := w.setup(r); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	// Per-layer samples taken during set-up describe the last round only.
	for name, vals := range r.layer {
		r.layer[name] = vals[len(vals)-1:]
	}

	var tr *tracer
	if r.traceOn {
		tr = newTracer()
	}
	var base, fast, probes, fastProbes, baseTraced, baseUntraced []float64
	attempted, failed := 0, 0
	deadline := time.Now().Add(measure)
	// Operation -1 is a warm-up: checked and counted, never timed.
	for i := -1; i < minOps || time.Now().Before(deadline); i++ {
		traced := tr != nil && i%2 == 0
		r.tr = nil
		if traced {
			r.tr = tr
			tr.op = i
		}
		runtime.GC()
		pr := probe(1)
		pf := pr
		if w.parallelFast {
			pf = probe(runtime.GOMAXPROCS(0))
		}
		attempted++
		b, f, err := w.op(r, i)
		r.tr = nil
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d failed: %v\n", r.name, i, err)
			continue
		}
		if i < 0 {
			continue
		}
		base = append(base, ms(b))
		fast = append(fast, ms(f))
		probes = append(probes, ms(pr))
		fastProbes = append(fastProbes, ms(pf))
		if traced {
			baseTraced = append(baseTraced, ms(b))
		} else {
			baseUntraced = append(baseUntraced, ms(b))
		}
	}
	if len(base) == 0 {
		return nil, fmt.Errorf("all %d operations failed", attempted)
	}

	refMs := ms(probeRef)
	setupScale := refMs / median(setupProbes)
	baseScale := refMs / median(probes)
	fastScale := refMs / median(fastProbes)
	fmt.Printf("probe: median %.3f ms over %d set-up rounds, %.3f ms over %d ops, %.3f ms for the fast path (reference %.1f ms)\n",
		median(setupProbes), len(setupProbes), median(probes), len(probes), median(fastProbes), refMs)
	printSeries("setup_s", "s", setups, setupScale, true)
	printSeries("base_ms", "ms", base, baseScale, true)
	printSeries("fast_ms", "ms", fast, fastScale, true)
	printNamed(r.name, base, fast, baseScale, fastScale)

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: map[string]metric{}}
	if !r.traceOn {
		res.Metrics["base_ms"] = metric{median(base) * baseScale, "ms"}
		res.Metrics["fast_ms"] = metric{median(fast) * fastScale, "ms"}
		res.Metrics["setup_s"] = metric{median(setups) * setupScale, "s"}
		return res, nil
	}

	// The traced run: tracing overhead from the interleaved operations,
	// then the extras, then every per-layer metric.
	r.sample("trace.overhead_ms", "ms", median(baseTraced)-median(baseUntraced))
	fmt.Printf("tracing overhead: base op median %.3f ms traced vs %.3f ms untraced (%d/%d ops)\n",
		median(baseTraced), median(baseUntraced), len(baseTraced), len(baseUntraced))
	if w.extras != nil {
		if err := w.extras(r); err != nil {
			return nil, fmt.Errorf("traced extras: %w", err)
		}
	}
	tr.printSelf()
	if traceOut != "" {
		if err := tr.write(traceOut); err != nil {
			return nil, err
		}
		fmt.Printf("trace: %d spans written to %s\n", len(tr.spans), traceOut)
	}
	for _, pl := range perLayer {
		vals, ok := r.layer[pl.name]
		v := 0.0 // this workload makes no call into the layer
		if ok {
			if pl.unit != r.units[pl.name] {
				return nil, fmt.Errorf("metric %s recorded in %s, declared in %s", pl.name, r.units[pl.name], pl.unit)
			}
			v = median(vals)
		}
		res.Metrics[pl.name] = metric{v, pl.unit}
		if ok {
			fmt.Printf("  %-36s %14.6g %s\n", pl.name, v, pl.unit)
		}
	}
	for name := range r.layer {
		if _, ok := res.Metrics[name]; !ok {
			return nil, fmt.Errorf("per-layer metric %s is not declared", name)
		}
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printHost prints the host record every result carries.
func printHost() {
	host := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"goarch":     runtime.GOARCH,
		"goos":       runtime.GOOS,
		"go":         runtime.Version(),
	}
	b, _ := json.Marshal(host) // a map of strings and ints always marshals
	fmt.Printf("host %s\n", b)
}

// printSeries prints a series of raw measurements as its median, the
// highest percentile with at least ten samples beyond it on the bad
// side, and the sample count, then the median times scale: the value
// the result line reports for end-to-end metrics.
func printSeries(name, unit string, vals []float64, scale float64, lowerBetter bool) {
	p, v := tail(vals, lowerBetter)
	tailText := "tail n/a (fewer than 11 samples)"
	if p > 0 {
		tailText = fmt.Sprintf("p%g %.4f", p, v)
	}
	fmt.Printf("  %-20s raw median %.4f %s, %s, n=%d; probe-scaled median %.4f %s\n",
		name, median(vals), unit, tailText, len(vals), median(vals)*scale, unit)
}

// printNamed prints the workload's timings under the metric names of the
// benchmark's specification: seconds per corpus pass for the
// build workloads, packets per second for route and serve. The
// percentile of a rate is taken on its slow side.
func printNamed(workload string, base, fast []float64, baseScale, fastScale float64) {
	conv := func(vals []float64, f func(float64) float64) []float64 {
		out := make([]float64, len(vals))
		for i, v := range vals {
			out[i] = f(v)
		}
		return out
	}
	secs := func(v float64) float64 { return v / 1e3 }
	pps := func(packets int) func(float64) float64 {
		return func(v float64) float64 { return float64(packets) / (v / 1e3) }
	}
	switch workload {
	case "build-router", "build-kit":
		printSeries("build_cold_s", "s", conv(base, secs), baseScale, true)
		printSeries("build_edit_s", "s", conv(fast, secs), fastScale, true)
	case "route":
		printSeries("route_pps_interp", "1/s", conv(base, pps(routePackets)), 1/baseScale, false)
		printSeries("route_pps_compiled", "1/s", conv(fast, pps(routePackets)), 1/fastScale, false)
	case "serve":
		printSeries("serve_pps_1shard", "1/s", conv(base, pps(servePackets)), 1/baseScale, false)
		printSeries("serve_pps", "1/s", conv(fast, pps(servePackets)), 1/fastScale, false)
	}
}

// median of vals (NaN when empty).
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest of p50..p99.9 that has at least ten samples
// beyond it on the bad side (above it when lower is better, below it
// otherwise), with its value; p is 0 when no percentile qualifies.
func tail(vals []float64, lowerBetter bool) (p, v float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	if !lowerBetter {
		slices.Reverse(s)
	}
	for _, q := range []float64{99.9, 99, 95, 90, 75, 50} {
		idx := int(math.Ceil(q/100*float64(len(s)))) - 1
		if idx < 0 || len(s)-1-idx < 10 {
			continue
		}
		return q, s[idx]
	}
	return 0, 0
}

// layerMetric is one declared per-layer metric.
type layerMetric struct{ name, unit string }

// perLayer lists every per-layer metric a traced run reports, in print
// order; it matches the per_layer list of BENCHMARK.json. A workload that
// makes no timed call into a layer reports 0 for its metrics.
var perLayer = []layerMetric{
	{"lang.parse_ms", "ms"},
	{"link.elaborate_ms", "ms"},
	{"constraint.check_ms", "ms"},
	{"sched.schedule_ms", "ms"},
	{"flatten.merge_ms", "ms"},
	{"compile.compile_ms", "ms"},
	{"ldlink.link_ms", "ms"},
	{"machine.load_ms", "ms"},
	{"build.self_ms", "ms"},
	{"compile.tu_max_share", "ratio"},
	{"compile.parallel_speedup", "ratio"},
	{"compile.jobs", "count"},
	{"build.cache_hit_ratio", "ratio"},
	{"compile.text_bytes", "bytes"},
	{"assemble.enumerate_ms", "ms"},
	{"go.alloc_mb_per_pass", "MB"},
	{"go.heap_peak_mb", "MB"},
	{"machine.interp.new_us", "us"},
	{"machine.interp.init_us", "us"},
	{"machine.interp.run_ms", "ms"},
	{"machine.interp.ns_per_cycle", "ns"},
	{"machine.compiled.new_us", "us"},
	{"machine.compiled.init_us", "us"},
	{"machine.compiled.run_ms", "ms"},
	{"machine.compiled.ns_per_cycle", "ns"},
	{"machine.cycles_per_packet", "count"},
	{"machine.cycles_per_packet_flat", "count"},
	{"machine.instrs_per_packet", "count"},
	{"machine.calls_per_packet", "count"},
	{"machine.builtins_per_packet", "count"},
	{"machine.stalls_per_packet", "count"},
	{"machine.icache_miss_ratio", "ratio"},
	{"clack.interp.builtin_ns_per_packet", "ns"},
	{"clack.compiled.builtin_ns_per_packet", "ns"},
	{"clack.gen_ms", "ms"},
	{"fleet.serve_ms", "ms"},
	{"fleet.pps_1shard", "1/s"},
	{"fleet.scaling", "ratio"},
	{"fleet.kmain_calls_per_packet", "count"},
	{"fleet.shard_imbalance", "ratio"},
	{"supervise.calls", "count"},
	{"go.alloc_kb_per_packet", "KB"},
	{"trace.overhead_ms", "ms"},
}
