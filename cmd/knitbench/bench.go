package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"knit/internal/clack"
	"knit/internal/knit/build"
	"knit/internal/knit/observe"
	"knit/internal/machine"
)

// This file is the CI half of knitbench: machine-readable benchmark
// results (-json), the regression gate that compares them against
// committed baselines (-gate), and the observability overhead
// benchmark (-observe).
//
// Wall-clock numbers are not comparable across machines, so every
// result carries calib_ns — the time a fixed pure-CPU reference loop
// takes on the measuring host. The gate normalizes wall metrics by the
// calibration ratio before applying the tolerance; cycles-per-packet is
// fully deterministic (simulated cycles) and is compared directly.

// RouterBench is BENCH_router.json. The interp and compiled halves each
// carry their own cycles-per-packet: the compiled backend has no
// instruction-fetch model, so its (deterministic) cycle figure is lower
// by exactly the interpreter's stall count and the two are never
// compared against each other — only against their own baselines.
type RouterBench struct {
	Bench              string  `json:"bench"`
	Packets            int     `json:"packets"`
	CyclesPerPacket    float64 `json:"cycles_per_packet"`
	PacketsPerSec      float64 `json:"packets_per_sec"`
	ObserveOverheadPct float64 `json:"observe_overhead_pct"`
	// CompiledCyclesPerPacket is the compiled backend's deterministic
	// per-packet cycle count (interp cycles minus i-fetch stalls).
	CompiledCyclesPerPacket float64 `json:"compiled_cycles_per_packet"`
	// CompiledPacketsPerSec is wall throughput under the compiled
	// backend; CompiledSpeedup is its ratio over the interpreter's,
	// measured back-to-back on the same host (calibration cancels).
	CompiledPacketsPerSec float64 `json:"compiled_packets_per_sec"`
	CompiledSpeedup       float64 `json:"compiled_speedup"`
	CalibNs               int64   `json:"calib_ns"`
}

// BuildTimeBench is BENCH_buildtime.json.
type BuildTimeBench struct {
	Bench          string  `json:"bench"`
	ColdNs         int64   `json:"cold_ns"`
	WarmNs         int64   `json:"warm_ns"`
	ParallelNs     int64   `json:"parallel_ns"`
	WarmFracOfCold float64 `json:"warm_frac_of_cold"`
	CacheHits      int     `json:"cache_hits"`
	CompileJobs    int     `json:"compile_jobs"`
	CalibNs        int64   `json:"calib_ns"`
}

// FleetBench is BENCH_fleet.json: the sharded-serving scaling curve.
// Packets-per-second figures are wall-clock (gate-compared in
// calibration units); ScalingEfficiency is pps at 4 shards over 4x the
// single-shard pps, so 1.0 is linear scaling. Efficiency depends on the
// host's core count — GoMaxProcs records what the baseline had — and
// the gate treats the committed value as a floor: a machine with more
// cores only beats it.
type FleetBench struct {
	Bench             string  `json:"bench"`
	Backend           string  `json:"backend"`
	Packets           int     `json:"packets"`
	GoMaxProcs        int     `json:"gomaxprocs"`
	PPS1              float64 `json:"pps_1shard"`
	PPS2              float64 `json:"pps_2shards"`
	PPS4              float64 `json:"pps_4shards"`
	ScalingEfficiency float64 `json:"scaling_efficiency"`
	CalibNs           int64   `json:"calib_ns"`
}

// OverloadBench is BENCH_overload.json: the overload soak's quality
// envelope at 3x measured capacity with a shard killed every 50
// packets. AcceptedGoodput and the zero-violation invariants are
// asserted at measurement time; the gate re-checks goodput as a hard
// floor and compares capacity (calibration units) and the p99 cycle
// bucket against the baseline. ShedFraction is self-normalizing — the
// offered rate scales with the measured capacity — and gets a hard
// ceiling rather than a baseline-relative band.
type OverloadBench struct {
	Bench           string  `json:"bench"`
	Backend         string  `json:"backend"`
	Packets         int     `json:"packets"`
	CapacityPPS     float64 `json:"capacity_pps"`
	AcceptedGoodput float64 `json:"accepted_goodput"`
	ShedFraction    float64 `json:"shed_fraction"`
	P99Cycles       int64   `json:"p99_cycles"`
	CalibNs         int64   `json:"calib_ns"`
}

// measureOverload runs the overload soak once and asserts on the spot
// the properties that make the numbers meaningful: exact conservation,
// zero per-flow order violations, zero drops (transient kills with
// redelivery), and actual chaos (respawns happened).
func measureOverload(packets int, backend machine.Backend) *OverloadBench {
	res, err := clack.BuildRouter(clack.Variant{})
	if err != nil {
		fail(err)
	}
	res.Backend = backend
	rep, err := clack.ServeOverload(res, clack.OverloadSpec{
		Packets:   packets,
		Shards:    3,
		Multiple:  3,
		KillEvery: 50,
	})
	if err != nil {
		fail(err)
	}
	if !rep.ConservationOK {
		fail(fmt.Errorf("overload bench: conservation broken (submitted %d, served %d, dropped %d, shed %d)",
			rep.Submitted, rep.Served, rep.Dropped, rep.ShedTotal))
	}
	if rep.OrderViolations != 0 {
		fail(fmt.Errorf("overload bench: %d per-flow order violations", rep.OrderViolations))
	}
	if rep.Dropped != 0 {
		fail(fmt.Errorf("overload bench: %d batches dropped despite redelivery", rep.Dropped))
	}
	if rep.Respawns == 0 {
		fail(fmt.Errorf("overload bench: no respawns — the soak exercised nothing"))
	}
	return &OverloadBench{
		Bench:           "overload",
		Backend:         backend.String(),
		Packets:         packets,
		CapacityPPS:     rep.CapacityPPS,
		AcceptedGoodput: rep.AcceptedGoodput,
		ShedFraction:    rep.ShedFraction,
		P99Cycles:       rep.P99Cycles,
		CalibNs:         calibrate(),
	}
}

// runOverloadBench is knitbench -overload: print the soak's quality
// envelope for the current host, on the backend chosen with -backend.
func runOverloadBench(packets int, backend machine.Backend) {
	fmt.Println("== Overload soak: 3x capacity, kill every 50, admission + breakers + redelivery ==")
	ob := measureOverload(packets, backend)
	fmt.Printf("   %d packets, %s backend, capacity %.0f pps (host calib %v)\n",
		ob.Packets, ob.Backend, ob.CapacityPPS, time.Duration(ob.CalibNs))
	fmt.Printf("   accepted goodput %.4f (floor 0.99), shed fraction %.4f, p99 %d cycles\n\n",
		ob.AcceptedGoodput, ob.ShedFraction, ob.P99Cycles)
}

// measureFleet benchmarks sharded serving at 1, 2, and 4 shards over
// the same flow traffic (fastest of benchRounds each), asserting on
// every run the properties the fleet exists to provide: full packet
// accounting and zero per-flow order violations.
func measureFleet(packets int, backend machine.Backend) *FleetBench {
	res, err := clack.BuildRouter(clack.Variant{})
	if err != nil {
		fail(err)
	}
	res.Backend = backend
	spec := clack.DefaultFlowTraffic(packets)
	pps := map[int]float64{}
	for _, shards := range []int{1, 2, 4} {
		best := time.Duration(1) << 62
		for r := 0; r < benchRounds; r++ {
			start := time.Now()
			rep, err := clack.ServeFleet(res, spec, shards, nil, nil, 0)
			if err != nil {
				fail(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			if rep.Goodput != 1.0 || rep.OrderViolations != 0 || !rep.Converged {
				fail(fmt.Errorf("fleet bench %d shards: goodput %.4f, %d order violations, converged=%v",
					shards, rep.Goodput, rep.OrderViolations, rep.Converged))
			}
		}
		pps[shards] = float64(packets) / best.Seconds()
	}
	return &FleetBench{
		Bench:             "fleet",
		Backend:           backend.String(),
		Packets:           packets,
		GoMaxProcs:        runtime.GOMAXPROCS(0),
		PPS1:              pps[1],
		PPS2:              pps[2],
		PPS4:              pps[4],
		ScalingEfficiency: pps[4] / (4 * pps[1]),
		CalibNs:           calibrate(),
	}
}

// runFleetBench is knitbench -fleet: print the pps-vs-shards scaling
// curve for the current host, on the backend chosen with -backend.
func runFleetBench(packets int, backend machine.Backend) {
	fmt.Println("== Fleet scaling: sharded router serving, one shared image ==")
	fb := measureFleet(packets, backend)
	fmt.Printf("   %d packets, %s backend, GOMAXPROCS %d, host calib %v\n",
		fb.Packets, fb.Backend, fb.GoMaxProcs, time.Duration(fb.CalibNs))
	for _, p := range []struct {
		shards int
		pps    float64
	}{{1, fb.PPS1}, {2, fb.PPS2}, {4, fb.PPS4}} {
		fmt.Printf("   %d shards: %9.0f packets/sec  (x%.2f vs 1 shard)\n",
			p.shards, p.pps, p.pps/fb.PPS1)
	}
	fmt.Printf("   scaling efficiency at 4 shards: %.2f (1.0 = linear; needs >= 4 cores to approach it)\n\n",
		fb.ScalingEfficiency)
}

// calibrate times a fixed xorshift loop — a pure-CPU workload that does
// not touch this repository's code — taking the fastest of three runs.
// The gate divides wall metrics by it to factor out machine speed.
func calibrate() int64 {
	best := int64(1) << 62
	var sink uint64
	for r := 0; r < 3; r++ {
		start := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			sink += x
		}
		if d := time.Since(start).Nanoseconds(); d < best {
			best = d
		}
	}
	if sink == 42 { // defeat dead-code elimination
		fmt.Fprintln(os.Stderr, "calibration sink hit")
	}
	return best
}

const benchRounds = 5

// measureRouter benchmarks the modular Clack router on both execution
// backends: deterministic cycles per packet, wall-clock packets per
// second (fastest of benchRounds each), the interp-vs-compiled wall
// speedup, and the instrumented-vs-uninstrumented overhead of an
// attached observe.Collector.
func measureRouter(packets int) *RouterBench {
	res, err := clack.BuildRouter(clack.Variant{})
	if err != nil {
		fail(err)
	}
	resC, err := clack.BuildRouter(clack.Variant{})
	if err != nil {
		fail(err)
	}
	resC.Backend = machine.BackendCompiled
	spec := clack.DefaultTraffic(packets)

	run := func(r *build.Result, prep func(*machine.M)) (*clack.Measurement, time.Duration) {
		var meas *clack.Measurement
		best := time.Duration(1) << 62
		for i := 0; i < benchRounds; i++ {
			start := time.Now()
			m, err := clack.RunRouterWith(r, spec, prep)
			if err != nil {
				fail(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
			meas = m
		}
		return meas, best
	}

	meas, plain := run(res, nil)
	instrumented, traced := run(res, func(m *machine.M) {
		c := observe.Attach(m)
		c.Trace(1024)
	})
	// Attaching the collector must not change the simulated machine.
	if instrumented.CyclesPerPk != meas.CyclesPerPk {
		fail(fmt.Errorf("observe collector changed the simulation: %.0f vs %.0f cycles/packet",
			instrumented.CyclesPerPk, meas.CyclesPerPk))
	}
	measC, compiled := run(resC, nil)
	// The compiled backend is faster wall-clock but cycle-cheaper only
	// by the fetch model: packet outcomes must be identical.
	if measC.Forwarded != meas.Forwarded || measC.Dropped != meas.Dropped {
		fail(fmt.Errorf("backends disagree on packet outcomes: interp fwd=%d drop=%d, compiled fwd=%d drop=%d",
			meas.Forwarded, meas.Dropped, measC.Forwarded, measC.Dropped))
	}

	pps := float64(meas.Packets) / plain.Seconds()
	ppsC := float64(measC.Packets) / compiled.Seconds()
	return &RouterBench{
		Bench:                   "router",
		Packets:                 packets,
		CyclesPerPacket:         meas.CyclesPerPk,
		PacketsPerSec:           pps,
		ObserveOverheadPct:      100 * (traced.Seconds() - plain.Seconds()) / plain.Seconds(),
		CompiledCyclesPerPacket: measC.CyclesPerPk,
		CompiledPacketsPerSec:   ppsC,
		CompiledSpeedup:         ppsC / pps,
		CalibNs:                 calibrate(),
	}
}

// measureBuildTime benchmarks the build pipeline on the Clack router:
// cold (empty compile cache), warm (fully cached), and parallel cold
// builds, fastest of benchRounds each.
func measureBuildTime() *BuildTimeBench {
	jobs := runtime.GOMAXPROCS(0)
	cold := time.Duration(1) << 62
	warm := cold
	par := cold
	var hits, cjobs int
	for r := 0; r < benchRounds; r++ {
		cache := build.NewCache()
		withCache := func(o *build.Options) { o.Cache = cache; o.Parallelism = 1 }
		start := time.Now()
		if _, err := clack.BuildRouterTuned(clack.Variant{}, withCache); err != nil {
			fail(err)
		}
		if d := time.Since(start); d < cold {
			cold = d
		}
		start = time.Now()
		resWarm, err := clack.BuildRouterTuned(clack.Variant{}, withCache)
		if err != nil {
			fail(err)
		}
		if d := time.Since(start); d < warm {
			warm = d
		}
		hits, cjobs = resWarm.Timings.CacheHits, resWarm.Timings.CompileJobs
		start = time.Now()
		if _, err := clack.BuildRouterTuned(clack.Variant{},
			func(o *build.Options) { o.Parallelism = jobs }); err != nil {
			fail(err)
		}
		if d := time.Since(start); d < par {
			par = d
		}
	}
	return &BuildTimeBench{
		Bench:          "buildtime",
		ColdNs:         cold.Nanoseconds(),
		WarmNs:         warm.Nanoseconds(),
		ParallelNs:     par.Nanoseconds(),
		WarmFracOfCold: float64(warm) / float64(cold),
		CacheHits:      hits,
		CompileJobs:    cjobs,
		CalibNs:        calibrate(),
	}
}

// runObserve is knitbench -observe: the instrumentation overhead
// benchmark on the clack router hot path (target <5%).
func runObserve(packets int) {
	fmt.Println("== Observability overhead: clack router, collector attached vs not ==")
	rb := measureRouter(packets)
	fmt.Printf("   %d packets, %.0f cycles/packet (identical instrumented and not)\n",
		rb.Packets, rb.CyclesPerPacket)
	fmt.Printf("   uninstrumented throughput %.0f packets/sec (host calib %v)\n",
		rb.PacketsPerSec, time.Duration(rb.CalibNs))
	verdict := "PASS (< 5%)"
	if rb.ObserveOverheadPct >= 5 {
		verdict = "ABOVE the 5% target"
	}
	fmt.Printf("   collector+tracer overhead %+.2f%% — %s\n\n", rb.ObserveOverheadPct, verdict)
}

// runJSON is knitbench -json: write BENCH_router.json and
// BENCH_buildtime.json into outDir for the CI gate and baselines.
func runJSON(outDir string, packets int) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fail(err)
	}
	rb := measureRouter(packets)
	bb := measureBuildTime()
	fb := measureFleet(packets, machine.BackendInterp)
	ob := measureOverload(packets, machine.BackendInterp)
	writeBench(filepath.Join(outDir, "BENCH_router.json"), rb)
	writeBench(filepath.Join(outDir, "BENCH_buildtime.json"), bb)
	writeBench(filepath.Join(outDir, "BENCH_fleet.json"), fb)
	writeBench(filepath.Join(outDir, "BENCH_overload.json"), ob)
	fmt.Printf("knitbench: wrote BENCH_router.json, BENCH_buildtime.json, BENCH_fleet.json, BENCH_overload.json in %s\n", outDir)
	fmt.Printf("  router: %.0f cycles/packet, %.0f packets/sec, observe overhead %+.2f%%\n",
		rb.CyclesPerPacket, rb.PacketsPerSec, rb.ObserveOverheadPct)
	fmt.Printf("  router compiled: %.0f cycles/packet (no fetch model), %.0f packets/sec (x%.2f vs interp)\n",
		rb.CompiledCyclesPerPacket, rb.CompiledPacketsPerSec, rb.CompiledSpeedup)
	fmt.Printf("  buildtime: cold %v, warm %v (%.1f%% of cold), parallel %v, cache %d/%d\n",
		time.Duration(bb.ColdNs), time.Duration(bb.WarmNs), 100*bb.WarmFracOfCold,
		time.Duration(bb.ParallelNs), bb.CacheHits, bb.CompileJobs)
	fmt.Printf("  fleet: %.0f pps @1 shard, %.0f @2, %.0f @4 (efficiency %.2f, GOMAXPROCS %d)\n",
		fb.PPS1, fb.PPS2, fb.PPS4, fb.ScalingEfficiency, fb.GoMaxProcs)
	fmt.Printf("  overload: capacity %.0f pps, goodput %.4f, shed %.4f, p99 %d cycles\n",
		ob.CapacityPPS, ob.AcceptedGoodput, ob.ShedFraction, ob.P99Cycles)
}

func writeBench(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fail(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		fail(err)
	}
}

func readBench[T any](path string) *T {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		fail(fmt.Errorf("%s: %w", path, err))
	}
	return v
}

// runGate is knitbench -gate: re-measure and compare against the
// committed baselines in baseDir, failing on a regression beyond tol
// (e.g. 0.25 = 25%). Deterministic metrics (simulated cycles per
// packet) compare directly; wall-clock metrics are normalized by each
// measurement's calibration so a slower CI host is not a regression.
func runGate(baseDir string, tol float64, packets int) {
	baseR := readBench[RouterBench](filepath.Join(baseDir, "BENCH_router.json"))
	baseB := readBench[BuildTimeBench](filepath.Join(baseDir, "BENCH_buildtime.json"))
	baseF := readBench[FleetBench](filepath.Join(baseDir, "BENCH_fleet.json"))
	baseO := readBench[OverloadBench](filepath.Join(baseDir, "BENCH_overload.json"))
	rb := measureRouter(packets)
	bb := measureBuildTime()
	fb := measureFleet(packets, machine.BackendInterp)
	ob := measureOverload(packets, machine.BackendInterp)

	var failures []string
	check := func(name string, current, baseline float64, lowerIsBetter bool) {
		var regressed bool
		var delta float64
		if lowerIsBetter {
			delta = current/baseline - 1
			regressed = current > baseline*(1+tol)
		} else {
			delta = 1 - current/baseline
			regressed = current < baseline*(1-tol)
		}
		verdict := "ok"
		if regressed {
			verdict = fmt.Sprintf("REGRESSED beyond %.0f%%", 100*tol)
			failures = append(failures, name)
		}
		fmt.Printf("  %-28s baseline %12.1f  current %12.1f  (%+.1f%%)  %s\n",
			name, baseline, current, 100*delta, verdict)
	}

	fmt.Printf("knitbench gate: tolerance %.0f%%, host calib %v (baseline %v)\n",
		100*tol, time.Duration(rb.CalibNs), time.Duration(baseR.CalibNs))
	// Simulated cycles are deterministic: no calibration needed.
	check("router cycles/packet", rb.CyclesPerPacket, baseR.CyclesPerPacket, true)
	// Throughput normalized to packets per calibration interval:
	// multiplying by the host's calibration time cancels machine speed
	// from both sides.
	check("router packets/calib",
		rb.PacketsPerSec*float64(rb.CalibNs)/1e9, baseR.PacketsPerSec*float64(baseR.CalibNs)/1e9, false)
	// The compiled backend's own deterministic cycles and calibrated
	// throughput, each against its own baseline — never cross-backend.
	check("compiled cycles/packet", rb.CompiledCyclesPerPacket, baseR.CompiledCyclesPerPacket, true)
	check("compiled packets/calib",
		rb.CompiledPacketsPerSec*float64(rb.CalibNs)/1e9,
		baseR.CompiledPacketsPerSec*float64(baseR.CalibNs)/1e9, false)
	// The speedup is a same-host ratio, so it gets a hard floor rather
	// than a baseline-relative tolerance: the compiled backend must stay
	// at least 5x the interpreter on the router workload.
	fmt.Printf("  %-28s floor %19.1f  current %12.1f\n", "compiled speedup (x)", 5.0, rb.CompiledSpeedup)
	if rb.CompiledSpeedup < 5.0 {
		failures = append(failures, "compiled speedup below 5x")
	}
	// Build times in calibration units.
	check("warm build (calib units)",
		float64(bb.WarmNs)/float64(bb.CalibNs), float64(baseB.WarmNs)/float64(baseB.CalibNs), true)
	check("cold build (calib units)",
		float64(bb.ColdNs)/float64(bb.CalibNs), float64(baseB.ColdNs)/float64(baseB.CalibNs), true)
	// Fleet throughput in calibration units, like the router's. The
	// efficiency check is a floor: the committed baseline records its
	// GOMAXPROCS, and any host with at least that many cores should meet
	// it — a drop beyond tolerance means the sharding machinery itself
	// regressed (lock contention, lost batching), not the host.
	check("fleet pps@1 shard (calib)",
		fb.PPS1*float64(fb.CalibNs)/1e9, baseF.PPS1*float64(baseF.CalibNs)/1e9, false)
	check("fleet pps@4 shards (calib)",
		fb.PPS4*float64(fb.CalibNs)/1e9, baseF.PPS4*float64(baseF.CalibNs)/1e9, false)
	// Scaling efficiency measures parallel speedup, which a single-core
	// run cannot express: with GOMAXPROCS=1 the shard goroutines
	// time-slice one core and the curve is flat by construction (the
	// measured value is dominated by scheduler noise). On such runs the
	// leg is advisory — printed, never failing — while the pps legs
	// above stay hard: a batching or balancing regression shows up in
	// them even on one core.
	if fb.GoMaxProcs <= 1 || runtime.GOMAXPROCS(0) <= 1 {
		fmt.Printf("  %-28s baseline %12.1f  current %12.1f  (%+.1f%%)  advisory: GOMAXPROCS=1 cannot scale\n",
			"fleet scaling efficiency", baseF.ScalingEfficiency, fb.ScalingEfficiency,
			100*(fb.ScalingEfficiency/baseF.ScalingEfficiency-1))
	} else {
		check("fleet scaling efficiency", fb.ScalingEfficiency, baseF.ScalingEfficiency, false)
	}

	// Overload soak. Accepted goodput is a hard floor, not
	// baseline-relative: the overload layer's contract is finishing what
	// it admits, on any host. Capacity rides the same calibration
	// normalization as the other throughput legs; the p99 cycle bucket is
	// simulated and compares directly. Shed fraction gets a hard ceiling —
	// offered load scales with measured capacity, so the fraction is
	// self-normalizing, and the conservation/order/drop invariants were
	// already asserted inside the measurement.
	fmt.Printf("  %-28s floor %19.2f  current %12.4f\n", "overload accepted goodput", 0.99, ob.AcceptedGoodput)
	if ob.AcceptedGoodput < 0.99 {
		failures = append(failures, "overload accepted goodput below 0.99")
	}
	check("overload capacity (calib)",
		ob.CapacityPPS*float64(ob.CalibNs)/1e9, baseO.CapacityPPS*float64(baseO.CalibNs)/1e9, false)
	check("overload p99 cycles", float64(ob.P99Cycles), float64(baseO.P99Cycles), true)
	fmt.Printf("  %-28s ceiling %17.2f  current %12.4f\n", "overload shed fraction", 0.5, ob.ShedFraction)
	if ob.ShedFraction > 0.5 {
		failures = append(failures, "overload shed fraction above 0.5")
	}

	if len(failures) > 0 {
		fail(fmt.Errorf("bench gate: regression in %v", failures))
	}
	fmt.Println("knitbench gate: PASS")
}
