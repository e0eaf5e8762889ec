package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"knit/internal/clack"
	"knit/internal/cmini"
	"knit/internal/compile"
	"knit/internal/knit/assemble"
	"knit/internal/knit/build"
	"knit/internal/knit/flatten"
	"knit/internal/knit/link"
	"knit/internal/machine"
	"knit/internal/oskit"
)

// The two build workloads share one operation: a cold build of every
// corpus item, each on a fresh build.Cache with the default
// Parallelism, then an edit rebuild of every item on its own cache.
// base_ms is the cold pass, fast_ms the edit pass.
var buildRouterWorkload = workload{
	why: "the four Table 1 router variants: one large translation unit dominates compile, " +
		"so compiler and parallel-compile work shows on the cold pass and elaborate/cache work on the edit pass",
	setup:  setupRouterCorpus,
	op:     corpusOp,
	extras: corpusExtras,
}

var buildKitWorkload = workload{
	why: "the census kernel, three oskit kernels and a seeded sample of generated assemblies, " +
		"all constraint-checked: many small translation units, so checker and elaborator work shows",
	setup:  setupKitCorpus,
	op:     corpusOp,
	extras: corpusExtras,
}

// editSuffix is the edit of an edit rebuild: an unused static function
// appended to one source file. It changes that file's translation units
// and nothing else.
const editSuffix = "\nstatic int perfbench_edit(int x) { return x + 1; }\n"

// routerCheckPackets is the trace each built router forwards in its
// oracle; every variant must forward and drop the same packets.
const routerCheckPackets = 64

// corpusItem is one configuration the build workloads rebuild.
type corpusItem struct {
	name     string
	opts     build.Options // Cache is set per operation
	edited   link.Sources  // opts.Sources with editSuffix on editFile
	editFile string
	editTUs  int // translation units an edit rebuild must compile
	want     string
	behave   func(*build.Result) (string, error) // what the image does
}

// setupRouterCorpus builds each Table 1 variant once to capture its
// options and reference behaviour, then picks each variant's edited
// file from the seed.
func setupRouterCorpus(r *runner) error {
	rng := rand.New(rand.NewSource(r.seed))
	spec := clack.DefaultTraffic(routerCheckPackets)
	spec.Seed = r.seed
	streams := spec.Generate()
	behave := func(res *build.Result) (string, error) {
		f, err := forward(nil, res, streams, routerCheckPackets)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("rx=%v tx=%v dropped=%d ttl-ok=%d", f.stats.Rx, f.stats.Tx,
			f.stats.Dropped, f.stats.TxTTLOK), nil
	}
	var c []*corpusItem
	for _, v := range []clack.Variant{{}, {HandOptimized: true}, {Flattened: true},
		{HandOptimized: true, Flattened: true}} {
		var opts build.Options
		res, err := clack.BuildRouterTuned(v, func(o *build.Options) { opts = *o })
		if err != nil {
			return fmt.Errorf("router %s: %w", v, err)
		}
		it := &corpusItem{name: v.String(), opts: opts, behave: behave}
		if err := it.prepare(rng, res); err != nil {
			return err
		}
		// Table 1's variants differ in speed, never in what they forward.
		if len(c) > 0 && it.want != c[0].want {
			return fmt.Errorf("router %s forwards %s, modular forwards %s", it.name, it.want, c[0].want)
		}
		c = append(c, it)
	}
	r.state = c
	return nil
}

// setupKitCorpus generates the kit corpus: the census kernel, three
// kernels, and a seeded sample of the assemblies enumerated from the
// committed satisfiable goals; it also checks that the unsatisfiable
// goal still refuses.
func setupKitCorpus(r *runner) error {
	rng := rand.New(rand.NewSource(r.seed))
	var c []*corpusItem
	add := func(name string, opts build.Options, known string) error {
		opts.Check = true
		res, err := build.Build(opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		it := &corpusItem{name: name, opts: opts, behave: behaviour}
		if err := it.prepare(rng, res); err != nil {
			return err
		}
		if !strings.Contains(it.want, known) {
			return fmt.Errorf("%s: behaviour lacks %q:\n%s", name, known, it.want)
		}
		c = append(c, it)
		return nil
	}

	units, sources, top := oskit.CensusKernel(100, 35)
	if err := add("census", build.Options{Top: top,
		UnitFiles: map[string]string{"census.unit": units}, Sources: sources},
		"run e0.f0[] = 99, ok"); err != nil {
		return err
	}
	repo := oskit.Repository()
	for _, k := range []struct{ top, known string }{
		{"HelloKernel", `console: "hello from the oskit: 3\n"`},
		{"FsKernel", `console: "total=`},
		{"BigKernel", "ops=3"},
	} {
		if err := add(k.top, build.Options{Top: k.top, UnitFiles: repo.UnitFiles,
			Sources: repo.Sources}, k.known); err != nil {
			return err
		}
	}

	start := time.Now()
	perGoal, err := enumerateGoals(repo)
	if err != nil {
		return err
	}
	if r.traceOn {
		r.sample("assemble.enumerate_ms", "ms", ms(time.Since(start)))
	}
	// The sample is stratified by goal, so every seed builds the same mix
	// of small and large assemblies.
	for _, asms := range perGoal {
		for _, i := range rng.Perm(len(asms))[:min(perGoalSample, len(asms))] {
			a := asms[i]
			files := map[string]string{"__assembly.unit": a.Text}
			for k, v := range repo.UnitFiles {
				files[k] = v
			}
			if err := add(fmt.Sprintf("%s#%d", a.Goal.Name, i), build.Options{Top: a.Name, UnitFiles: files,
				Sources: repo.Sources}, "init: ok"); err != nil {
				return err
			}
		}
	}
	r.state = c
	return nil
}

// perGoalEnumerate is how many assemblies set-up enumerates per goal,
// cheapest first; perGoalSample of them join the kit corpus.
const (
	perGoalEnumerate = 4
	perGoalSample    = 2
)

// goalDir holds the committed goal specs.
var goalDir = filepath.Join("examples", "assemble", "src")

// enumerateGoals enumerates every committed satisfiable goal, in file
// order, and checks that badirq.goal still refuses with the §4 context
// constraint named.
func enumerateGoals(repo assemble.Repo) ([][]*assemble.Assembly, error) {
	paths, err := filepath.Glob(filepath.Join(goalDir, "*.goal"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no goal specs under %s: %v", goalDir, err)
	}
	sort.Strings(paths)
	var out [][]*assemble.Assembly
	refused := false
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		g, err := assemble.ParseGoal(filepath.Base(path), string(data))
		if err != nil {
			return nil, err
		}
		asms, err := assemble.Enumerate(repo, g, perGoalEnumerate,
			assemble.Options{RankPool: perGoalEnumerate, RawBudget: 64})
		var unsat *assemble.UnsatError
		if filepath.Base(path) == "badirq.goal" {
			if !errors.As(err, &unsat) || unsat.Violation == nil || unsat.Violation.Var.Prop != "context" {
				return nil, fmt.Errorf("badirq.goal no longer refuses on the context constraint: %v", err)
			}
			refused = true
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, asms)
	}
	if !refused {
		return nil, fmt.Errorf("no badirq.goal under %s", goalDir)
	}
	return out, nil
}

// prepare records the item's reference behaviour from res, picks the
// edited file from rng, and counts the translation units an edit of
// that file must recompile: one per modular instance using it, plus the
// flattened region if any instance in the region uses it.
//
// The candidates are the C sources of the instances FlattenFilter
// admits (all instances when it is nil): for the router, the Click
// elements, not RouterDriver or the generated OS-work unit. An edit of
// the OS-work file recompiles the translation unit that is most of the
// cold pass, so letting the seed pick it would make fast_ms a different
// measurement on different seeds.
func (it *corpusItem) prepare(rng *rand.Rand, res *build.Result) error {
	want, err := it.behave(res)
	if err != nil {
		return fmt.Errorf("%s: reference run: %w", it.name, err)
	}
	it.want = want
	inRegion := func(inst *link.Instance) bool {
		return it.opts.Flatten && (it.opts.FlattenFilter == nil || it.opts.FlattenFilter(inst))
	}
	used := map[string]bool{}
	for _, inst := range res.Program.SortedInstances() {
		if it.opts.FlattenFilter != nil && !it.opts.FlattenFilter(inst) {
			continue
		}
		for _, f := range inst.Files {
			used[f.Name] = true
		}
	}
	if len(used) == 0 {
		return fmt.Errorf("%s: no C source to edit", it.name)
	}
	names := make([]string, 0, len(used))
	for n := range used {
		names = append(names, n)
	}
	sort.Strings(names)
	it.editFile = names[rng.Intn(len(names))]
	regionHit := false
	for _, inst := range res.Program.SortedInstances() {
		for _, f := range inst.Files {
			if f.Name != it.editFile {
				continue
			}
			if inRegion(inst) {
				regionHit = true
			} else {
				it.editTUs++
			}
		}
	}
	if regionHit {
		it.editTUs++
	}
	it.edited = link.Sources{}
	for k, v := range it.opts.Sources {
		it.edited[k] = v
	}
	it.edited[it.editFile] += editSuffix
	return nil
}

// tracedBuild calls build.Build under a build.Build span whose children
// are the phases build.Result.Timings reports.
func tracedBuild(r *runner, opts build.Options) (*build.Result, error) {
	id := r.tr.begin("build.Build", -1)
	res, err := build.Build(opts)
	r.tr.end(id)
	if err != nil || r.tr == nil {
		return res, err
	}
	var off time.Duration
	t := res.Timings
	for _, p := range []struct {
		name string
		d    time.Duration
	}{
		{"lang.parse", t.Parse}, {"link.elaborate", t.Elaborate}, {"constraint.check", t.Check},
		{"sched.schedule", t.Schedule}, {"flatten.merge", t.Flatten}, {"compile.compile", t.Compile},
		{"ldlink.link", t.Link}, {"machine.load", t.Load},
	} {
		r.tr.child(p.name, id, off, p.d, false)
		off += p.d
	}
	return res, nil
}

// corpusOp is one corpus pass: cold builds, then edit rebuilds, then
// the oracles.
func corpusOp(r *runner, _ int) (cold, edit time.Duration, err error) {
	c := r.state.([]*corpusItem)
	n := len(c)
	caches := make([]*build.Cache, n)
	coldRes := make([]*build.Result, n)
	editRes := make([]*build.Result, n)
	var mem0, mem1, mem2 runtime.MemStats
	if r.tr != nil {
		runtime.ReadMemStats(&mem0)
	}

	start := time.Now()
	for i, it := range c {
		caches[i] = build.NewCache()
		opts := it.opts
		opts.Cache = caches[i]
		if coldRes[i], err = tracedBuild(r, opts); err != nil {
			return 0, 0, fmt.Errorf("cold build %s: %w", it.name, err)
		}
	}
	cold = time.Since(start)
	if r.tr != nil {
		runtime.ReadMemStats(&mem1)
	}
	start = time.Now()
	for i, it := range c {
		opts := it.opts
		opts.Cache = caches[i]
		opts.Sources = it.edited
		if editRes[i], err = tracedBuild(r, opts); err != nil {
			return 0, 0, fmt.Errorf("edit rebuild %s: %w", it.name, err)
		}
	}
	edit = time.Since(start)
	if r.tr != nil {
		runtime.ReadMemStats(&mem2)
	}

	for i, it := range c {
		if h := coldRes[i].Timings.CacheHits; h != 0 {
			return 0, 0, fmt.Errorf("%s: cold build hit the fresh cache %d times", it.name, h)
		}
		t := editRes[i].Timings
		if miss := t.CompileJobs - t.CacheHits; miss != it.editTUs {
			return 0, 0, fmt.Errorf("%s: editing %s recompiled %d of %d translation units, want %d",
				it.name, it.editFile, miss, t.CompileJobs, it.editTUs)
		}
		for _, res := range []*build.Result{coldRes[i], editRes[i]} {
			got, err := it.behave(res)
			if err != nil {
				return 0, 0, fmt.Errorf("%s: run: %w", it.name, err)
			}
			if got != it.want {
				return 0, 0, fmt.Errorf("%s: image behaves as\n%s\nwant\n%s", it.name, got, it.want)
			}
		}
	}

	if r.tr != nil {
		var sum build.Timings
		var text int64
		var buildWall time.Duration
		for _, s := range r.tr.spans {
			if s.Op == r.tr.op && s.Name == "build.Build" {
				buildWall += time.Duration(s.End - s.Start)
			}
		}
		for i := range c {
			sum.Add(coldRes[i].Timings)
			sum.Add(editRes[i].Timings)
			text += coldRes[i].Image.TextSize
		}
		var jobs, hits int
		for _, res := range editRes {
			jobs += res.Timings.CompileJobs
			hits += res.Timings.CacheHits
		}
		r.sample("lang.parse_ms", "ms", ms(sum.Parse))
		r.sample("link.elaborate_ms", "ms", ms(sum.Elaborate))
		r.sample("constraint.check_ms", "ms", ms(sum.Check))
		r.sample("sched.schedule_ms", "ms", ms(sum.Schedule))
		r.sample("flatten.merge_ms", "ms", ms(sum.Flatten))
		r.sample("compile.compile_ms", "ms", ms(sum.Compile))
		r.sample("ldlink.link_ms", "ms", ms(sum.Link))
		r.sample("machine.load_ms", "ms", ms(sum.Load))
		r.sample("build.self_ms", "ms", ms(buildWall-sum.Total()))
		r.sample("compile.jobs", "count", float64(jobs-hits))
		r.sample("build.cache_hit_ratio", "ratio", float64(hits)/float64(jobs))
		r.sample("compile.text_bytes", "bytes", float64(text))
		r.sample("go.alloc_mb_per_pass", "MB", float64(mem2.TotalAlloc-mem0.TotalAlloc)/(1<<20))
		r.sample("go.heap_peak_mb", "MB", float64(max(heapHeld(&mem1), heapHeld(&mem2)))/(1<<20))
	}
	return cold, edit, nil
}

// heapHeld is the heap memory the runtime holds from the OS.
func heapHeld(m *runtime.MemStats) uint64 { return m.HeapSys - m.HeapReleased }

// extrasRounds is how many times a traced run repeats its extras.
const extrasRounds = 3

// corpusExtras measures what a corpus pass cannot show without being
// distorted: each translation unit's compile time, compiled alone, and
// a serial cold build next to a default-parallelism one.
func corpusExtras(r *runner) error {
	c := r.state.([]*corpusItem)
	for round := 0; round < extrasRounds; round++ {
		var serial, parallel, largest, total time.Duration
		for _, it := range c {
			opts := it.opts
			opts.Cache = build.NewCache()
			opts.Parallelism = 1
			res, err := build.Build(opts)
			if err != nil {
				return fmt.Errorf("serial build %s: %w", it.name, err)
			}
			serial += res.Timings.Compile
			opts.Cache = build.NewCache()
			opts.Parallelism = 0
			res, err = build.Build(opts)
			if err != nil {
				return fmt.Errorf("parallel build %s: %w", it.name, err)
			}
			parallel += res.Timings.Compile
			tus, err := compileEachTU(it.opts, res.Program)
			if err != nil {
				return fmt.Errorf("%s: %w", it.name, err)
			}
			var sum time.Duration
			top := tus[0]
			for _, tu := range tus {
				sum += tu.d
				if tu.d > top.d {
					top = tu
				}
			}
			largest += top.d
			total += sum
			if round == 0 {
				fmt.Printf("  %-28s %3d TUs, largest %s = %.0f%% of %.2f ms serial compile\n",
					it.name, len(tus), top.label, 100*float64(top.d)/float64(sum), ms(sum))
			}
		}
		r.sample("compile.tu_max_share", "ratio", float64(largest)/float64(total))
		r.sample("compile.parallel_speedup", "ratio", float64(serial)/float64(parallel))
	}
	return nil
}

// tuTime is one translation unit's compile time.
type tuTime struct {
	label string
	d     time.Duration
}

// compileEachTU compiles each translation unit of prog alone, the way
// build.Build splits them: one per C file of every modular instance,
// plus the flattened region when opts flattens.
func compileEachTU(opts build.Options, prog *link.Program) ([]tuTime, error) {
	copts := compile.Options{Opt: opts.Optimize, InlineLimit: opts.InlineLimit,
		GrowthLimit: opts.GrowthLimit, DisableCSE: opts.DisableCSE}
	var region []*link.Instance
	var out []tuTime
	timeOne := func(label string, f *cmini.File) error {
		start := time.Now()
		if _, err := compile.Compile(f, copts); err != nil {
			return fmt.Errorf("compile %s: %w", label, err)
		}
		out = append(out, tuTime{label, time.Since(start)})
		return nil
	}
	for _, inst := range prog.SortedInstances() {
		if opts.Flatten && (opts.FlattenFilter == nil || opts.FlattenFilter(inst)) {
			region = append(region, inst)
			continue
		}
		for _, f := range inst.Files {
			if err := timeOne(inst.Path+"/"+f.Name, cmini.CloneFile(f)); err != nil {
				return nil, err
			}
		}
	}
	if len(region) > 0 {
		merged, err := flatten.Merge("flattened.c", region)
		if err != nil {
			return nil, err
		}
		if err := timeOne("flattened region", merged); err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no translation units")
	}
	return out, nil
}

// behaviourFuel bounds each entry point the oracle runs.
const behaviourFuel = 1 << 24

// behaviour runs a kit image the way the backend differential tests do:
// the init schedule, every exported function with small arguments, the
// finalizers, and the console, serial and instruction counters. Two
// images with equal behaviour strings are observationally the same.
func behaviour(res *build.Result) (string, error) {
	res = freshResult(res)
	m := res.NewMachine()
	m.Fuel = behaviourFuel
	con := machine.InstallConsole(m)
	ser := machine.InstallSerial(m)
	machine.InstallStopWatch(m)
	var b strings.Builder
	fmt.Fprintf(&b, "init: %s\n", errText(res.RunInit(m)))
	bundles := make([]string, 0, len(res.Program.Exports))
	for name := range res.Program.Exports {
		bundles = append(bundles, name)
	}
	sort.Strings(bundles)
	for _, bundle := range bundles {
		w := res.Program.Exports[bundle]
		syms := w.Provider.ExportSyms[w.Bundle]
		names := make([]string, 0, len(syms))
		for s := range syms {
			names = append(names, s)
		}
		sort.Strings(names)
		for _, s := range names {
			var args []int64
			if fn := m.Img.Entry[syms[s]]; fn != nil {
				args = make([]int64, fn.NArgs)
				for i := range args {
					args[i] = 3
				}
			}
			v, err := m.Run(syms[s], args...)
			fmt.Fprintf(&b, "run %s.%s%v = %d, %s\n", bundle, s, args, v, errText(err))
		}
	}
	fmt.Fprintf(&b, "fini: %s\n", errText(res.RunFini(m)))
	fmt.Fprintf(&b, "console: %q\nserial: %q\n", con.String(), ser.String())
	fmt.Fprintf(&b, "executed=%d calls=%d indcalls=%d builtins=%d", m.Executed, m.Calls, m.IndCalls, m.BuiltinCnt)
	return b.String(), nil
}

func errText(err error) string {
	if err == nil {
		return "ok"
	}
	return "error: " + err.Error()
}

// freshResult wraps a built image in a new build.Result. A Result keeps
// per-machine lifecycle state for every machine it has created and
// never drops it, so an operation that reused one Result would pay for
// every machine the operations before it made; each operation starts
// from a fresh one instead.
func freshResult(res *build.Result) *build.Result {
	return &build.Result{Program: res.Program, Schedule: res.Schedule, Object: res.Object,
		Image: res.Image, ConstraintReport: res.ConstraintReport, Timings: res.Timings,
		Backend: res.Backend}
}
