package build_test

import (
	"fmt"
	"sync"
	"testing"

	"knit/internal/asm"
	"knit/internal/clack"
	"knit/internal/knit/build"
	"knit/internal/machine"
	"knit/internal/oskit"
)

// sharedCacheConfig is one program TestSharedCacheConcurrentBuilds
// builds: how to build it and what its image does on one backend.
type sharedCacheConfig struct {
	name  string
	build func(cache *build.Cache) (*build.Result, error)
	run   func(res *build.Result, backend machine.Backend) (string, error)
}

func sharedCacheConfigs() []sharedCacheConfig {
	runRouter := func(res *build.Result, backend machine.Backend) (string, error) {
		res.Backend = backend
		meas, err := clack.RunRouter(res, clack.DefaultTraffic(32))
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("forwarded %d dropped %d cycles/packet %.3f",
			meas.Forwarded, meas.Dropped, meas.CyclesPerPk), nil
	}
	var out []sharedCacheConfig
	for _, v := range []clack.Variant{{}, {HandOptimized: true}, {Flattened: true},
		{HandOptimized: true, Flattened: true}} {
		out = append(out, sharedCacheConfig{
			name: "router " + v.String(),
			build: func(cache *build.Cache) (*build.Result, error) {
				return clack.BuildRouterTuned(v, func(o *build.Options) { o.Cache = cache })
			},
			run: runRouter,
		})
	}
	out = append(out, sharedCacheConfig{
		name: "FsKernel",
		build: func(cache *build.Cache) (*build.Result, error) {
			return oskit.BuildKernel("FsKernel", build.Options{Optimize: true, Cache: cache})
		},
		run: func(res *build.Result, backend machine.Backend) (string, error) {
			res.Backend = backend
			m := res.NewMachine()
			con := machine.InstallConsole(m)
			machine.InstallSerial(m)
			machine.InstallStopWatch(m)
			v, err := res.Run(m, "main", "kmain", 20)
			return fmt.Sprintf("kmain(20) = %d, console %q, cycles %d", v, con.String(), m.Cycles), err
		},
	})
	return out
}

// TestSharedCacheConcurrentBuilds builds the four router variants and
// FsKernel, each twice, concurrently through one in-memory cache, so
// cached objects are shared by concurrent links and loads. Every object
// must match a build without a cache; every image must behave like it
// on both backends; and a fallback swap on one cache-built router must
// work. Under -race this checks that nothing mutates a shared object.
func TestSharedCacheConcurrentBuilds(t *testing.T) {
	backends := []machine.Backend{machine.BackendInterp, machine.BackendCompiled}
	configs := sharedCacheConfigs()
	wantObj := make([]string, len(configs))
	wantRun := make([][]string, len(configs))
	for i, c := range configs {
		res, err := c.build(nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		wantObj[i] = asm.Format(res.Object)
		for _, b := range backends {
			got, err := c.run(res, b)
			if err != nil {
				t.Fatalf("%s on %s: %v", c.name, b, err)
			}
			wantRun[i] = append(wantRun[i], got)
		}
	}

	cache := build.NewCache()
	const copies = 2
	errs := make([]error, copies*len(configs))
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(configs)
			errs[g] = checkSharedBuild(configs[i], cache, wantObj[i], wantRun[i], backends, g == 0)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("cache stats %+v: concurrent builds shared nothing", st)
	}
}

// checkSharedBuild builds c through cache and compares its object and
// its runs with the no-cache reference; with swap, it also swaps the
// router's Classifier for its fallback on a cache-built machine.
func checkSharedBuild(c sharedCacheConfig, cache *build.Cache, wantObj string, wantRun []string,
	backends []machine.Backend, swap bool) error {
	res, err := c.build(cache)
	if err != nil {
		return fmt.Errorf("%s: %w", c.name, err)
	}
	if asm.Format(res.Object) != wantObj {
		return fmt.Errorf("%s: object differs from the no-cache build", c.name)
	}
	for j, b := range backends {
		got, err := c.run(res, b)
		if err != nil {
			return fmt.Errorf("%s on %s: %w", c.name, b, err)
		}
		if got != wantRun[j] {
			return fmt.Errorf("%s on %s: %s, no-cache build %s", c.name, b, got, wantRun[j])
		}
	}
	if !swap {
		return nil
	}
	m := res.NewMachine()
	clack.InstallDevices(m, clack.DefaultTraffic(16).Generate())
	machine.InstallStopWatch(m)
	if err := res.RunInit(m); err != nil {
		return fmt.Errorf("%s: init: %w", c.name, err)
	}
	if _, err := res.SwapFallback(m, clack.FirstInstanceOf(res, "Classifier")); err != nil {
		return fmt.Errorf("%s: swap: %w", c.name, err)
	}
	if _, err := res.Run(m, "main", "kmain", 32); err != nil {
		return fmt.Errorf("%s: run after swap: %w", c.name, err)
	}
	return m.CheckDynInvariants()
}
