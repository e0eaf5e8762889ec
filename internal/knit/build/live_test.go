package build

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"knit/internal/machine"
)

func loadMonitor(t *testing.T, res *Result, m *machine.M) *LoadedUnit {
	t.Helper()
	lu, err := res.LoadDynamic(m, DynamicUnit{
		Unit:      "MonitorU",
		UnitFiles: map[string]string{"mon.unit": dynMonitorUnits},
		Sources:   dynMonitorSources,
		Wiring:    map[string]string{"count": "count"},
		Check:     true,
	})
	if err != nil {
		t.Fatalf("LoadDynamic monitor: %v", err)
	}
	return lu
}

// TestLiveViewFollowsRawRestore: the build layer reads which modules are
// live from the machine's module table, so a plain machine Restore —
// with no build-layer call at all — takes a module out of its view.
func TestLiveViewFollowsRawRestore(t *testing.T) {
	res := buildDynBase(t)
	m := res.NewMachine()
	if err := res.RunInit(m); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	mon := loadMonitor(t, res, m)
	path := mon.Instance.Path
	if res.InstanceByPath(m, path) == nil {
		t.Fatalf("loaded module %s not found by path", path)
	}

	m.Restore(snap)
	if inst := res.InstanceByPath(m, path); inst != nil {
		t.Errorf("InstanceByPath found %s after the restore removed it", inst.Path)
	}
	live := res.LiveProgram(m)
	if len(live.Instances) != len(res.Program.Instances) {
		t.Errorf("live program has %d instances after restore, want the %d static ones",
			len(live.Instances), len(res.Program.Instances))
	}
	for i, inst := range live.Instances {
		if i < len(res.Program.Instances) && inst != res.Program.Instances[i] {
			t.Errorf("live instance %d is %s, want static %s", i, inst.Path, res.Program.Instances[i].Path)
		}
	}
	if _, ok := live.Exports["mon"]; ok {
		t.Error("live program still exports the restored-away module's bundle")
	}
	if err := res.RestartScope(m, ""); err != nil {
		t.Errorf("whole-program restart after restore: %v", err)
	}

	again := loadMonitor(t, res, m)
	if err := again.Unload(m); err != nil {
		t.Errorf("Unload after reload: %v", err)
	}
	if mods := m.DynModules(); len(mods) != 0 {
		t.Errorf("modules left after unload: %v", mods)
	}
}

// backRef is a lifecycle observer that points back at its machine, as
// observe.Collector does.
type backRef struct{ m *machine.M }

func (b *backRef) LifecycleEvent(string, string) {}

// sentinel is large enough to get its own allocation: finalizers on
// tiny-allocator objects may never run.
type sentinel struct{ pad [64]byte }

// TestDroppedMachineIsCollected: a Result keeps nothing of the machines
// it serves, so a dropped machine — with its builtins, observer and
// dynamic modules — is garbage.
func TestDroppedMachineIsCollected(t *testing.T) {
	res := buildDynBase(t)
	snap, err := res.PostInitSnapshot(nil)
	if err != nil {
		t.Fatal(err)
	}
	var collected atomic.Bool
	func() {
		s := &sentinel{}
		runtime.SetFinalizer(s, func(*sentinel) { collected.Store(true) })
		m := res.NewMachineFrom(snap, true)
		m.RegisterBuiltin("__sentinel", func(*machine.M, []int64) (int64, error) {
			return int64(s.pad[0]), nil
		})
		res.SetObserver(m, &backRef{m: m})
		loadMonitor(t, res, m)
	}()
	for i := 0; i < 50 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Error("a dropped machine is still reachable from its Result")
	}
	runtime.KeepAlive(res)
}
