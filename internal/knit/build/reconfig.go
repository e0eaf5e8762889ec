package build

import (
	"fmt"

	"knit/internal/knit/lang"
	"knit/internal/knit/link"
	"knit/internal/machine"
)

// This file is the build layer's doorway for the live-reconfiguration
// engine (internal/knit/reconfigure). The planner and applier work in
// terms of elaborated link.Instances they wire themselves — against live
// instances, not just top-level exports — so they need lower-level
// entry points than LoadDynamic: a view of the whole live configuration,
// instance compilation, and a load step that takes an already-elaborated
// instance. They also need to keep the Result's per-machine bookkeeping
// truthful across snapshot-based rollbacks, which bypass Unload.

// LiveProgram returns the live configuration of machine m as a program:
// the static instances plus every module currently loaded on m, with
// the modules' exports merged over the static export table. The clone is
// independent of the Result's internals — elaborating against it cannot
// race with other machines loading concurrently.
func (r *Result) LiveProgram(m *machine.M) *link.Program {
	st := r.stateOf(m)
	live := &link.Program{
		Registry:  r.Program.Registry,
		Top:       r.Program.Top,
		Instances: append([]*link.Instance(nil), r.Program.Instances...),
		Exports:   map[string]*link.Wire{},
	}
	for name, w := range r.Program.Exports {
		live.Exports[name] = w
	}
	for _, prev := range st.loaded {
		live.Instances = append(live.Instances, prev)
		for name, w := range link.DynamicExports(prev) {
			live.Exports[name] = w
		}
	}
	return live
}

// ParseUnitFiles parses unit-definition files in deterministic
// (sorted-name) order, ready for link.NewRegistry.
func ParseUnitFiles(unitFiles map[string]string) ([]*lang.File, error) {
	return parseUnitFiles(unitFiles)
}

// LoadElaborated loads an already-elaborated instance onto m: compile,
// ship, run initializers. The caller did the elaboration (typically with
// link.ElaborateDynamicEnv against LiveProgram, so the instance's ID and
// renamed symbols are fresh for this machine) and any constraint
// checking. Like LoadDynamic, the operation is transactional — a load or
// initializer failure restores the machine and leaves zero residue —
// and the returned handle supports Unload.
func (r *Result) LoadElaborated(m *machine.M, inst *link.Instance) (*LoadedUnit, error) {
	st := r.stateOf(m)
	o, err := compileInstance(inst, r.copts)
	if err != nil {
		return nil, err
	}
	modName := fmt.Sprintf("%s#%d", inst.Path, inst.ID)
	snap := m.Snapshot()
	if err := m.LoadDynamicAs(modName, modName, o); err != nil {
		return nil, err
	}
	for _, ini := range inst.Inits {
		if ini.Finalizer {
			continue
		}
		_, err := m.Run(ini.GlobalName)
		r.event(m, modName, "init")
		if err != nil {
			m.Restore(snap)
			return nil, &LifecycleError{
				Op:         "dynamic-init",
				Unit:       modName,
				Func:       ini.Func,
				Global:     ini.GlobalName,
				Err:        err,
				RolledBack: true,
			}
		}
	}
	st.loaded = append(st.loaded, inst)
	return &LoadedUnit{Instance: inst, res: r, modName: modName}, nil
}

// ForgetModule drops the build-layer record of lu on m without touching
// the machine. It exists for snapshot-based rollbacks: machine.Restore
// makes post-snapshot modules vanish wholesale, and the Result's loaded
// list must follow or later elaborations would wire against ghosts.
func (r *Result) ForgetModule(m *machine.M, lu *LoadedUnit) {
	st := r.stateOf(m)
	for i, inst := range st.loaded {
		if inst == lu.Instance {
			st.loaded = append(st.loaded[:i], st.loaded[i+1:]...)
			return
		}
	}
}

// AdoptModule re-registers lu on m without touching the machine — the
// inverse of ForgetModule, for rollbacks that resurrect pre-snapshot
// modules the applier had retired via Unload. Idempotent.
func (r *Result) AdoptModule(m *machine.M, lu *LoadedUnit) {
	st := r.stateOf(m)
	for _, inst := range st.loaded {
		if inst == lu.Instance {
			return
		}
	}
	st.loaded = append(st.loaded, lu.Instance)
}

// Notify reports a lifecycle event for a unit instance on m to the
// machine's observer, if any — the reconfigure layer's hook into the
// same stream RunInit, restarts, and swaps feed.
func (r *Result) Notify(m *machine.M, instance, op string) {
	r.event(m, instance, op)
}
