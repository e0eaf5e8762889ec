package build

import (
	"fmt"
	"sort"

	"knit/internal/knit/lang"
	"knit/internal/knit/link"
	"knit/internal/machine"
	"knit/internal/obj"
)

// This file holds the three steps every live re-composition is made of
// — the paper's §8 linking into a running system and its §2.3
// interposition, done on a live machine: load an elaborated instance
// as a module, Replace an instance by a loaded module, Release a module
// again. LoadDynamic, SwapFallback, the supervisor's brownout and the
// reconfiguration engine (internal/knit/reconfigure) are all built from
// them. Which modules are live is read from the machine's module table
// — each module carries its *link.Instance — so a snapshot Restore
// keeps the build layer's view correct by construction.

// liveModules returns the instances of the build-loaded modules live on
// m, in load order.
func liveModules(m *machine.M) []*link.Instance {
	var out []*link.Instance
	for _, data := range m.DynModuleData() {
		if inst, ok := data.(*link.Instance); ok {
			out = append(out, inst)
		}
	}
	return out
}

// LiveProgram returns the live configuration of machine m as a program:
// the static instances plus every module currently loaded on m, with
// the modules' exports merged over the static export table. The clone is
// independent of the Result's internals — elaborating against it cannot
// race with other machines loading concurrently.
func (r *Result) LiveProgram(m *machine.M) *link.Program {
	live := &link.Program{
		Registry:  r.Program.Registry,
		Top:       r.Program.Top,
		Instances: append([]*link.Instance(nil), r.Program.Instances...),
		Exports:   map[string]*link.Wire{},
	}
	for name, w := range r.Program.Exports {
		live.Exports[name] = w
	}
	for _, inst := range liveModules(m) {
		live.Instances = append(live.Instances, inst)
		for name, w := range link.DynamicExports(inst) {
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

// load is the one path that links an elaborated instance into m:
// compile it, load it as a module that carries inst in the machine's
// module table, and run its initializers. Any failure restores m to its
// state before the call; op names the operation a failing initializer
// reports.
func (r *Result) load(m *machine.M, inst *link.Instance, op string) (*LoadedUnit, error) {
	objs, _, err := runCompileJobs(appendFileJobs(nil, inst), r.copts, nil, 1)
	if err != nil {
		return nil, err
	}
	// Assembly objects link as-is after the compiled C files.
	o := obj.NewFile(inst.Path)
	for _, f := range append(objs, inst.Objects...) {
		obj.Append(o, f)
	}
	// The module name and attribution carry the instance ID so repeated
	// loads of the same unit stay distinguishable.
	name := fmt.Sprintf("%s#%d", inst.Path, inst.ID)
	snap := m.Snapshot()
	if err := m.LoadDynamicAs(name, name, o, inst); err != nil {
		return nil, err
	}
	if err := runSteps(m, instanceSteps(inst, name, false), "init", op, snap, nil); err != nil {
		return nil, err
	}
	return &LoadedUnit{Instance: inst, modName: name}, nil
}

// LoadElaborated loads an already-elaborated instance onto m: compile,
// ship, run initializers. The caller did the elaboration (typically with
// link.ElaborateDynamicEnv against LiveProgram, so the instance's ID and
// renamed symbols are fresh for this machine) and any constraint
// checking. Like LoadDynamic, the operation is transactional — a load or
// initializer failure restores the machine and leaves zero residue —
// and the returned handle supports Replace, Release and Unload.
func (r *Result) LoadElaborated(m *machine.M, inst *link.Instance) (*LoadedUnit, error) {
	return r.load(m, inst, "dynamic-init")
}

// Replace makes the loaded module lu serve in place of old on m. After
// the export check (ExportCompatible), every export symbol of old is
// interposed onto lu's symbol of the same bundle and name, in sorted
// order, and a "swap" of old is reported. Redirects already aimed at
// old's symbols follow (machine.M.Interpose compresses paths), so
// replacing a replacement re-routes every caller and leaves the
// superseded module free to Release. Replace returns the anchors — the
// interposed symbols — and remembers them on lu. A failure can leave
// earlier redirects installed; the caller restores its snapshot.
func (lu *LoadedUnit) Replace(m *machine.M, old *link.Instance) ([]string, error) {
	if err := ExportCompatible(old, lu.Instance); err != nil {
		return nil, err
	}
	var anchors []string
	for _, local := range sortedKeys(old.ExportSyms) {
		for _, sym := range sortedKeys(old.ExportSyms[local]) {
			from := old.ExportSyms[local][sym]
			if err := m.Interpose(from, lu.Instance.ExportSyms[local][sym]); err != nil {
				return nil, err
			}
			anchors = append(anchors, from)
		}
	}
	lu.anchors = append(lu.anchors, anchors...)
	event(m, old.Path, "swap")
	return anchors, nil
}

// Release drops lu from m. The anchors its Replace installed that still
// route callers into it are removed, so those callers reach the code it
// replaced again; so are stale redirects keyed on its own exports, which
// a later Replace of lu leaves behind. Then it is unloaded, finalizers
// and all (see Unload). A failed unload leaves the module loaded but
// bypassed, and retrying is safe.
func (lu *LoadedUnit) Release(m *machine.M) error {
	var own []string
	into := map[string]bool{}
	for _, local := range sortedKeys(lu.Instance.ExportSyms) {
		for _, sym := range sortedKeys(lu.Instance.ExportSyms[local]) {
			global := lu.Instance.ExportSyms[local][sym]
			own = append(own, global)
			into[global] = true
		}
	}
	for _, a := range lu.anchors {
		if into[m.Interposed(a)] {
			m.Unpose(a)
		}
	}
	for _, global := range own {
		if m.Interposed(global) != "" {
			m.Unpose(global)
		}
	}
	return lu.Unload(m)
}

// ExportCompatible checks that t can take over b's callers: every export
// bundle of b exists on t with the same bundle type and the same symbol
// set. (The renamed globals may differ — interposition bridges those —
// but a caller-visible symbol with no replacement would strand calls.)
func ExportCompatible(b, t *link.Instance) error {
	for _, exp := range b.Unit.Exports {
		var ttype string
		for _, texp := range t.Unit.Exports {
			if texp.Local == exp.Local {
				ttype = texp.Type
			}
		}
		if ttype == "" {
			return fmt.Errorf("replacement drops export bundle %q", exp.Local)
		}
		if ttype != exp.Type {
			return fmt.Errorf("replacement export %q has bundle type %s, base has %s",
				exp.Local, ttype, exp.Type)
		}
		for sym := range b.ExportSyms[exp.Local] {
			if _, ok := t.ExportSyms[exp.Local][sym]; !ok {
				return fmt.Errorf("replacement export bundle %q drops symbol %q", exp.Local, sym)
			}
		}
	}
	return nil
}

// Notify reports a lifecycle event for a unit instance on m to the
// machine's observer, if any — the reconfigure layer's hook into the
// same stream RunInit, restarts, and swaps feed.
func (r *Result) Notify(m *machine.M, instance, op string) {
	event(m, instance, op)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
