package build

import (
	"fmt"

	"knit/internal/knit/link"
	"knit/internal/machine"
)

// This file implements the runtime half of the paper's interposition
// story (§2.3): replacing a failing unit instance with its declared
// fallback unit on a live machine, without touching the neighbors it is
// wired to. The failing instance's code stays loaded (static text
// cannot be unloaded) but becomes unreachable: every direct call to its
// export symbols is redirected — LoadedUnit.Replace — to the freshly
// loaded fallback, which is wired to the very same import providers.

// SwapFallback loads the fallback unit declared for failing and makes it
// serve in failing's place (LoadedUnit.Replace). The fallback must be an
// atomic unit whose exports cover failing's (ExportCompatible) and whose
// imports are a subset of failing's; it is wired to the same providers
// failing was wired to, elaborated and compiled fresh, loaded as a
// dynamic module, initialized, and interposed over failing's export
// symbols.
//
// The whole swap is transactional: any failure — elaboration, a
// constraint of the machine loader, a fallback initializer, the export
// check, a redirect — restores the machine to its pre-swap snapshot
// (including the redirect table), so a fault during the swap leaves
// zero residue.
//
// SwapFallback does not unload anything: when failing is itself a
// previously swapped-in dynamic fallback, interposition re-points the
// old redirects at the new module (path compression), after which the
// caller may Release the superseded module.
func (r *Result) SwapFallback(m *machine.M, failing *link.Instance) (*LoadedUnit, error) {
	fbName := failing.Unit.Fallback
	if fbName == "" {
		return nil, fmt.Errorf("knit: swap: unit %s declares no fallback", failing.Unit.Name)
	}
	fb, ok := r.Program.Registry.Units[fbName]
	if !ok {
		return nil, fmt.Errorf("knit: swap: fallback unit %q of %s is not declared",
			fbName, failing.Unit.Name)
	}

	// Wire the fallback's imports to the same providers failing uses.
	env := map[string]*link.Wire{}
	for _, imp := range fb.Imports {
		w, ok := failing.ImportWires[imp.Local]
		if !ok || w == nil {
			return nil, fmt.Errorf(
				"knit: swap %s -> %s: fallback import %q is not an import of the failing unit",
				failing.Unit.Name, fbName, imp.Local)
		}
		env[imp.Local] = w
	}

	// Fresh instance IDs must clear both static instances and the
	// modules already live on this machine.
	live := r.LiveProgram(m)
	inst, err := link.ElaborateDynamicEnv(live.Registry, live, fbName, r.sources, env)
	if err != nil {
		return nil, err
	}
	snap := m.Snapshot()
	lu, err := r.load(m, inst, "swap")
	if err != nil {
		return nil, err
	}
	if _, err := lu.Replace(m, failing); err != nil {
		m.Restore(snap)
		return nil, fmt.Errorf("knit: swap %s -> %s: %w", failing.Unit.Name, fbName, err)
	}
	return lu, nil
}
