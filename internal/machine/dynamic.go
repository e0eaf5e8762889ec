package machine

import (
	"fmt"
	"slices"
	"sort"

	"knit/internal/obj"
)

// This file implements run-time loading and unloading of object code in
// a running machine — the machine half of Knit's dynamic linking
// extension (paper §8), grown into a full module lifecycle. A loaded
// module is placed by the same routine as the image (place), past the
// end of the live memory and text, and keeps its own layout: nothing is
// merged into a machine-wide symbol table. A name is defined at most
// once across the image and the live modules, so every lookup walks the
// image, then the modules in load order, and stops at the one
// definition. Module records never change once committed; a snapshot
// shares them, and UnloadDynamic drops one record and reclaims exactly
// that module's text and data — after verifying that no other live
// module still references them. Dynamic state is per-machine: Reset
// drops all loaded modules along with the rest of the run-time state.

// module is one live dynamically loaded module.
type module struct {
	layout
	name  string
	owner string   // unit-instance attribution, may be ""
	data  any      // the loader's opaque value (see LoadDynamicAs)
	refs  []string // external symbols this module's code/data references
}

// loaded returns the live module called name, or nil.
func (m *M) loaded(name string) *module {
	for _, mod := range m.mods {
		if mod.name == name {
			return mod
		}
	}
	return nil
}

// LoadDynamicAs links an object file into the running machine as a
// named module. Every data symbol referenced by the module must resolve
// (image, earlier modules, or the module itself); function references
// may also be satisfied by builtins at call time, like static calls.
// No symbol the module defines, static or not, may already be defined
// by the image or a live module. owner, when non-empty, attributes the
// module's symbols to a unit instance for trap reporting. data is an
// opaque value the machine keeps on the module's entry, and snapshots
// along with it, for the loading layer to read back through
// DynModuleData. Returns an error and loads nothing on failure; a
// successful load can be reversed by UnloadDynamic(name).
func (m *M) LoadDynamicAs(name, owner string, o *obj.File, data any) error {
	if name == "" {
		return &LoadError{Msg: "dynamic: module needs a name"}
	}
	if m.loaded(name) != nil {
		return &LoadError{Msg: fmt.Sprintf("dynamic: module %q already loaded", name)}
	}
	l, mem, err := place(o, m.Costs, m)
	if err != nil {
		return err
	}
	m.Mem = append(m.Mem, mem...)
	m.textTop = l.textEnd
	m.mods = append(m.mods, &module{layout: l, name: name, owner: owner, data: data, refs: moduleRefs(o, &l)})
	// New definitions can satisfy call sites previously resolved to a
	// builtin or to undefined; drop the compiled dispatch caches.
	m.dispVersion++
	return nil
}

// moduleRefs collects the external symbols a module's code and data
// reference — the names that must stay resolvable for the module to
// keep running, and therefore the names that pin other modules in
// memory until this one is unloaded.
func moduleRefs(o *obj.File, l *layout) []string {
	seen := map[string]bool{}
	add := func(sym string) {
		if _, self := l.addr(sym); sym != "" && !self {
			seen[sym] = true
		}
	}
	for _, fn := range l.Entry {
		for i := range fn.Code {
			switch fn.Code[i].Op {
			case obj.OpCall, obj.OpAddrGlobal:
				add(fn.Code[i].Sym)
			}
		}
	}
	for _, d := range o.Datas {
		for _, init := range d.Init {
			if init.Kind == obj.InitSym {
				add(init.Sym)
			}
		}
	}
	return sortedKeys(seen)
}

// UnloadDynamic reverses a LoadDynamicAs: it drops the named module's
// record, so its functions and globals no longer resolve, and reclaims
// its memory. The unload is refused — and nothing changes — if any
// other live module's code or data references one of the module's
// symbols, the same puzzle-piece discipline the loader enforces, run in
// reverse.
//
// Reclamation detail: memory and text shrink to the highest end any
// remaining live module claims, never below the image's own end. A
// module unloaded from below a live one leaves its data region zeroed
// and its text range unused until the modules above it go too; then
// the whole hole is reclaimed, so a machine with no live module has
// exactly a fresh machine's memory and text.
func (m *M) UnloadDynamic(name string) error {
	mod := m.loaded(name)
	if mod == nil {
		return &LoadError{Msg: fmt.Sprintf("dynamic: no loaded module %q", name)}
	}
	for _, other := range m.mods {
		if other == mod {
			continue
		}
		for _, ref := range other.refs {
			if _, owned := mod.addr(ref); owned {
				return &LoadError{Msg: fmt.Sprintf(
					"dynamic: cannot unload module %q: live module %q still references its symbol %q (unload %q first)",
					name, other.name, ref, other.name)}
			}
		}
	}
	// Interposition redirects aimed *at* this module pin it too: calls
	// are being routed into its code right now. (Redirect sources may
	// vanish freely — a key with no definition is never dispatched.)
	for from, to := range m.redirect {
		if _, owned := mod.addr(to); owned {
			return &LoadError{Msg: fmt.Sprintf(
				"dynamic: cannot unload module %q: calls to %q are interposed onto its symbol %q",
				name, from, to)}
		}
	}

	// Reclaim memory and text down to the highest region end any
	// *other* live module still claims — a module loaded later than this
	// one may hold an (empty) region right at the current end of memory,
	// and its base must stay in bounds — but never below the image's
	// memory (data and stack) and text.
	memEnd, textEnd := m.stackLimit, m.Img.TextSize
	var live []*module
	for _, other := range m.mods {
		if other != mod {
			live = append(live, other)
			memEnd = max(memEnd, other.dataEnd)
			textEnd = max(textEnd, other.textEnd)
		}
	}
	m.Mem = m.Mem[:memEnd]
	for i := mod.dataBase; i < min(mod.dataEnd, memEnd); i++ {
		m.Mem[i] = 0
	}
	m.textTop = textEnd
	m.mods = live
	// Compiled forms of the unloaded functions must go (their dispatch
	// slots and baked addresses are dead); dropping the whole per-machine
	// cache is simpler and unload is rare. Live modules recompile lazily
	// to identical code — their symbol addresses never move.
	m.dynCompiled = nil
	m.dispVersion++
	return nil
}

// DynModules returns the names of the live dynamic modules, in load
// order.
func (m *M) DynModules() []string { return moduleNames(m.mods) }

func moduleNames(mods []*module) []string {
	var out []string
	for _, mod := range mods {
		out = append(out, mod.name)
	}
	return out
}

// DynModuleData returns the data values the live dynamic modules were
// loaded with, in load order (nil for a module loaded without one).
func (m *M) DynModuleData() []any {
	var out []any
	for _, mod := range m.mods {
		out = append(out, mod.data)
	}
	return out
}

// CheckDynInvariants validates the machine's live module records:
// every interposition target must be a defined function, no name may be
// defined twice across the image and the modules, and module
// memory/text regions must be disjoint and in bounds. Test harnesses
// run it after every load/unload step; it is cheap but not free.
func (m *M) CheckDynInvariants() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("machine: dynamic invariant violated: "+format, args...)
	}
	// A redirect onto a reclaimed module would turn calls into
	// undefined-call traps, which is exactly the residue a failed swap
	// must not leave behind.
	for from, to := range m.redirect {
		if _, ok := m.funcBySym(to); !ok {
			return fail("redirect %q -> %q targets an undefined function", from, to)
		}
	}
	definer := map[string]string{}
	for _, mod := range m.mods {
		for _, syms := range []map[string]int64{mod.GlobalAddr, mod.FuncAddr} {
			for s := range syms {
				if _, shadow := m.Img.addr(s); shadow {
					return fail("module %q symbol %q shadows an image symbol", mod.name, s)
				}
				if prev, dup := definer[s]; dup {
					return fail("symbol %q defined by both %q and %q", s, prev, mod.name)
				}
				definer[s] = mod.name
			}
		}
		if mod.dataBase < m.stackLimit || mod.dataEnd > int64(len(m.Mem)) || mod.dataBase > mod.dataEnd {
			return fail("module %q data region [%d,%d) out of bounds (mem %d)",
				mod.name, mod.dataBase, mod.dataEnd, len(m.Mem))
		}
		if mod.textBase < m.Img.TextSize || mod.textEnd > m.textTop || mod.textBase > mod.textEnd {
			return fail("module %q text region [%d,%d) out of bounds", mod.name, mod.textBase, mod.textEnd)
		}
	}
	// Regions of distinct modules must not overlap.
	mods := slices.Clone(m.mods)
	sort.Slice(mods, func(i, j int) bool { return mods[i].dataBase < mods[j].dataBase })
	for i := 1; i < len(mods); i++ {
		if mods[i].dataBase < mods[i-1].dataEnd {
			return fail("modules %q and %q overlap in data", mods[i-1].name, mods[i].name)
		}
	}
	sort.Slice(mods, func(i, j int) bool { return mods[i].textBase < mods[j].textBase })
	for i := 1; i < len(mods); i++ {
		if mods[i].textBase < mods[i-1].textEnd {
			return fail("modules %q and %q overlap in text", mods[i-1].name, mods[i].name)
		}
	}
	return nil
}

// The lookups below walk the image, then the live modules in load
// order. Names are unique across them, so the first hit is the only
// definition; a machine with no modules reads only the image's maps.

// resolveAddr resolves a symbol to its data or text address. It is on
// the interpreter's OpAddrGlobal path, so it is written to inline.
func (m *M) resolveAddr(sym string) (int64, bool) {
	l := &m.Img.layout
	for i := 0; ; i++ {
		if a, ok := l.addr(sym); ok || i == len(m.mods) {
			return a, ok
		}
		l = &m.mods[i].layout
	}
}

// funcBySym resolves a symbol to its function definition, without
// following redirects.
func (m *M) funcBySym(sym string) (*obj.Func, bool) {
	if fn, ok := m.Img.Entry[sym]; ok {
		return fn, true
	}
	for _, mod := range m.mods {
		if fn, ok := mod.Entry[sym]; ok {
			return fn, true
		}
	}
	return nil, false
}

// funcAt resolves an indirect call's target address. Interposition
// deliberately does not apply.
func (m *M) funcAt(addr int64, caller string, pc int) (*obj.Func, error) {
	if fn, ok := m.Img.funcByAddr[addr]; ok {
		return fn, nil
	}
	for _, mod := range m.mods {
		if fn, ok := mod.funcByAddr[addr]; ok {
			return fn, nil
		}
	}
	return nil, &Trap{Kind: TrapUnresolvedSymbol, Msg: fmt.Sprintf("indirect call to non-function address %#x", addr), Func: caller, PC: pc}
}

// funcTextOff returns the text offset the instruction-fetch model
// places fn's code at.
func (m *M) funcTextOff(fn *obj.Func) int64 {
	if off, ok := m.Img.textOff[fn.Name]; ok {
		return off
	}
	for _, mod := range m.mods {
		if off, ok := mod.textOff[fn.Name]; ok {
			return off
		}
	}
	return 0
}

// OwnerOf maps a (renamed, program-unique) function or data symbol back
// to the unit instance that owns it, consulting the image's link-time
// symbol table and then the live dynamic modules. Empty when unknown.
func (m *M) OwnerOf(sym string) string {
	if owner, ok := m.Img.SymbolOwner[sym]; ok {
		return owner
	}
	for _, mod := range m.mods {
		if _, ok := mod.addr(sym); ok {
			return mod.owner
		}
	}
	return ""
}
