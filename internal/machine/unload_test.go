package machine

import (
	"strings"
	"testing"

	"knit/internal/obj"
)

// constMod builds a dynamic module named name exporting one function
// (fname, returning val) and one one-word global (gname).
func constMod(name, fname, gname string, val int64) *obj.File {
	f := obj.NewFile(name)
	f.Funcs[fname] = &obj.Func{Name: fname, NRegs: 2, Code: []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: val},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}}
	f.AddSym(&obj.Symbol{Name: fname, Kind: obj.SymFunc, Defined: true})
	f.Datas[gname] = &obj.Data{Name: gname, Size: 1,
		Init: []obj.DataInit{{Kind: obj.InitConst, Val: val}}}
	f.AddSym(&obj.Symbol{Name: gname, Kind: obj.SymData, Defined: true})
	return f
}

// callerMod builds a dynamic module whose function calls callee.
func callerMod(name, fname, callee string) *obj.File {
	f := obj.NewFile(name)
	f.Funcs[fname] = &obj.Func{Name: fname, NRegs: 2, Code: []obj.Instr{
		{Op: obj.OpCall, Dst: 1, Sym: callee, A: obj.NoReg},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}}
	f.AddSym(&obj.Symbol{Name: fname, Kind: obj.SymFunc, Defined: true})
	f.AddSym(&obj.Symbol{Name: callee, Kind: obj.SymFunc, Defined: false})
	return f
}

func baseMachine(t *testing.T) *M {
	t.Helper()
	return loadFile(t, fileWith(buildFunc("base_id", 1, 2, 0, []obj.Instr{
		{Op: obj.OpRet, A: 0, HasVal: true},
	})))
}

func TestUnloadReclaimsSymbolsAndMemory(t *testing.T) {
	m := baseMachine(t)
	memBefore := len(m.Mem)
	if err := loadDynamic(m, constMod("mod1", "fn1", "g1", 11)); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Run("fn1"); err != nil || v != 11 {
		t.Fatalf("fn1 = %d, %v; want 11", v, err)
	}
	if err := m.UnloadDynamic("mod1"); err != nil {
		t.Fatalf("unload: %v", err)
	}
	if len(m.Mem) != memBefore {
		t.Errorf("memory not reclaimed: %d words, want %d", len(m.Mem), memBefore)
	}
	if mods := m.DynModules(); len(mods) != 0 {
		t.Errorf("live modules after unload: %v", mods)
	}
	if _, err := m.Run("fn1"); err == nil {
		t.Error("unloaded function still runnable")
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
	// The same module name is free for reuse after the unload.
	if err := loadDynamic(m, constMod("mod1", "fn1", "g1", 22)); err != nil {
		t.Fatalf("reload after unload: %v", err)
	}
	if v, err := m.Run("fn1"); err != nil || v != 22 {
		t.Errorf("reloaded fn1 = %d, %v; want 22", v, err)
	}
}

func TestUnloadRefusedWhileReferenced(t *testing.T) {
	m := baseMachine(t)
	if err := loadDynamic(m, constMod("prov", "p_fn", "p_g", 5)); err != nil {
		t.Fatal(err)
	}
	if err := loadDynamic(m, callerMod("cons", "c_fn", "p_fn")); err != nil {
		t.Fatal(err)
	}
	err := m.UnloadDynamic("prov")
	if err == nil {
		t.Fatal("unloading a referenced module was allowed")
	}
	for _, want := range []string{"prov", "cons", "p_fn", "unload \"cons\" first"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusal %q lacks %q", err, want)
		}
	}
	// Nothing changed: both modules still live and working.
	if v, err := m.Run("c_fn"); err != nil || v != 5 {
		t.Errorf("c_fn = %d, %v after refused unload; want 5", v, err)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
	// Reverse order works.
	if err := m.UnloadDynamic("cons"); err != nil {
		t.Fatal(err)
	}
	if err := m.UnloadDynamic("prov"); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
}

func TestUnloadUnknownModule(t *testing.T) {
	m := baseMachine(t)
	if err := m.UnloadDynamic("ghost"); err == nil ||
		!strings.Contains(err.Error(), `no loaded module "ghost"`) {
		t.Errorf("err = %v, want no-loaded-module error", err)
	}
	if err := loadDynamic(m, constMod("mod1", "fn1", "g1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.UnloadDynamic("mod1"); err != nil {
		t.Fatal(err)
	}
	if err := m.UnloadDynamic("mod1"); err == nil {
		t.Error("double unload succeeded")
	}
}

// TestUnloadMiddleModuleLeavesZeroedHole: unloading a module that is
// not the most recently loaded one cannot shrink memory (addresses are
// never reused) — its data region is zeroed instead, and later loads
// append fresh addresses past the high-water mark.
func TestUnloadMiddleModuleLeavesZeroedHole(t *testing.T) {
	m := baseMachine(t)
	if err := loadDynamic(m, constMod("lo", "lo_fn", "lo_g", 1)); err != nil {
		t.Fatal(err)
	}
	if err := loadDynamic(m, constMod("hi", "hi_fn", "hi_g", 2)); err != nil {
		t.Fatal(err)
	}
	memWithBoth := len(m.Mem)
	if err := m.UnloadDynamic("lo"); err != nil {
		t.Fatalf("unload middle: %v", err)
	}
	if len(m.Mem) != memWithBoth {
		t.Errorf("middle unload changed memory size: %d, want %d", len(m.Mem), memWithBoth)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
	// hi still works; lo is gone.
	if v, err := m.Run("hi_fn"); err != nil || v != 2 {
		t.Errorf("hi_fn = %d, %v; want 2", v, err)
	}
	if _, err := m.Run("lo_fn"); err == nil {
		t.Error("unloaded lo_fn still runnable")
	}
	// Unloading the topmost module now truncates down past the hole's
	// high-water mark only as far as its own base.
	if err := m.UnloadDynamic("hi"); err != nil {
		t.Fatal(err)
	}
	if len(m.Mem) >= memWithBoth {
		t.Errorf("topmost unload reclaimed nothing: %d words", len(m.Mem))
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
}

// TestModuleDataFollowsSnapshots: the value a module was loaded with
// lives on its module-table entry, so a Restore brings back exactly the
// snapshot's modules' values and an unload drops the module's.
func TestModuleDataFollowsSnapshots(t *testing.T) {
	m := baseMachine(t)
	if err := m.LoadDynamicAs("lo", "", constMod("lo", "lo_fn", "lo_g", 1), "lo-data"); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if err := m.LoadDynamicAs("hi", "", constMod("hi", "hi_fn", "hi_g", 2), "hi-data"); err != nil {
		t.Fatal(err)
	}
	if got := m.DynModuleData(); len(got) != 2 || got[0] != "lo-data" || got[1] != "hi-data" {
		t.Fatalf("module data = %v, want [lo-data hi-data]", got)
	}
	if err := m.UnloadDynamic("lo"); err != nil {
		t.Fatal(err)
	}
	if got := m.DynModuleData(); len(got) != 1 || got[0] != "hi-data" {
		t.Fatalf("module data after unload = %v, want [hi-data]", got)
	}
	m.Restore(snap)
	if got := m.DynModuleData(); len(got) != 1 || got[0] != "lo-data" {
		t.Fatalf("module data after restore = %v, want [lo-data]", got)
	}
}

// TestUnloadReclaimsTopHoles unloads a module from below a live one and
// then the live one: memory and text must shrink back to the end of the
// module still live below them, and to a fresh machine's size once no
// module is live, however many times the cycle repeats. While the upper
// module lives, the lower one's hole stays in place and the upper module
// keeps working.
func TestUnloadReclaimsTopHoles(t *testing.T) {
	for _, backend := range []Backend{BackendInterp, BackendCompiled} {
		t.Run(backend.String(), func(t *testing.T) {
			m := baseMachine(t)
			m.SetBackend(backend)
			memFresh, textFresh := len(m.Mem), m.textTop
			if err := loadDynamic(m, constMod("keep", "keep_fn", "keep_g", 3)); err != nil {
				t.Fatal(err)
			}
			memBase, textBase := len(m.Mem), m.textTop
			for cycle := 0; cycle < 3; cycle++ {
				if err := loadDynamic(m, constMod("lo", "lo_fn", "lo_g", 1)); err != nil {
					t.Fatal(err)
				}
				if err := loadDynamic(m, constMod("hi", "hi_fn", "hi_g", 2)); err != nil {
					t.Fatal(err)
				}
				memTop, textTop := len(m.Mem), m.textTop
				if err := m.UnloadDynamic("lo"); err != nil {
					t.Fatal(err)
				}
				if len(m.Mem) != memTop || m.textTop != textTop {
					t.Errorf("cycle %d: unloading below a live module moved the top: mem %d -> %d, text %d -> %d",
						cycle, memTop, len(m.Mem), textTop, m.textTop)
				}
				if v, err := m.Run("hi_fn"); err != nil || v != 2 {
					t.Errorf("cycle %d: hi_fn = %d, %v; want 2", cycle, v, err)
				}
				if err := m.UnloadDynamic("hi"); err != nil {
					t.Fatal(err)
				}
				if len(m.Mem) != memBase || m.textTop != textBase {
					t.Errorf("cycle %d: only keep live, but mem %d words (want %d), text top %d (want %d)",
						cycle, len(m.Mem), memBase, m.textTop, textBase)
				}
				if v, err := m.Run("keep_fn"); err != nil || v != 3 {
					t.Errorf("cycle %d: keep_fn = %d, %v; want 3", cycle, v, err)
				}
				if err := m.CheckDynInvariants(); err != nil {
					t.Error(err)
				}
			}
			if err := m.UnloadDynamic("keep"); err != nil {
				t.Fatal(err)
			}
			if len(m.Mem) != memFresh || m.textTop != textFresh {
				t.Errorf("no module live, but mem %d words (fresh %d), text top %d (fresh %d)",
					len(m.Mem), memFresh, m.textTop, textFresh)
			}
		})
	}
}
