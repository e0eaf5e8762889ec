package machine

import (
	"errors"
	"strings"
	"testing"

	"knit/internal/cmini"
	"knit/internal/obj"
)

// loadDynamic loads o as a module named o.Name with no unit
// attribution.
func loadDynamic(m *M, o *obj.File) error {
	return m.LoadDynamicAs(o.Name, "", o, nil)
}

func TestLoadDynamicBasics(t *testing.T) {
	base := fileWith(buildFunc("base_fn", 1, 2, 0, []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: 10},
		{Op: obj.OpBin, Dst: 1, A: 0, B: 1, Tok: int(cmini.STAR)},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}))
	base.Datas["shared"] = &obj.Data{Name: "shared", Size: 1,
		Init: []obj.DataInit{{Kind: obj.InitConst, Val: 7}}}
	base.AddSym(&obj.Symbol{Name: "shared", Kind: obj.SymData, Defined: true})
	m := loadFile(t, base)

	// Dynamic module: calls base_fn, reads shared, has its own data and
	// string.
	mod := obj.NewFile("mod")
	mod.Strings = []string{"z"}
	mod.Datas["own"] = &obj.Data{Name: "own", Size: 2, Init: []obj.DataInit{
		{Kind: obj.InitConst, Offset: 0, Val: 5},
		{Kind: obj.InitSym, Offset: 1, Sym: "base_fn"},
	}}
	mod.AddSym(&obj.Symbol{Name: "own", Kind: obj.SymData, Defined: true})
	mod.Funcs["dyn_fn"] = &obj.Func{Name: "dyn_fn", NArgs: 1, NRegs: 6, Code: []obj.Instr{
		{Op: obj.OpCall, Dst: 1, Sym: "base_fn", Args: []obj.Reg{0}, A: obj.NoReg}, // 10x
		{Op: obj.OpAddrGlobal, Dst: 2, Sym: "shared", A: obj.NoReg},
		{Op: obj.OpLoad, Dst: 2, A: 2}, // 7
		{Op: obj.OpBin, Dst: 1, A: 1, B: 2, Tok: int(cmini.PLUS)},
		{Op: obj.OpAddrGlobal, Dst: 3, Sym: "own", A: obj.NoReg},
		{Op: obj.OpLoad, Dst: 3, A: 3}, // 5
		{Op: obj.OpBin, Dst: 1, A: 1, B: 3, Tok: int(cmini.PLUS)},
		{Op: obj.OpAddrString, Dst: 4, Imm: 0, A: obj.NoReg},
		{Op: obj.OpLoad, Dst: 4, A: 4}, // 'z'
		{Op: obj.OpBin, Dst: 1, A: 1, B: 4, Tok: int(cmini.PLUS)},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}}
	mod.AddSym(&obj.Symbol{Name: "dyn_fn", Kind: obj.SymFunc, Defined: true})

	if err := loadDynamic(m, mod); err != nil {
		t.Fatalf("LoadDynamic: %v", err)
	}
	v, err := m.Run("dyn_fn", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(30 + 7 + 5 + 'z')
	if v != want {
		t.Errorf("dyn_fn(3) = %d, want %d", v, want)
	}
	// Indirect call through the function pointer stored in own[1].
	caller := obj.NewFile("c2")
	caller.Funcs["via_ptr"] = &obj.Func{Name: "via_ptr", NArgs: 1, NRegs: 3, Code: []obj.Instr{
		{Op: obj.OpAddrGlobal, Dst: 1, Sym: "own", A: obj.NoReg},
		{Op: obj.OpConst, Dst: 2, Imm: 1},
		{Op: obj.OpBin, Dst: 1, A: 1, B: 2, Tok: int(cmini.PLUS)},
		{Op: obj.OpLoad, Dst: 1, A: 1},
		{Op: obj.OpCallInd, Dst: 2, A: 1, Args: []obj.Reg{0}},
		{Op: obj.OpRet, A: 2, HasVal: true},
	}}
	caller.AddSym(&obj.Symbol{Name: "via_ptr", Kind: obj.SymFunc, Defined: true})
	if err := loadDynamic(m, caller); err != nil {
		t.Fatal(err)
	}
	v, err = m.Run("via_ptr", 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 40 {
		t.Errorf("via_ptr(4) = %d, want 40", v)
	}
}

func TestLoadDynamicCollisionRejected(t *testing.T) {
	base := fileWith(buildFunc("f", 0, 1, 0, []obj.Instr{
		{Op: obj.OpRet, A: 0, HasVal: true},
	}))
	m := loadFile(t, base)
	mod := fileWith(buildFunc("f", 0, 1, 0, []obj.Instr{
		{Op: obj.OpRet, A: 0, HasVal: true},
	}))
	if err := loadDynamic(m, mod); err == nil ||
		!strings.Contains(err.Error(), "already defined") {
		t.Errorf("err = %v, want already-defined rejection", err)
	}
}

func TestLoadDynamicUnresolvedRejected(t *testing.T) {
	m := loadFile(t, fileWith())
	mod := fileWith(buildFunc("g", 0, 2, 0, []obj.Instr{
		{Op: obj.OpAddrGlobal, Dst: 1, Sym: "nowhere", A: obj.NoReg},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}))
	if err := loadDynamic(m, mod); err == nil ||
		!strings.Contains(err.Error(), "unresolved symbol") {
		t.Errorf("err = %v, want unresolved symbol", err)
	}
	// Nothing was committed: memory length unchanged.
	if len(m.mods) != 0 {
		t.Error("failed load leaked state")
	}
}

func TestStackCannotGrowIntoDynamicData(t *testing.T) {
	// A deeply recursive function with a big frame must trap on the
	// stack limit, not write into dynamically loaded data.
	rec := buildFunc("rec", 1, 3, 1024, []obj.Instr{
		{Op: obj.OpBranch, A: 0, Targets: [2]int{1, 4}},
		{Op: obj.OpConst, Dst: 1, Imm: 1},
		{Op: obj.OpBin, Dst: 1, A: 0, B: 1, Tok: int(cmini.MINUS)},
		{Op: obj.OpCall, Dst: 2, Sym: "rec", Args: []obj.Reg{1}, A: obj.NoReg},
		{Op: obj.OpRet, A: 0, HasVal: true},
	})
	m := loadFile(t, fileWith(rec))
	mod := obj.NewFile("mod")
	mod.Datas["canary"] = &obj.Data{Name: "canary", Size: 4, Init: []obj.DataInit{
		{Kind: obj.InitConst, Offset: 0, Val: 111},
		{Kind: obj.InitConst, Offset: 3, Val: 222},
	}}
	mod.AddSym(&obj.Symbol{Name: "canary", Kind: obj.SymData, Defined: true})
	if err := loadDynamic(m, mod); err != nil {
		t.Fatal(err)
	}
	canary, ok := m.resolveAddr("canary")
	if !ok {
		t.Fatal("canary not resolvable")
	}
	_, err := m.Run("rec", 1000) // 1000 frames x 1024 words >> 64K stack
	if err == nil || !strings.Contains(err.Error(), "stack overflow") {
		t.Fatalf("err = %v, want stack overflow", err)
	}
	if m.Mem[canary] != 111 || m.Mem[canary+3] != 222 {
		t.Error("stack growth corrupted dynamic data")
	}
}

// staticCntMod builds a module whose static (local) global cnt holds
// val, read back by its exported function fname.
func staticCntMod(name, fname string, val int64) *obj.File {
	f := obj.NewFile(name)
	f.Datas["cnt"] = &obj.Data{Name: "cnt", Size: 1, Local: true,
		Init: []obj.DataInit{{Kind: obj.InitConst, Val: val}}}
	f.AddSym(&obj.Symbol{Name: "cnt", Kind: obj.SymData, Defined: true, Local: true})
	f.Funcs[fname] = &obj.Func{Name: fname, NRegs: 2, Code: []obj.Instr{
		{Op: obj.OpAddrGlobal, Dst: 1, Sym: "cnt", A: obj.NoReg},
		{Op: obj.OpLoad, Dst: 1, A: 1},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}}
	f.AddSym(&obj.Symbol{Name: fname, Kind: obj.SymFunc, Defined: true})
	return f
}

// TestLoadDynamicLocalCollisionRejected: a module's static symbol may
// not take a name the image or a live module already defines. Such a
// load is refused with nothing loaded, rather than leaving two
// definitions of one name for lookups to choose between.
func TestLoadDynamicLocalCollisionRejected(t *testing.T) {
	for _, backend := range []Backend{BackendInterp, BackendCompiled} {
		t.Run(backend.String(), func(t *testing.T) {
			// Over the image's global cnt = 7.
			base := fileWith(buildFunc("get_img", 0, 2, 0, []obj.Instr{
				{Op: obj.OpAddrGlobal, Dst: 1, Sym: "cnt", A: obj.NoReg},
				{Op: obj.OpLoad, Dst: 1, A: 1},
				{Op: obj.OpRet, A: 1, HasVal: true},
			}))
			base.Datas["cnt"] = &obj.Data{Name: "cnt", Size: 1,
				Init: []obj.DataInit{{Kind: obj.InitConst, Val: 7}}}
			base.AddSym(&obj.Symbol{Name: "cnt", Kind: obj.SymData, Defined: true})
			m := loadFile(t, base)
			m.SetBackend(backend)
			snap := m.Snapshot()
			err := loadDynamic(m, staticCntMod("a", "get_a", 99))
			var le *LoadError
			if !errors.As(err, &le) || !strings.Contains(err.Error(), `symbol "cnt" already defined`) {
				t.Fatalf("static over image global: err = %v, want LoadError naming cnt", err)
			}
			if err := m.StateEqual(snap); err != nil {
				t.Errorf("refused load left residue: %v", err)
			}
			if v, err := m.Run("get_img"); err != nil || v != 7 {
				t.Errorf("get_img = %d, %v; want 7", v, err)
			}
			if _, err := m.Run("get_a"); err == nil {
				t.Error("refused module's function is runnable")
			}

			// Over another live module's static cnt = 11.
			m = baseMachine(t)
			m.SetBackend(backend)
			if err := loadDynamic(m, staticCntMod("a", "get_a", 11)); err != nil {
				t.Fatal(err)
			}
			snap = m.Snapshot()
			err = loadDynamic(m, staticCntMod("b", "get_b", 22))
			if !errors.As(err, &le) || !strings.Contains(err.Error(), `symbol "cnt" already defined`) {
				t.Fatalf("static over module static: err = %v, want LoadError naming cnt", err)
			}
			if err := m.StateEqual(snap); err != nil {
				t.Errorf("refused load left residue: %v", err)
			}
			if v, err := m.Run("get_a"); err != nil || v != 11 {
				t.Errorf("get_a = %d, %v; want 11", v, err)
			}
			// Once the first module is gone the name is free again.
			if err := m.UnloadDynamic("a"); err != nil {
				t.Fatal(err)
			}
			if err := loadDynamic(m, staticCntMod("b", "get_b", 22)); err != nil {
				t.Fatalf("load after unload: %v", err)
			}
			if v, err := m.Run("get_b"); err != nil || v != 22 {
				t.Errorf("get_b = %d, %v; want 22", v, err)
			}
			if err := m.CheckDynInvariants(); err != nil {
				t.Error(err)
			}
		})
	}
}
