package machine

import (
	"errors"
	"strings"
	"testing"

	"knit/internal/obj"
)

// Interposition tests: the supervision layer depends on redirects
// applying to direct calls and Run entries, sparing indirect calls,
// compressing chains, and round-tripping through Snapshot/Restore.

func constFunc(name string, v int64) *obj.Func {
	return buildFunc(name, 0, 2, 0, []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: v},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
}

func TestInterposeRedirectsRunAndDirectCalls(t *testing.T) {
	caller := buildFunc("caller", 0, 2, 0, []obj.Instr{
		{Op: obj.OpCall, Dst: 1, Sym: "orig", A: obj.NoReg},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
	m := loadFile(t, fileWith(constFunc("orig", 1), constFunc("alt", 2), caller))

	if got, _ := m.Run("caller"); got != 1 {
		t.Fatalf("before interpose: caller = %d, want 1", got)
	}
	if err := m.Interpose("orig", "alt"); err != nil {
		t.Fatalf("Interpose: %v", err)
	}
	if got, _ := m.Run("caller"); got != 2 {
		t.Errorf("direct call after interpose = %d, want 2", got)
	}
	if got, _ := m.Run("orig"); got != 2 {
		t.Errorf("Run entry after interpose = %d, want 2", got)
	}
	if got := m.Interposed("orig"); got != "alt" {
		t.Errorf("Interposed(orig) = %q, want alt", got)
	}
	m.Unpose("orig")
	if got, _ := m.Run("caller"); got != 1 {
		t.Errorf("after Unpose: caller = %d, want 1", got)
	}
	if got := m.Interposed("orig"); got != "" {
		t.Errorf("Interposed after Unpose = %q, want \"\"", got)
	}
}

func TestInterposeLeavesIndirectCallsAlone(t *testing.T) {
	// A function pointer taken before (or after) interposition keeps
	// meaning the original code, as with PLT-level interposition.
	f := fileWith(constFunc("orig", 1), constFunc("alt", 2))
	f.Datas["ptr"] = &obj.Data{Name: "ptr", Size: 1,
		Init: []obj.DataInit{{Kind: obj.InitSym, Sym: "orig"}}}
	f.AddSym(&obj.Symbol{Name: "ptr", Kind: obj.SymData, Defined: true})
	via := buildFunc("via", 0, 3, 0, []obj.Instr{
		{Op: obj.OpAddrGlobal, Dst: 1, Sym: "ptr", A: obj.NoReg},
		{Op: obj.OpLoad, Dst: 1, A: 1},
		{Op: obj.OpCallInd, Dst: 2, A: 1},
		{Op: obj.OpRet, A: 2, HasVal: true},
	})
	f.Funcs["via"] = via
	f.AddSym(&obj.Symbol{Name: "via", Kind: obj.SymFunc, Defined: true})
	m := loadFile(t, f)

	if err := m.Interpose("orig", "alt"); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Run("via"); got != 1 {
		t.Errorf("indirect call after interpose = %d, want 1 (original)", got)
	}
}

func TestInterposeValidation(t *testing.T) {
	twoArg := buildFunc("two", 2, 3, 0, []obj.Instr{
		{Op: obj.OpRet, A: 0, HasVal: true},
	})
	m := loadFile(t, fileWith(constFunc("a", 1), constFunc("b", 2), twoArg))

	if err := m.Interpose("nosuch", "a"); err == nil {
		t.Error("interposing undefined symbol succeeded")
	}
	if err := m.Interpose("a", "nosuch"); err == nil {
		t.Error("interposing onto undefined target succeeded")
	}
	if err := m.Interpose("a", "two"); err == nil ||
		!strings.Contains(err.Error(), "args") {
		t.Errorf("arg-count mismatch not rejected: %v", err)
	}
	if err := m.Interpose("a", "a"); err == nil {
		t.Error("self-redirect succeeded")
	}
	if err := m.Interpose("a", "b"); err != nil {
		t.Fatal(err)
	}
	// b -> a would resolve through a -> b back to b: a cycle.
	if err := m.Interpose("b", "a"); err == nil ||
		!strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle not rejected: %v", err)
	}
}

func TestInterposeCompressesChains(t *testing.T) {
	m := loadFile(t, fileWith(constFunc("a", 1), constFunc("b", 2), constFunc("c", 3)))
	if err := m.Interpose("a", "b"); err != nil {
		t.Fatal(err)
	}
	if err := m.Interpose("b", "c"); err != nil {
		t.Fatal(err)
	}
	// Both entries point straight at c: no multi-hop chains.
	if got := m.Interposed("a"); got != "c" {
		t.Errorf("Interposed(a) = %q, want c (compressed)", got)
	}
	if got := m.Interposed("b"); got != "c" {
		t.Errorf("Interposed(b) = %q, want c", got)
	}
	if got, _ := m.Run("a"); got != 3 {
		t.Errorf("Run(a) = %d, want 3", got)
	}
	// Interposing onto an already-redirected target resolves it first.
	m2 := loadFile(t, fileWith(constFunc("a", 1), constFunc("b", 2), constFunc("c", 3)))
	if err := m2.Interpose("b", "c"); err != nil {
		t.Fatal(err)
	}
	if err := m2.Interpose("a", "b"); err != nil {
		t.Fatal(err)
	}
	if got := m2.Interposed("a"); got != "c" {
		t.Errorf("Interposed(a) = %q, want c (target pre-resolved)", got)
	}
}

func TestSnapshotRestoresRedirects(t *testing.T) {
	m := loadFile(t, fileWith(constFunc("a", 1), constFunc("b", 2)))
	clean := m.Snapshot()
	if err := m.Interpose("a", "b"); err != nil {
		t.Fatal(err)
	}
	with := m.Snapshot()

	m.Restore(clean)
	if got, _ := m.Run("a"); got != 1 {
		t.Errorf("after restore to clean: Run(a) = %d, want 1", got)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Errorf("invariants after clean restore: %v", err)
	}
	m.Restore(with)
	if got, _ := m.Run("a"); got != 2 {
		t.Errorf("after restore with redirect: Run(a) = %d, want 2", got)
	}
	// The restored redirect map is a copy: mutating the machine must
	// not corrupt the snapshot.
	m.Unpose("a")
	m.Restore(with)
	if got := m.Interposed("a"); got != "b" {
		t.Errorf("snapshot aliased live redirect map: Interposed(a) = %q", got)
	}
}

func TestUnloadRefusedWhileInterposedOnto(t *testing.T) {
	m := loadFile(t, fileWith(constFunc("orig", 1)))
	mod := obj.NewFile("mod")
	mod.Funcs["dyn_alt"] = constFunc("dyn_alt", 2)
	mod.AddSym(&obj.Symbol{Name: "dyn_alt", Kind: obj.SymFunc, Defined: true})
	if err := m.LoadDynamicAs("mod", "Top/Alt#1", mod, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Interpose("orig", "dyn_alt"); err != nil {
		t.Fatal(err)
	}
	err := m.UnloadDynamic("mod")
	if err == nil || !strings.Contains(err.Error(), "interposed") {
		t.Fatalf("unload of interposition target: err = %v, want refusal", err)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Errorf("invariants after refused unload: %v", err)
	}
	m.Unpose("orig")
	if err := m.UnloadDynamic("mod"); err != nil {
		t.Errorf("unload after Unpose: %v", err)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Errorf("invariants after unload: %v", err)
	}
}

func TestCheckDynInvariantsCatchesDanglingRedirect(t *testing.T) {
	m := loadFile(t, fileWith(constFunc("a", 1)))
	m.redirect = map[string]string{"a": "vanished"}
	err := m.CheckDynInvariants()
	if err == nil || !strings.Contains(err.Error(), "redirect") {
		t.Errorf("dangling redirect not caught: %v", err)
	}
}

func TestResetData(t *testing.T) {
	f := fileWith(
		buildFunc("smash", 0, 3, 0, []obj.Instr{
			{Op: obj.OpAddrGlobal, Dst: 1, Sym: "g", A: obj.NoReg},
			{Op: obj.OpConst, Dst: 2, Imm: 99},
			{Op: obj.OpStore, A: 1, B: 2},
			{Op: obj.OpRet, HasVal: false},
		}),
		buildFunc("read", 0, 2, 0, []obj.Instr{
			{Op: obj.OpAddrGlobal, Dst: 1, Sym: "g", A: obj.NoReg},
			{Op: obj.OpLoad, Dst: 1, A: 1},
			{Op: obj.OpRet, A: 1, HasVal: true},
		}),
	)
	f.Datas["g"] = &obj.Data{Name: "g", Size: 1,
		Init: []obj.DataInit{{Kind: obj.InitConst, Val: 7}}}
	f.AddSym(&obj.Symbol{Name: "g", Kind: obj.SymData, Defined: true})
	m := loadFile(t, f)

	if _, err := m.Run("smash"); err != nil {
		t.Fatal(err)
	}
	if got, _ := m.Run("read"); got != 99 {
		t.Fatalf("after smash: g = %d, want 99", got)
	}
	n := m.ResetData([]string{"g", "read", "no_such_global"})
	if n != 1 {
		t.Errorf("ResetData reset %d symbols, want 1", n)
	}
	if got, _ := m.Run("read"); got != 7 {
		t.Errorf("after ResetData: g = %d, want 7 (initializer value)", got)
	}
}

func TestPreCallInjectsAttributedTrap(t *testing.T) {
	caller := buildFunc("caller", 0, 2, 0, []obj.Instr{
		{Op: obj.OpCall, Dst: 1, Sym: "victim", A: obj.NoReg},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
	m := loadFile(t, fileWith(caller, constFunc("victim", 1)))
	m.Img.SymbolOwner = map[string]string{
		"caller": "Top/App#1",
		"victim": "Top/Elem#2",
	}
	calls := 0
	m.PreCall = func(fn string) error {
		if fn != "victim" {
			return nil
		}
		calls++
		if calls < 2 {
			return nil
		}
		return &Trap{Kind: TrapInjected, Msg: "injected fault", Func: fn}
	}
	if got, err := m.Run("caller"); err != nil || got != 1 {
		t.Fatalf("first run: %d, %v", got, err)
	}
	_, err := m.Run("caller")
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("err = %T (%v), want *Trap", err, err)
	}
	if trap.Kind != TrapInjected {
		t.Errorf("kind = %v, want injected", trap.Kind)
	}
	if trap.Unit != "Top/Elem#2" {
		t.Errorf("unit = %q, want Top/Elem#2 (attributed to callee)", trap.Unit)
	}
}
