package machine

import (
	"errors"
	"strings"
	"testing"

	"knit/internal/obj"
)

// Trap-path tests: each fault class must produce a Trap with the right
// Kind, and top-level runs must attribute the trap to the unit instance
// owning the faulting function via the image's link-time symbol map.

func TestTrapKindsAndUnitAttribution(t *testing.T) {
	cases := []struct {
		name    string
		fn      *obj.Func
		args    []int64
		kind    TrapKind
		msgPart string
	}{
		{
			name: "bad string index",
			fn: buildFunc("f", 0, 2, 0, []obj.Instr{
				{Op: obj.OpAddrString, Dst: 1, Imm: 99, A: obj.NoReg},
				{Op: obj.OpRet, A: 1, HasVal: true},
			}),
			kind:    TrapBadStringIndex,
			msgPart: "bad string literal index",
		},
		{
			name: "indirect call to non-function",
			fn: buildFunc("f", 1, 2, 0, []obj.Instr{
				{Op: obj.OpCallInd, Dst: 1, A: 0},
				{Op: obj.OpRet, A: 1, HasVal: true},
			}),
			args:    []int64{0x7777},
			kind:    TrapUnresolvedSymbol,
			msgPart: "indirect call to non-function address",
		},
		{
			name: "load out of range",
			fn: buildFunc("f", 1, 2, 0, []obj.Instr{
				{Op: obj.OpLoad, Dst: 1, A: 0},
				{Op: obj.OpRet, A: 1, HasVal: true},
			}),
			args:    []int64{1 << 40},
			kind:    TrapBadAddress,
			msgPart: "load from invalid address",
		},
		{
			name: "store out of range",
			fn: buildFunc("f", 1, 2, 0, []obj.Instr{
				{Op: obj.OpStore, A: 0, B: 0},
				{Op: obj.OpRet, HasVal: false},
			}),
			args:    []int64{1 << 40},
			kind:    TrapBadAddress,
			msgPart: "store to invalid address",
		},
		{
			name: "call to undefined function",
			fn: buildFunc("f", 0, 2, 0, []obj.Instr{
				{Op: obj.OpCall, Dst: 1, Sym: "no_such_fn", A: obj.NoReg},
				{Op: obj.OpRet, A: 1, HasVal: true},
			}),
			kind:    TrapUndefinedCall,
			msgPart: "call to undefined function",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := loadFile(t, fileWith(tc.fn))
			m.Img.SymbolOwner = map[string]string{"f": "Kernel/Disk#3"}
			_, err := m.Run("f", tc.args...)
			var trap *Trap
			if !errors.As(err, &trap) {
				t.Fatalf("err = %T (%v), want *Trap", err, err)
			}
			if trap.Kind != tc.kind {
				t.Errorf("kind = %d, want %d", trap.Kind, tc.kind)
			}
			if trap.Unit != "Kernel/Disk#3" {
				t.Errorf("unit = %q, want Kernel/Disk#3", trap.Unit)
			}
			if !strings.Contains(err.Error(), tc.msgPart) {
				t.Errorf("message %q lacks %q", err, tc.msgPart)
			}
			if !strings.Contains(err.Error(), "(unit Kernel/Disk#3)") {
				t.Errorf("message %q lacks unit attribution", err)
			}
		})
	}
}

// TestTrapAttributesInnermostFunction: when a call chain crosses
// components, the trap is attributed to the component whose code
// actually faulted, not to the entry point.
func TestTrapAttributesInnermostFunction(t *testing.T) {
	callee := buildFunc("callee", 0, 2, 0, []obj.Instr{
		{Op: obj.OpConst, Dst: 0, Imm: 1 << 40},
		{Op: obj.OpLoad, Dst: 1, A: 0},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
	caller := buildFunc("caller", 0, 2, 0, []obj.Instr{
		{Op: obj.OpCall, Dst: 1, Sym: "callee", A: obj.NoReg},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
	m := loadFile(t, fileWith(caller, callee))
	m.Img.SymbolOwner = map[string]string{
		"caller": "Top/App#1",
		"callee": "Top/Driver#2",
	}
	_, err := m.Run("caller")
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("err = %T, want *Trap: %v", err, err)
	}
	if trap.Func != "callee" || trap.Unit != "Top/Driver#2" {
		t.Errorf("trap = func %q unit %q, want callee owned by Top/Driver#2", trap.Func, trap.Unit)
	}
}

// spinFunc loops forever: reg1 = reg1 + reg1; goto 0.
func spinFunc(name string) *obj.Func {
	return buildFunc(name, 0, 2, 0, []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: 1},
		{Op: obj.OpJump, Targets: [2]int{0, 0}},
	})
}

func TestFuelBudgetTrapsInsteadOfHanging(t *testing.T) {
	m := loadFile(t, fileWith(spinFunc("spin")))
	m.Img.SymbolOwner = map[string]string{"spin": "Top/Spin#1"}
	m.Fuel = 5000
	_, err := m.Run("spin")
	var trap *Trap
	if !errors.As(err, &trap) {
		t.Fatalf("err = %T, want *Trap: %v", err, err)
	}
	if trap.Kind != TrapBudgetExhausted {
		t.Errorf("kind = %d, want TrapBudgetExhausted", trap.Kind)
	}
	if trap.Unit != "Top/Spin#1" {
		t.Errorf("unit = %q, want Top/Spin#1", trap.Unit)
	}
	if !strings.Contains(err.Error(), "fuel budget of 5000 instructions exhausted") {
		t.Errorf("message %q lacks fuel diagnostics", err)
	}
	if m.Executed > 5000 {
		t.Errorf("executed %d instructions past a budget of 5000", m.Executed)
	}
}

// TestFuelBudgetRearmsPerRun: fuel is a per-top-level-run budget, not a
// machine-lifetime one — after a budget trap, the next run gets a fresh
// allowance, and nested calls share their caller's.
func TestFuelBudgetRearmsPerRun(t *testing.T) {
	cheap := buildFunc("cheap", 0, 2, 0, []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: 7},
		{Op: obj.OpRet, A: 1, HasVal: true},
	})
	m := loadFile(t, fileWith(spinFunc("spin"), cheap))
	m.Fuel = 1000
	if _, err := m.Run("spin"); err == nil {
		t.Fatal("runaway loop did not trap")
	}
	// Same machine, same fuel setting: a cheap run succeeds because the
	// budget re-arms at the top level.
	if v, err := m.Run("cheap"); err != nil || v != 7 {
		t.Fatalf("cheap run after budget trap = %d, %v; want 7", v, err)
	}
	// Disabling fuel restores the old unlimited behavior (step limit
	// aside).
	m.Fuel = 0
	m.StepLimit = 2000
	_, err := m.Run("spin")
	var trap *Trap
	if !errors.As(err, &trap) || trap.Kind != TrapBudgetExhausted {
		t.Fatalf("step-limit stop = %v, want budget-exhausted trap", err)
	}
}

// TestSnapshotRestore: Restore must rewind memory writes and
// dynamic-module load/unload, while leaving statistics and builtins
// alone.
func TestSnapshotRestore(t *testing.T) {
	base := fileWith(
		buildFunc("set", 1, 2, 0, []obj.Instr{
			{Op: obj.OpAddrGlobal, Dst: 1, Sym: "g", A: obj.NoReg},
			{Op: obj.OpStore, A: 1, B: 0},
			{Op: obj.OpRet, HasVal: false},
		}),
		buildFunc("get", 0, 2, 0, []obj.Instr{
			{Op: obj.OpAddrGlobal, Dst: 1, Sym: "g", A: obj.NoReg},
			{Op: obj.OpLoad, Dst: 1, A: 1},
			{Op: obj.OpRet, A: 1, HasVal: true},
		}),
	)
	base.Datas["g"] = &obj.Data{Name: "g", Size: 1,
		Init: []obj.DataInit{{Kind: obj.InitConst, Val: 11}}}
	base.AddSym(&obj.Symbol{Name: "g", Kind: obj.SymData, Defined: true})
	m := loadFile(t, base)

	if _, err := m.Run("set", 42); err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	execAtSnap := m.Executed

	// Mutate state past the snapshot: a store and a dynamic load.
	if _, err := m.Run("set", 99); err != nil {
		t.Fatal(err)
	}
	mod := obj.NewFile("mod")
	mod.Funcs["dyn_one"] = &obj.Func{Name: "dyn_one", NRegs: 2, Code: []obj.Instr{
		{Op: obj.OpConst, Dst: 1, Imm: 1},
		{Op: obj.OpRet, A: 1, HasVal: true},
	}}
	mod.AddSym(&obj.Symbol{Name: "dyn_one", Kind: obj.SymFunc, Defined: true})
	if err := loadDynamic(m, mod); err != nil {
		t.Fatal(err)
	}

	m.Restore(snap)
	if v, _ := m.Run("get"); v != 42 {
		t.Errorf("g = %d after restore, want 42", v)
	}
	if _, err := m.Run("dyn_one"); err == nil {
		t.Error("module loaded after the snapshot survived the restore")
	}
	if mods := m.DynModules(); len(mods) != 0 {
		t.Errorf("live modules after restore: %v", mods)
	}
	if m.Executed <= execAtSnap {
		t.Error("restore rewound the statistics; it must not")
	}

	// The other direction: a snapshot taken while a module is live
	// brings the module back after an unload.
	if err := loadDynamic(m, mod); err != nil {
		t.Fatal(err)
	}
	withMod := m.Snapshot()
	if err := m.UnloadDynamic("mod"); err != nil {
		t.Fatal(err)
	}
	m.Restore(withMod)
	if v, err := m.Run("dyn_one"); err != nil || v != 1 {
		t.Errorf("dyn_one after restore = %d, %v; want 1", v, err)
	}
	if err := m.CheckDynInvariants(); err != nil {
		t.Error(err)
	}
}

// TestTrapKindStringExhaustive walks every declared kind: each must
// have a distinct, non-placeholder name. Adding a TrapKind without a
// trapKindNames entry fails here (and the array bound fails the build
// if a kind is added after numTrapKinds).
func TestTrapKindStringExhaustive(t *testing.T) {
	seen := map[string]TrapKind{}
	for k := TrapKind(0); k < numTrapKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "TrapKind(") {
			t.Errorf("TrapKind(%d) has no name", int(k))
			continue
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("TrapKind(%d) and TrapKind(%d) share name %q", int(prev), int(k), s)
		}
		seen[s] = k
	}
	if got := TrapKind(999).String(); got != "TrapKind(999)" {
		t.Errorf("out-of-range String() = %q", got)
	}
	if got := TrapInjected.String(); got != "injected" {
		t.Errorf("TrapInjected.String() = %q, want injected", got)
	}
}
