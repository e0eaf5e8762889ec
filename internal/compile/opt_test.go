package compile

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"knit/internal/cmini"
	"knit/internal/machine"
	"knit/internal/obj"
)

func compileSrc(t *testing.T, opts Options, src string) *machine.M {
	t.Helper()
	return machineFor(t, opts, src)
}

func TestConstantFolding(t *testing.T) {
	src := `int f(void) { return 2 * 3 + 4 * 5 - 1; }`
	f, _ := cmini.Parse("t.c", src)
	o, err := Compile(f, Options{Opt: true})
	if err != nil {
		t.Fatal(err)
	}
	fn := o.Funcs["f"]
	// After folding + DCE: one OpConst and one OpRet.
	if len(fn.Code) > 2 {
		t.Errorf("folded function has %d instrs, want <= 2:\n%s", len(fn.Code), Disasm(fn))
	}
}

func TestCSEEliminatesRedundantLoads(t *testing.T) {
	src := `
static int g = 7;
int f(int a) {
    return g + g + g * a;
}
`
	f, _ := cmini.Parse("t.c", src)
	o, err := Compile(f, Options{Opt: true})
	if err != nil {
		t.Fatal(err)
	}
	fn := o.Funcs["f"]
	loads := 0
	for _, in := range fn.Code {
		if in.Op.String() == "load" {
			loads++
		}
	}
	if loads != 1 {
		t.Errorf("got %d loads of g, want 1:\n%s", loads, Disasm(fn))
	}
}

func TestCSEInvalidatedByStore(t *testing.T) {
	src := `
static int g = 1;
int f(void) {
    int a = g;
    g = 5;
    int b = g;
    return a * 10 + b;
}
`
	both(t, src, "f", 15)
}

func TestCSEInvalidatedByCall(t *testing.T) {
	src := `
static int g = 1;
static int huge_pad(int x) {
    // Large enough that the inliner refuses, so the call survives and
    // must invalidate the cached load of g.
    int s = 0;
    s += x; s += x; s += x; s += x; s += x; s += x; s += x; s += x;
    s += x; s += x; s += x; s += x; s += x; s += x; s += x; s += x;
    s += x; s += x; s += x; s += x; s += x; s += x; s += x; s += x;
    s += x; s += x; s += x; s += x; s += x; s += x; s += x; s += x;
    s += x; s += x; s += x; s += x; s += x; s += x; s += x; s += x;
    s += x; s += x; s += x; s += x; s += x; s += x; s += x; s += x;
    g = g + 1;
    return s;
}
int f(void) {
    int a = g;
    huge_pad(1);
    int b = g;
    return a * 10 + b;
}
`
	both(t, src, "f", 12)
}

func TestInliningRemovesCalls(t *testing.T) {
	src := `
static int add1(int x) { return x + 1; }
static int add2(int x) { return add1(add1(x)); }
int f(int x) { return add2(add2(x)); }
`
	m := compileSrc(t, Options{Opt: true}, src)
	v, err := m.Run("f", 10)
	if err != nil {
		t.Fatal(err)
	}
	if v != 14 {
		t.Fatalf("f(10) = %d, want 14", v)
	}
	if m.Calls != 0 {
		t.Errorf("optimized run executed %d calls, want 0 (all inlined)", m.Calls)
	}

	m2 := compileSrc(t, Options{}, src)
	if _, err := m2.Run("f", 10); err != nil {
		t.Fatal(err)
	}
	if m2.Calls == 0 {
		t.Error("unoptimized run should execute calls")
	}
	if m2.Cycles <= m.Cycles {
		t.Errorf("unoptimized (%d cycles) should be slower than optimized (%d)", m2.Cycles, m.Cycles)
	}
}

func TestInliningSkipsRecursion(t *testing.T) {
	src := `
int fact(int n) {
    if (n <= 1) { return 1; }
    return n * fact(n - 1);
}
`
	m := compileSrc(t, Options{Opt: true}, src)
	v, err := m.Run("fact", 6)
	if err != nil {
		t.Fatal(err)
	}
	if v != 720 {
		t.Errorf("fact(6) = %d, want 720", v)
	}
}

func TestInliningExternStaysCall(t *testing.T) {
	// Calls to extern (imported) functions cannot be inlined: the
	// compiler only sees one translation unit — the property Knit's
	// flattening exploits.
	src := `
extern int imported(int x);
int f(int x) { return imported(x) + imported(x); }
`
	f, _ := cmini.Parse("t.c", src)
	o, err := Compile(f, Options{Opt: true})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	for _, in := range o.Funcs["f"].Code {
		if in.Sym == "imported" {
			calls++
		}
	}
	if calls != 2 {
		t.Errorf("got %d calls to imported, want 2", calls)
	}
}

func TestInlinedFramesAreDistinct(t *testing.T) {
	// Each inlined instance gets its own frame slots: arrays must not
	// overlap when a function is inlined twice.
	src := `
static int sumsq(int n) {
    int a[4];
    for (int i = 0; i < 4; i++) { a[i] = i * n; }
    int s = 0;
    for (int i = 0; i < 4; i++) { s += a[i]; }
    return s;
}
int f(void) { return sumsq(1) * 100 + sumsq(2); }
`
	both(t, src, "f", 600+12)
}

func TestOptimizedFewerCycles(t *testing.T) {
	src := `
static int g = 3;
static int mul(int a, int b) { return a * b; }
int work(int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        s += mul(g, i) + mul(g, i);
    }
    return s;
}
`
	mo := compileSrc(t, Options{Opt: true}, src)
	vo, err := mo.Run("work", 50)
	if err != nil {
		t.Fatal(err)
	}
	mu := compileSrc(t, Options{}, src)
	vu, err := mu.Run("work", 50)
	if err != nil {
		t.Fatal(err)
	}
	if vo != vu {
		t.Fatalf("results differ: opt=%d unopt=%d", vo, vu)
	}
	if mo.Cycles >= mu.Cycles {
		t.Errorf("optimized %d cycles >= unoptimized %d", mo.Cycles, mu.Cycles)
	}
}

// TestQuickDifferential is the compiler's core property-based test:
// random expression programs produce identical results with and without
// the optimizer.
func TestQuickDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	cfg := &quick.Config{MaxCount: 300}
	fn := func() bool {
		e := genDiffExpr(r, 4)
		src := fmt.Sprintf(`
static int g1 = 13;
static int g2 = -7;
int helper(int x) { return x * 2 + 1; }
int f(int a, int b) { return %s; }
`, exprToSrc(e))
		f, err := cmini.Parse("t.c", src)
		if err != nil {
			t.Logf("parse failed: %v\n%s", err, src)
			return false
		}
		run := func(opt bool) (int64, error) {
			o, err := Compile(f, Options{Opt: opt})
			if err != nil {
				return 0, err
			}
			img, err := machine.Load(o, machine.DefaultCosts())
			if err != nil {
				return 0, err
			}
			m := machine.New(img)
			return m.Run("f", 5, -3)
		}
		v1, err1 := run(false)
		v2, err2 := run(true)
		if (err1 == nil) != (err2 == nil) {
			// Both must trap or both succeed (e.g. divide by zero).
			t.Logf("error mismatch: unopt=%v opt=%v\n%s", err1, err2, src)
			return false
		}
		if err1 != nil {
			return true
		}
		if v1 != v2 {
			t.Logf("value mismatch: unopt=%d opt=%d\n%s", v1, v2, src)
			return false
		}
		return true
	}
	if err := quick.Check(fn, cfg); err != nil {
		t.Error(err)
	}
}

func genDiffExpr(r *rand.Rand, depth int) string {
	if depth <= 0 {
		switch r.Intn(5) {
		case 0:
			return fmt.Sprintf("%d", r.Intn(40)-20)
		case 1:
			return "a"
		case 2:
			return "b"
		case 3:
			return "g1"
		default:
			return "g2"
		}
	}
	ops := []string{"+", "-", "*", "/", "%", "<<", ">>", "<", ">", "==",
		"!=", "&", "|", "^", "&&", "||"}
	switch r.Intn(8) {
	case 0:
		return fmt.Sprintf("(-(%s))", genDiffExpr(r, depth-1))
	case 1:
		return fmt.Sprintf("(!(%s))", genDiffExpr(r, depth-1))
	case 2:
		return fmt.Sprintf("helper(%s)", genDiffExpr(r, depth-1))
	case 3:
		return fmt.Sprintf("(%s ? %s : %s)", genDiffExpr(r, depth-1),
			genDiffExpr(r, depth-1), genDiffExpr(r, depth-1))
	default:
		op := ops[r.Intn(len(ops))]
		return fmt.Sprintf("(%s %s %s)", genDiffExpr(r, depth-1), op,
			genDiffExpr(r, depth-1))
	}
}

func exprToSrc(s string) string { return s }

// ---- value numbering on hand-written IR ----
//
// These tests build IR directly, so each one pins exactly the register
// reuse pattern it is about, then check both what valueNumber emits and
// that the numbered code still computes what the original does.

func irConst(dst obj.Reg, v int64) obj.Instr {
	return obj.Instr{Op: obj.OpConst, Dst: dst, Imm: v, A: obj.NoReg, B: obj.NoReg}
}

func irMov(dst, a obj.Reg) obj.Instr {
	return obj.Instr{Op: obj.OpMov, Dst: dst, A: a, B: obj.NoReg}
}

func irBin(dst, a obj.Reg, op cmini.Tok, b obj.Reg) obj.Instr {
	return obj.Instr{Op: obj.OpBin, Dst: dst, A: a, B: b, Tok: int(op)}
}

func irRet(a obj.Reg) obj.Instr { return obj.Instr{Op: obj.OpRet, A: a, HasVal: true} }

// irFunc is f(a, b) with a in r0 and b in r1.
func irFunc(nregs, frame int, code ...obj.Instr) *obj.Func {
	return &obj.Func{Name: "f", NArgs: 2, NRegs: nregs, Frame: frame, Code: code}
}

func runIR(t *testing.T, fn *obj.Func, args ...int64) int64 {
	t.Helper()
	f := obj.NewFile("ir")
	f.Funcs[fn.Name] = fn
	img, err := machine.Load(f, machine.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	v, err := machine.New(img).Run(fn.Name, args...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// numbered value-numbers a copy of fn and requires the copy to return
// what fn returns for each argument pair.
func numbered(t *testing.T, fn *obj.Func, argPairs ...[2]int64) *obj.Func {
	t.Helper()
	vn := fn.Clone()
	valueNumber(vn)
	for _, args := range argPairs {
		if want, got := runIR(t, fn, args[0], args[1]), runIR(t, vn, args[0], args[1]); got != want {
			t.Errorf("f%v = %d after value numbering, want %d:\n%s", args, got, want, Disasm(vn))
		}
	}
	return vn
}

// wantInstr requires instruction i of fn to be want.
func wantInstr(t *testing.T, fn *obj.Func, i int, want obj.Instr) {
	t.Helper()
	if got := fn.Code[i]; got.Op != want.Op || got.Dst != want.Dst || got.A != want.A ||
		(want.Op != obj.OpMov && got.B != want.B) {
		t.Errorf("instr %d = %+v, want %+v:\n%s", i, got, want, Disasm(fn))
	}
}

// A register that held a value and was then redefined is not that
// value's home any more, however the redefinition was emitted: as a
// fresh constant, as a constant the numbering itself turned into a Mov
// from an earlier register, or as an expression it folded.
func TestVNRedefinedRegisterNotReused(t *testing.T) {
	args := [][2]int64{{3, 4}, {-2, 9}}
	// x = a+b; x = 0; y = a+b
	fresh := numbered(t, irFunc(4, 0,
		irBin(2, 0, cmini.PLUS, 1),
		irConst(2, 0),
		irBin(3, 0, cmini.PLUS, 1),
		irRet(3)), args...)
	wantInstr(t, fresh, 2, irBin(3, 0, cmini.PLUS, 1))

	// z = 0; x = a+b; x = 0 (numbered into x = z); y = a+b
	reused := numbered(t, irFunc(5, 0,
		irConst(4, 0),
		irBin(2, 0, cmini.PLUS, 1),
		irConst(2, 0),
		irBin(3, 0, cmini.PLUS, 1),
		irRet(3)), args...)
	wantInstr(t, reused, 2, irMov(2, 4))
	wantInstr(t, reused, 3, irBin(3, 0, cmini.PLUS, 1))

	// x = a+b; x = 2*3 (folded to x = 6); y = a+b
	folded := numbered(t, irFunc(6, 0,
		irBin(2, 0, cmini.PLUS, 1),
		irConst(4, 2),
		irConst(5, 3),
		irBin(2, 4, cmini.STAR, 5),
		irBin(3, 0, cmini.PLUS, 1),
		irRet(3)), args...)
	wantInstr(t, folded, 3, irConst(2, 6))
	wantInstr(t, folded, 4, irBin(3, 0, cmini.PLUS, 1))
}

// A Mov copies a value without moving its home: the original register
// still serves later recomputations, also after a Mov back into it.
func TestVNMovKeepsHome(t *testing.T) {
	fn := numbered(t, irFunc(6, 0,
		irBin(2, 0, cmini.PLUS, 1), // home of a+b
		irMov(3, 2),
		irBin(4, 0, cmini.PLUS, 1), // -> r4 = r2
		irMov(2, 3),                // same value back: still home
		irBin(5, 0, cmini.PLUS, 1), // -> r5 = r2
		irBin(5, 5, cmini.PLUS, 4),
		irRet(5)), [2]int64{3, 4}, [2]int64{-7, 2})
	wantInstr(t, fn, 2, irMov(4, 2))
	wantInstr(t, fn, 4, irMov(5, 2))
}

// Both successors of a branch start from the branch block's state, and
// neither sees what the other learned or redefined.
func TestVNBranchSuccessorsIndependent(t *testing.T) {
	fn := numbered(t, irFunc(8, 0,
		irBin(2, 0, cmini.PLUS, 1), // 0: home of a+b
		obj.Instr{Op: obj.OpBranch, A: 0, Targets: [2]int{2, 7}},
		// then: redefine the home, learn a*b
		irConst(2, 0),              // 2
		irBin(3, 0, cmini.PLUS, 1), // 3: must recompute
		irBin(4, 0, cmini.STAR, 1), // 4: home of a*b, in this block only
		irBin(4, 4, cmini.PLUS, 3), // 5
		irRet(4),                   // 6
		// else: r2 is still the home of a+b, and r4 holds nothing
		irBin(5, 0, cmini.PLUS, 1), // 7: -> r5 = r2
		irBin(6, 0, cmini.STAR, 1), // 8: must compute
		irBin(7, 5, cmini.PLUS, 6), // 9
		irRet(7)),                  // 10
		[2]int64{3, 4}, [2]int64{0, 4}, [2]int64{-5, 6})
	wantInstr(t, fn, 3, irBin(3, 0, cmini.PLUS, 1))
	wantInstr(t, fn, 7, irMov(5, 2))
	wantInstr(t, fn, 8, irBin(6, 0, cmini.STAR, 1))
}

// A store kills every cached load, since any store may alias any load,
// but leaves pure expressions available.
func TestVNStoreKillsLoadsNotPure(t *testing.T) {
	addr := obj.Instr{Op: obj.OpAddrLocal, Dst: 2, Imm: 0, A: obj.NoReg, B: obj.NoReg}
	store := func(v obj.Reg) obj.Instr { return obj.Instr{Op: obj.OpStore, A: 2, B: v, Dst: obj.NoReg} }
	load := func(dst obj.Reg) obj.Instr { return obj.Instr{Op: obj.OpLoad, Dst: dst, A: 2, B: obj.NoReg} }
	fn := numbered(t, irFunc(10, 1,
		addr,                       // 0
		store(0),                   // 1: slot = a
		load(3),                    // 2
		load(4),                    // 3: -> r4 = r3
		irBin(5, 0, cmini.PLUS, 1), // 4: home of a+b
		store(1),                   // 5: slot = b
		load(6),                    // 6: must reload
		irBin(7, 0, cmini.PLUS, 1), // 7: -> r7 = r5
		irBin(8, 6, cmini.PLUS, 7), // 8: b + (a+b)
		irBin(9, 8, cmini.PLUS, 4), // 9: ... + a
		irRet(9)), [2]int64{3, 4}, [2]int64{-1, 10})
	wantInstr(t, fn, 3, irMov(4, 3))
	wantInstr(t, fn, 6, load(6))
	wantInstr(t, fn, 7, irMov(7, 5))
}
