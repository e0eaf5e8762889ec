package ldlink

import (
	"errors"
	"strings"
	"testing"

	"knit/internal/asm"
	"knit/internal/cmini"
	"knit/internal/compile"
	"knit/internal/machine"
	"knit/internal/obj"
)

// co compiles cmini source into an object file.
func co(t *testing.T, name, src string) *obj.File {
	t.Helper()
	f, err := cmini.Parse(name, src)
	if err != nil {
		t.Fatalf("parse %s: %v", name, err)
	}
	o, err := compile.Compile(f, compile.Options{})
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return o
}

func run(t *testing.T, f *obj.File, entry string, args ...int64) int64 {
	t.Helper()
	img, err := machine.Load(f, machine.DefaultCosts())
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	m := machine.New(img)
	v, err := m.Run(entry, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestLinkTwoObjects(t *testing.T) {
	client := co(t, "client.c", `
extern int serve(int x);
int main_(int x) { return serve(x) + 1; }
`)
	server := co(t, "server.c", `int serve(int x) { return x * 2; }`)
	out, err := Link([]Item{Obj(client), Obj(server)}, Options{Entry: "main_"})
	if err != nil {
		t.Fatal(err)
	}
	if v := run(t, out, "main_", 5); v != 11 {
		t.Errorf("main_(5) = %d, want 11", v)
	}
}

func TestUndefinedReference(t *testing.T) {
	client := co(t, "client.c", `
extern int serve(int x);
int main_(int x) { return serve(x); }
`)
	_, err := Link([]Item{Obj(client)}, Options{})
	var ue *UndefinedError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UndefinedError", err)
	}
	if len(ue.Syms) != 1 || ue.Syms[0] != "serve" {
		t.Errorf("undefined = %v", ue.Syms)
	}
}

func TestMultipleDefinition(t *testing.T) {
	a := co(t, "a.c", `int serve(int x) { return 1; }`)
	b := co(t, "b.c", `int serve(int x) { return 2; }`)
	_, err := Link([]Item{Obj(a), Obj(b)}, Options{})
	var md *MultipleDefinitionError
	if !errors.As(err, &md) {
		t.Fatalf("err = %v, want MultipleDefinitionError", err)
	}
	if md.Sym != "serve" {
		t.Errorf("sym = %q", md.Sym)
	}
}

func TestStaticsDoNotClash(t *testing.T) {
	a := co(t, "a.c", `
static int state = 10;
int get_a(void) { return state; }
`)
	b := co(t, "b.c", `
static int state = 20;
int get_b(void) { return state; }
`)
	out, err := Link([]Item{Obj(a), Obj(b)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := run(t, out, "get_a"); v != 10 {
		t.Errorf("get_a = %d", v)
	}
	if v := run(t, out, "get_b"); v != 20 {
		t.Errorf("get_b = %d", v)
	}
}

func TestArchivePullsOnlyNeededMembers(t *testing.T) {
	client := co(t, "client.c", `
extern int alpha(void);
int main_(void) { return alpha(); }
`)
	libAlpha := co(t, "alpha.c", `int alpha(void) { return 1; }`)
	libBeta := co(t, "beta.c", `int beta(void) { return 2; }`)
	lib := &Archive{Name: "libx.a", Members: []*obj.File{libAlpha, libBeta}}
	out, err := Link([]Item{Obj(client), Lib(lib)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Sym("beta") != nil {
		t.Error("unneeded archive member beta was included")
	}
	if v := run(t, out, "main_"); v != 1 {
		t.Errorf("main_ = %d", v)
	}
}

func TestArchiveMemberChains(t *testing.T) {
	// Member A needs member B: the archive is rescanned until fixpoint.
	client := co(t, "client.c", `
extern int top(void);
int main_(void) { return top(); }
`)
	a := co(t, "a.c", `
extern int bottom(void);
int top(void) { return bottom() + 1; }
`)
	b := co(t, "b.c", `int bottom(void) { return 41; }`)
	lib := &Archive{Name: "lib.a", Members: []*obj.File{a, b}}
	out, err := Link([]Item{Obj(client), Lib(lib)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := run(t, out, "main_"); v != 42 {
		t.Errorf("main_ = %d", v)
	}
}

func TestOverrideByOrder(t *testing.T) {
	// The paper (§5 "Before Knit"): "a careful ordering of ld's arguments
	// would allow a programmer to override an existing component". The
	// replacement object comes before the library, so the library member
	// is never pulled.
	client := co(t, "client.c", `
extern int console_put(int c);
int main_(void) { return console_put(7); }
`)
	replacement := co(t, "myconsole.c", `int console_put(int c) { return c * 100; }`)
	original := co(t, "console.c", `int console_put(int c) { return c; }`)
	lib := &Archive{Name: "liboskit.a", Members: []*obj.File{original}}

	out, err := Link([]Item{Obj(client), Obj(replacement), Lib(lib)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v := run(t, out, "main_"); v != 700 {
		t.Errorf("override failed: main_ = %d, want 700", v)
	}
}

// TestFigure1cInterpositionImpossible demonstrates the paper's Figure
// 1(c): a logging component that wants to wrap serve_web cannot be linked
// with ld — its definition of serve_web collides with the server's, and
// there is no way to tell the flat namespace which of the two the client
// (or the logger itself) should see.
func TestFigure1cInterpositionImpossible(t *testing.T) {
	client := co(t, "client.c", `
extern int serve_web(int req);
int handle(int req) { return serve_web(req); }
`)
	server := co(t, "server.c", `
int serve_web(int req) { return req + 1000; }
`)
	logger := co(t, "logger.c", `
extern int serve_web(int req); // wants the *server's* serve_web ...
static int logged = 0;
int log_count(void) { return logged; }
// ... while exporting its own serve_web to the client: impossible, the
// two names collide in ld's global namespace.
int serve_web(int req) {
    logged++;
    return serve_web(req); // and this recurses instead of calling the server
}
`)
	_ = logger // the compiler itself already resolves the call to the local def

	_, err := Link([]Item{Obj(client), Obj(logger), Obj(server)}, Options{})
	var md *MultipleDefinitionError
	if !errors.As(err, &md) {
		t.Fatalf("err = %v, want multiple definition of serve_web", err)
	}
	if md.Sym != "serve_web" {
		t.Errorf("colliding symbol = %q, want serve_web", md.Sym)
	}
}

func TestAllowUndefinedBuiltins(t *testing.T) {
	client := co(t, "client.c", `
extern int __console_out(int c);
int main_(void) { __console_out(65); return 0; }
`)
	out, err := Link([]Item{Obj(client)}, Options{AllowUndefined: []string{"__*"}})
	if err != nil {
		t.Fatal(err)
	}
	img, err := machine.Load(out, machine.DefaultCosts())
	if err != nil {
		t.Fatal(err)
	}
	m := machine.New(img)
	c := machine.InstallConsole(m)
	if _, err := m.Run("main_"); err != nil {
		t.Fatal(err)
	}
	if c.String() != "A" {
		t.Errorf("console = %q", c.String())
	}
}

func TestMissingEntry(t *testing.T) {
	a := co(t, "a.c", `int f(void) { return 0; }`)
	_, err := Link([]Item{Obj(a)}, Options{Entry: "main_"})
	if err == nil || !strings.Contains(err.Error(), "entry symbol") {
		t.Errorf("err = %v, want entry symbol error", err)
	}
}

func TestLinkDoesNotMutateInputs(t *testing.T) {
	a := co(t, "a.c", `
static int state = 10;
int get_a(void) { return state; }
`)
	b := co(t, "b.c", `
static int state = 20;
int get_b(void) { return state; }
`)
	before := a.Funcs["get_a"].Code[0].Sym
	if _, err := Link([]Item{Obj(a), Obj(b)}, Options{}); err != nil {
		t.Fatal(err)
	}
	if a.Funcs["get_a"].Code[0].Sym != before {
		t.Error("linking mutated input object")
	}

	// The first object's extern is defined by a later one (the merged
	// symbol table overwrites the undefined entry), and the later
	// object's string literal moves to a new index in the merged table.
	user := co(t, "user.c", `
extern int lib_len(char *s);
char *greeting = "hi";
int use(void) { return lib_len(greeting); }
`)
	lib := co(t, "lib.c", `
char *sep = ",";
int lib_len(char *s) {
	int n = 0;
	while (s[n]) { n++; }
	return n + strlen_of(sep);
}
int strlen_of(char *s) { char *comma = ","; if (s[0] == comma[0]) { return 10; } return 0; }
`)
	inputs := []*obj.File{a, b, user, lib}
	want := make([]string, len(inputs))
	for i, o := range inputs {
		want[i] = asm.Format(o)
	}
	out, err := Link([]Item{Obj(a), Obj(b), Obj(user), Obj(lib)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t, out, "use"); got != 12 {
		t.Errorf("use() = %d, want 12", got)
	}
	for i, o := range inputs {
		if got := asm.Format(o); got != want[i] {
			t.Errorf("Link mutated %s:\n%s\nwant\n%s", o.Name, got, want[i])
		}
	}
}
