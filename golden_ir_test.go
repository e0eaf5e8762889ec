// Golden IR test: the optimizer's output for the four Table 1 router
// variants and the three OSKit kernels is pinned byte for byte, so any
// change to what value numbering, dead-code elimination or inlining
// emits shows up here, not only as a cycle count drifting elsewhere.
package knit

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"knit/internal/clack"
	"knit/internal/compile"
	"knit/internal/knit/build"
	"knit/internal/obj"
	"knit/internal/oskit"
)

const goldenIRPath = "testdata/golden_ir.txt"

// optimizedIR renders every function of every pinned build, each build
// under a header line and its functions sorted by name (obj.File.Funcs
// is a map, so its iteration order is not stable).
func optimizedIR(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	emit := func(name string, o *obj.File) {
		fmt.Fprintf(&b, "=== %s\n", name)
		names := make([]string, 0, len(o.Funcs))
		for n := range o.Funcs {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			b.WriteString(compile.Disasm(o.Funcs[n]))
		}
	}
	for _, v := range []clack.Variant{{}, {HandOptimized: true},
		{Flattened: true}, {HandOptimized: true, Flattened: true}} {
		res, err := clack.BuildRouter(v)
		if err != nil {
			t.Fatalf("router %s: %v", v, err)
		}
		emit("router "+v.String(), res.Object)
	}
	for _, k := range []string{"HelloKernel", "FsKernel", "BigKernel"} {
		res, err := oskit.BuildKernel(k, build.Options{Optimize: true})
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		emit("kernel "+k, res.Object)
	}
	return b.String()
}

// TestGoldenIR compares the optimized IR with the committed golden
// file. On a mismatch it writes the new rendering next to the golden as
// golden_ir.got; after a deliberate optimizer change, review that file
// and move it over golden_ir.txt.
func TestGoldenIR(t *testing.T) {
	got := optimizedIR(t)
	want, err := os.ReadFile(goldenIRPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gotPath := filepath.Join(filepath.Dir(goldenIRPath), "golden_ir.got")
	if err := os.WriteFile(gotPath, []byte(got), 0o644); err != nil {
		t.Error(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("optimized IR differs from %s at line %d (full output in %s):\n got: %q\nwant: %q",
				goldenIRPath, i+1, gotPath, g, w)
		}
	}
}
