package clack

import (
	"fmt"
	"sort"
	"strings"

	"knit/internal/knit/link"
)

// This file implements Clack's configuration front end: a parser for the
// Click router language —
//
//	fd0 :: FromDevice(0);
//	cl0 :: Classifier;
//	fd0 -> cl0;
//	cl0[1] -> ar0;
//
// — and a compiler from that graph to a Knit compound unit, showing (as
// the paper does in §5.2) that Knit can express both Click's component
// implementations and its linking language.

// elemType describes one element class: its Knit unit, output ports (in
// the order of the unit's Push imports), and whether it takes a device
// argument, exports a Step source, or exports a Stat bundle.
type elemType struct {
	unit     string
	outs     []string // names of Push output ports, in import order
	needsDev bool
	isSource bool // exports Step instead of Push
	hasStat  bool
	noInput  bool // exports no Push input (only sources)
}

var elemTypes = map[string]elemType{
	"FromDevice":    {unit: "FromDevice", outs: []string{"out"}, needsDev: true, isSource: true, noInput: true},
	"Classifier":    {unit: "Classifier", outs: []string{"ip", "arp", "other"}},
	"ARPResponder":  {unit: "ARPResponder", outs: []string{"out"}},
	"CheckIPHeader": {unit: "CheckIPHeader", outs: []string{"out", "bad"}},
	"LookupIPRoute": {unit: "LookupIPRoute", outs: []string{"port0", "port1"}},
	"DecIPTTL":      {unit: "DecIPTTL", outs: []string{"out", "expired"}},
	"FixIPChecksum": {unit: "FixIPChecksum", outs: []string{"out"}},
	"EthEncap":      {unit: "EthEncap", outs: []string{"out"}, needsDev: true},
	"Queue":         {unit: "Queue", outs: []string{"out"}},
	"Counter":       {unit: "Counter", outs: []string{"out"}, hasStat: true},
	"ToDevice":      {unit: "ToDevice", outs: nil, needsDev: true},
	"Discard":       {unit: "Discard", outs: nil},
}

// Element is one declared element instance.
type Element struct {
	Name string
	Type string
	Arg  int // device number for FromDevice/EthEncap/ToDevice
	// conns[i] = name of the element connected to output port i.
	conns []string
}

// NumPorts returns the element's output port count.
func (e *Element) NumPorts() int { return len(e.conns) }

// Conn returns the name of the element connected to output port i.
func (e *Element) Conn(i int) string { return e.conns[i] }

// Graph is a parsed Click configuration.
type Graph struct {
	Elements []*Element
	byName   map[string]*Element
}

// ConfigError is a configuration syntax or consistency error.
type ConfigError struct {
	Line int
	Msg  string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("clack config line %d: %s", e.Line, e.Msg)
}

// ParseConfig parses the Click-syntax configuration language.
// Statements end with ';'. Declarations are "name :: Type" or
// "name :: Type(arg)". Connections are "a -> b", "a [n] -> b",
// chained "a -> b -> c" (chaining uses output port 0 of each hop).
func ParseConfig(src string) (*Graph, error) {
	g := &Graph{byName: map[string]*Element{}}
	line := 0
	for _, rawStmt := range strings.Split(src, ";") {
		line++
		stmt := strings.TrimSpace(rawStmt)
		// Strip comments.
		for {
			i := strings.Index(stmt, "//")
			if i < 0 {
				break
			}
			j := strings.IndexByte(stmt[i:], '\n')
			if j < 0 {
				stmt = strings.TrimSpace(stmt[:i])
				break
			}
			stmt = strings.TrimSpace(stmt[:i] + stmt[i+j:])
		}
		if stmt == "" {
			continue
		}
		if strings.Contains(stmt, "::") {
			if err := g.parseDecl(stmt, line); err != nil {
				return nil, err
			}
			continue
		}
		if strings.Contains(stmt, "->") {
			if err := g.parseConn(stmt, line); err != nil {
				return nil, err
			}
			continue
		}
		return nil, &ConfigError{Line: line, Msg: fmt.Sprintf("cannot parse statement %q", stmt)}
	}
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *Graph) parseDecl(stmt string, line int) error {
	parts := strings.SplitN(stmt, "::", 2)
	name := strings.TrimSpace(parts[0])
	typeStr := strings.TrimSpace(parts[1])
	arg := 0
	if i := strings.IndexByte(typeStr, '('); i >= 0 {
		j := strings.IndexByte(typeStr, ')')
		if j < i {
			return &ConfigError{Line: line, Msg: "unbalanced parentheses"}
		}
		argStr := strings.TrimSpace(typeStr[i+1 : j])
		if argStr != "" {
			if _, err := fmt.Sscanf(argStr, "%d", &arg); err != nil {
				return &ConfigError{Line: line, Msg: fmt.Sprintf("bad argument %q", argStr)}
			}
		}
		typeStr = strings.TrimSpace(typeStr[:i])
	}
	et, ok := elemTypes[typeStr]
	if !ok {
		return &ConfigError{Line: line, Msg: fmt.Sprintf("unknown element class %q", typeStr)}
	}
	if name == "" || strings.ContainsAny(name, " \t[]") {
		return &ConfigError{Line: line, Msg: fmt.Sprintf("bad element name %q", name)}
	}
	if _, dup := g.byName[name]; dup {
		return &ConfigError{Line: line, Msg: fmt.Sprintf("element %q redeclared", name)}
	}
	e := &Element{Name: name, Type: typeStr, Arg: arg, conns: make([]string, len(et.outs))}
	g.Elements = append(g.Elements, e)
	g.byName[name] = e
	return nil
}

// parseConn handles "a [p] -> b [q] -> c". Input port selectors on the
// right side are accepted but must be [0] (Clack elements have a single
// input).
func (g *Graph) parseConn(stmt string, line int) error {
	hops := strings.Split(stmt, "->")
	for h := 0; h+1 < len(hops); h++ {
		from, outPort, err := parseEndpoint(hops[h], line, h > 0)
		if err != nil {
			return err
		}
		to, inPort, err := parseEndpoint(hops[h+1], line, true)
		if err != nil {
			return err
		}
		if inPort != 0 && h+1 < len(hops)-1 {
			return &ConfigError{Line: line, Msg: "input port selector on a chained hop"}
		}
		if inPort != 0 {
			return &ConfigError{Line: line, Msg: fmt.Sprintf("element %q has a single input port", to)}
		}
		fe, ok := g.byName[from]
		if !ok {
			return &ConfigError{Line: line, Msg: fmt.Sprintf("unknown element %q", from)}
		}
		if _, ok := g.byName[to]; !ok {
			return &ConfigError{Line: line, Msg: fmt.Sprintf("unknown element %q", to)}
		}
		if outPort >= len(fe.conns) {
			return &ConfigError{Line: line, Msg: fmt.Sprintf(
				"element %q (%s) has %d output ports, port %d used", from, fe.Type, len(fe.conns), outPort)}
		}
		if fe.conns[outPort] != "" {
			return &ConfigError{Line: line, Msg: fmt.Sprintf(
				"output port %d of %q connected twice", outPort, from)}
		}
		fe.conns[outPort] = to
	}
	return nil
}

// parseEndpoint parses "name", "name [p]" or "[p] name" (the latter is
// an input-port selector).
func parseEndpoint(s string, line int, allowLeading bool) (name string, port int, err error) {
	s = strings.TrimSpace(s)
	if strings.HasPrefix(s, "[") {
		j := strings.IndexByte(s, ']')
		if j < 0 {
			return "", 0, &ConfigError{Line: line, Msg: "unbalanced port selector"}
		}
		fmt.Sscanf(s[1:j], "%d", &port)
		name = strings.TrimSpace(s[j+1:])
		return name, port, nil
	}
	if i := strings.IndexByte(s, '['); i >= 0 {
		j := strings.IndexByte(s, ']')
		if j < i {
			return "", 0, &ConfigError{Line: line, Msg: "unbalanced port selector"}
		}
		fmt.Sscanf(s[i+1:j], "%d", &port)
		name = strings.TrimSpace(s[:i])
		return name, port, nil
	}
	return s, 0, nil
}

func (g *Graph) validate() error {
	if len(g.Elements) == 0 {
		return &ConfigError{Msg: "empty configuration"}
	}
	for _, e := range g.Elements {
		for p, to := range e.conns {
			if to == "" {
				return &ConfigError{Msg: fmt.Sprintf(
					"output port %d of %q (%s) is not connected", p, e.Name, e.Type)}
			}
			te := g.byName[to]
			if elemTypes[te.Type].noInput {
				return &ConfigError{Msg: fmt.Sprintf(
					"%q connects to %q (%s), which has no input", e.Name, to, te.Type)}
			}
		}
	}
	return nil
}

// Sources returns the graph's source elements (FromDevice instances) in
// declaration order.
func (g *Graph) Sources() []*Element {
	var out []*Element
	for _, e := range g.Elements {
		if elemTypes[e.Type].isSource {
			out = append(out, e)
		}
	}
	return out
}

// Counters returns the graph's Counter elements in declaration order.
func (g *Graph) Counters() []*Element {
	var out []*Element
	for _, e := range g.Elements {
		if elemTypes[e.Type].hasStat {
			out = append(out, e)
		}
	}
	return out
}

// CompileToKnit translates the graph into a Knit compound unit plus a
// generated driver, returning the unit-language text (to be combined
// with ElementUnits), the generated sources, and the top unit name.
func (g *Graph) CompileToKnit(topName string) (units string, sources link.Sources, top string, err error) {
	sources = link.Sources{}
	var b strings.Builder

	srcs := g.Sources()
	if len(srcs) == 0 {
		return "", nil, "", &ConfigError{Msg: "configuration has no FromDevice"}
	}

	// Driver unit: polls every source until the traffic runs dry,
	// running the kernel's between-packet work (OSWork) each iteration.
	var drvImports, drvRenames, drvDeps []string
	var drvSrc strings.Builder
	for i, s := range srcs {
		drvImports = append(drvImports, fmt.Sprintf("s%d : Step", i))
		drvRenames = append(drvRenames, fmt.Sprintf("s%d.step to step_%s;", i, s.Name))
		drvDeps = append(drvDeps, fmt.Sprintf("s%d", i))
		fmt.Fprintf(&drvSrc, "int step_%s(void);\n", s.Name)
	}
	drvImports = append(drvImports, "osw : OsWork")
	drvDeps = append(drvDeps, "osw")
	drvSrc.WriteString("int os_work(void);\n")
	drvSrc.WriteString(`
int kmain(int maxiter) {
    int n = 0;
    for (int i = 0; i < maxiter; i++) {
        int got = 0;
`)
	for _, s := range srcs {
		fmt.Fprintf(&drvSrc, "        got += step_%s();\n", s.Name)
		drvSrc.WriteString("        os_work();\n")
	}
	drvSrc.WriteString(`        if (got == 0) { break; }
        n += got;
    }
    return n;
}
`)
	sources["driver.c"] = drvSrc.String()
	fmt.Fprintf(&b, `
unit RouterDriver = {
  imports [ %s ];
  exports [ main : Main ];
  depends { main needs (%s); };
  files { "driver.c" };
  rename {
    %s
  };
}
`, strings.Join(drvImports, ", "), strings.Join(drvDeps, " + "),
		strings.Join(drvRenames, "\n    "))

	// Compound unit. Each element's input port is bound under its own
	// name; Step exports as <name>_step; Stat exports as <name>_stat.
	fmt.Fprintf(&b, "\nunit %s = {\n  exports [ main : Main ];\n  link {\n", topName)

	// Device-number providers, one per distinct device argument.
	devs := map[int]bool{}
	for _, e := range g.Elements {
		if elemTypes[e.Type].needsDev {
			devs[e.Arg] = true
		}
	}
	var devNums []int
	for d := range devs {
		devNums = append(devNums, d)
	}
	sort.Ints(devNums)
	for _, d := range devNums {
		if d != 0 && d != 1 {
			return "", nil, "", &ConfigError{Msg: fmt.Sprintf("device %d not available (devices 0 and 1 exist)", d)}
		}
		fmt.Fprintf(&b, "    [dev%d] <- DevNo%d <- [];\n", d, d)
	}

	for _, e := range g.Elements {
		et := elemTypes[e.Type]
		var outs, ins []string
		if et.isSource {
			outs = append(outs, e.Name+"_step")
		} else {
			outs = append(outs, e.Name)
		}
		if et.hasStat {
			outs = append(outs, e.Name+"_stat")
		}
		for _, to := range e.conns {
			ins = append(ins, to)
		}
		if et.needsDev {
			ins = append(ins, fmt.Sprintf("dev%d", e.Arg))
		}
		fmt.Fprintf(&b, "    [%s] <- %s <- [%s];\n",
			strings.Join(outs, ", "), et.unit, strings.Join(ins, ", "))
	}
	b.WriteString("    [osw] <- OSWork <- [];\n")
	var drvIns []string
	for _, s := range srcs {
		drvIns = append(drvIns, s.Name+"_step")
	}
	drvIns = append(drvIns, "osw")
	fmt.Fprintf(&b, "    [main] <- RouterDriver <- [%s];\n  };\n}\n",
		strings.Join(drvIns, ", "))

	return b.String(), sources, topName, nil
}
