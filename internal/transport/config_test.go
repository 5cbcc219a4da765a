package transport

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestConfigsAreReadOnly keeps the transports' configs shared safely: a
// scheme builds each config once and every endpoint of every flow holds a
// pointer to it, so no transport may write one at run time. It parses the
// non-test sources of this package and its sub-packages and fails on any
// assignment or ++/-- that writes through an owner's cfg field (s.cfg.X
// = …) or through a *…Config parameter or receiver (cfg.X = …, *cfg =
// …). Writes to a config value being built (cfg := DefaultConfig();
// cfg.X = …) stay legal: that is how schemes and constructors make one.
func TestConfigsAreReadOnly(t *testing.T) {
	fset := token.NewFileSet()
	for _, files := range parseSources(t, fset) {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var ptrs map[string]bool
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					ptrs, body = configPointers(fn.Recv, fn.Type.Params), fn.Body
				case *ast.FuncLit:
					ptrs, body = configPointers(nil, fn.Type.Params), fn.Body
				default:
					return true
				}
				if body == nil {
					return false
				}
				ast.Inspect(body, func(n ast.Node) bool {
					if _, ok := n.(*ast.FuncLit); ok {
						return false // checked with its own parameters
					}
					for _, e := range assigned(n) {
						if writesConfig(e, ptrs) {
							t.Errorf("%s: writes a shared config", fset.Position(e.Pos()))
						}
					}
					return true
				})
				return true
			})
		}
	}
}

// parseSources parses the non-test sources of this package and of each
// transport sub-package, by directory, and fails unless every transport
// was found.
func parseSources(t *testing.T, fset *token.FileSet) map[string][]*ast.File {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := filepath.Glob("*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	byDir := map[string][]*ast.File{}
	for _, path := range append(files, sub...) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		byDir[filepath.Dir(path)] = append(byDir[filepath.Dir(path)], f)
	}
	for _, dir := range []string{".", "core", "dctcp", "expresspass", "flexpass", "homa", "phost", "schemes"} {
		if byDir[dir] == nil {
			t.Fatalf("no source file found in %s; the transports were not found", dir)
		}
	}
	return byDir
}

// assigned lists what n writes: an assignment's (not a definition's)
// left-hand sides, or an ++/--'s operand.
func assigned(n ast.Node) []ast.Expr {
	switch st := n.(type) {
	case *ast.AssignStmt:
		if st.Tok != token.DEFINE {
			return st.Lhs
		}
	case *ast.IncDecStmt:
		return []ast.Expr{st.X}
	}
	return nil
}

// configPointers names the receiver and parameters declared as a pointer
// to a type whose name ends in Config.
func configPointers(lists ...*ast.FieldList) map[string]bool {
	names := map[string]bool{}
	for _, l := range lists {
		if l == nil {
			continue
		}
		for _, fld := range l.List {
			star, ok := fld.Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			typ := star.X
			if sel, ok := typ.(*ast.SelectorExpr); ok {
				typ = sel.Sel
			}
			if id, ok := typ.(*ast.Ident); ok && strings.HasSuffix(id.Name, "Config") {
				for _, n := range fld.Names {
					names[n.Name] = true
				}
			}
		}
	}
	return names
}

// writesConfig reports whether assigning to e writes a config: e selects
// a field, an element or the pointee below an owner's cfg field or a
// config pointer parameter.
func writesConfig(e ast.Expr, ptrs map[string]bool) bool {
	below := false // e goes through a selector, index or dereference
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if below && x.Sel.Name == "cfg" {
				return true
			}
			e, below = x.X, true
		case *ast.IndexExpr:
			e, below = x.X, true
		case *ast.StarExpr:
			e, below = x.X, true
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return below && ptrs[x.Name]
		default:
			return false
		}
	}
}

// variedConfigs are the transports whose Config keeps only what a scheme
// varies; what the paper fixes is a constant.
var variedConfigs = []string{"dctcp", "expresspass", "flexpass", "phost"}

// unvariedKnobs are the exported Config fields no non-test code outside
// their constructor writes, kept on purpose, each with its reason.
var unvariedKnobs = map[string]string{
	"flexpass.NewCreditSource": "the §4.3 pHost credit source (phost.NewFlexSource) that EXPERIMENTS.md reports plugs in here",
}

// TestConfigKnobsVary keeps single-valued knobs out of the transports'
// configs: every exported field of a variedConfigs Config must be written
// — directly, or through it as in cfg.Pacer.Trace = … — by some non-test
// code other than its own package's DefaultConfig or LegacyConfig, or be
// listed in unvariedKnobs. A field only the constructor sets has one
// value, which belongs in a constant.
func TestConfigKnobsVary(t *testing.T) {
	fset := token.NewFileSet()
	srcs := parseSources(t, fset)
	fields := map[string]bool{}    // "pkg.Field" → written outside the constructor
	results := map[string]string{} // "pkg.Func" → pkg of the Config it returns
	for dir, files := range srcs {
		pkg := filepath.Base(dir)
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						results[pkg+"."+d.Name.Name] = configResult(d, pkg)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok || configType(ts.Name, pkg) == "" {
							continue
						}
						for _, fld := range ts.Type.(*ast.StructType).Fields.List {
							for _, n := range fld.Names {
								if n.IsExported() {
									fields[pkg+"."+n.Name] = false
								}
							}
						}
					}
				}
			}
		}
	}
	for dir, files := range srcs {
		pkg := filepath.Base(dir)
		for _, f := range files {
			for _, d := range f.Decls {
				ctor := ""
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil &&
					(fd.Name.Name == "DefaultConfig" || fd.Name.Name == "LegacyConfig") {
					ctor = pkg
				}
				write := func(cpkg, field string) {
					key := cpkg + "." + field
					if _, ok := fields[key]; ok && cpkg != ctor {
						fields[key] = true
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if lit, ok := n.(*ast.CompositeLit); ok {
						if cpkg := configType(lit.Type, pkg); cpkg != "" {
							for _, el := range lit.Elts {
								if kv, ok := el.(*ast.KeyValueExpr); ok {
									write(cpkg, kv.Key.(*ast.Ident).Name)
								}
							}
						}
					}
					for _, e := range assigned(n) {
						if root, field := writtenField(e); root != nil {
							write(configOf(root, pkg, results), field)
						}
					}
					return true
				})
			}
		}
	}
	var single []string
	for key, varied := range fields {
		if _, kept := unvariedKnobs[key]; !varied && !kept {
			single = append(single, key)
		}
	}
	slices.Sort(single)
	for _, key := range single {
		t.Errorf("%s is written only by its constructor: a single-valued knob belongs in a constant", key)
	}
	for key := range unvariedKnobs {
		if _, ok := fields[key]; !ok {
			t.Errorf("unvariedKnobs lists %s, which is no Config field", key)
		}
	}
}

// writtenField names the root variable and first field of a write below
// it (cfg.Pacer.Trace = … writes cfg's Pacer), or nil when e does not
// select a field of a variable.
func writtenField(e ast.Expr) (*ast.Ident, string) {
	field := ""
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e, field = x.X, x.Sel.Name
		case *ast.IndexExpr:
			e, field = x.X, ""
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			if field == "" {
				return nil, ""
			}
			return x, field
		default:
			return nil, ""
		}
	}
}

// configOf is the package whose Config the variable id holds, by its
// declaration in package pkg — a parameter or var of a Config type, or a
// definition from a Config literal or from a function returning one
// (results) — or "".
func configOf(id *ast.Ident, pkg string, results map[string]string) string {
	if id.Obj == nil {
		return ""
	}
	var value ast.Expr
	switch decl := id.Obj.Decl.(type) {
	case *ast.Field:
		return configType(decl.Type, pkg)
	case *ast.ValueSpec:
		if decl.Type != nil {
			return configType(decl.Type, pkg)
		}
		for i, n := range decl.Names {
			if n.Name == id.Name && i < len(decl.Values) {
				value = decl.Values[i]
			}
		}
	case *ast.AssignStmt:
		for i, l := range decl.Lhs {
			if l, ok := l.(*ast.Ident); ok && l.Name == id.Name && len(decl.Rhs) == len(decl.Lhs) {
				value = decl.Rhs[i]
			}
		}
	}
	for {
		switch v := value.(type) {
		case *ast.UnaryExpr:
			value = v.X
		case *ast.CompositeLit:
			return configType(v.Type, pkg)
		case *ast.CallExpr:
			switch fn := v.Fun.(type) {
			case *ast.Ident:
				return results[pkg+"."+fn.Name]
			case *ast.SelectorExpr:
				if x, ok := fn.X.(*ast.Ident); ok {
					return results[x.Name+"."+fn.Sel.Name]
				}
			}
			return ""
		default:
			return ""
		}
	}
}

// configResult is the package whose Config fd, declared in pkg, returns
// (by value or pointer) as its only result, or "".
func configResult(fd *ast.FuncDecl, pkg string) string {
	if r := fd.Type.Results; r != nil && len(r.List) == 1 && len(r.List[0].Names) <= 1 {
		return configType(r.List[0].Type, pkg)
	}
	return ""
}

// configType is the package of the variedConfigs Config that the type
// expression e, written in package pkg, names (by value or pointer), or
// "".
func configType(e ast.Expr, pkg string) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	switch x := e.(type) {
	case *ast.Ident:
		if x.Name == "Config" && slices.Contains(variedConfigs, pkg) {
			return pkg
		}
	case *ast.SelectorExpr:
		if p, ok := x.X.(*ast.Ident); ok && x.Sel.Name == "Config" && slices.Contains(variedConfigs, p.Name) {
			return p.Name
		}
	}
	return ""
}
