package transport

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
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
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := filepath.Glob("*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	fset := token.NewFileSet()
	for _, path := range append(files, sub...) {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		checked++
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
				var lhs []ast.Expr
				switch st := n.(type) {
				case *ast.AssignStmt:
					if st.Tok != token.DEFINE {
						lhs = st.Lhs
					}
				case *ast.IncDecStmt:
					lhs = []ast.Expr{st.X}
				case *ast.FuncLit:
					return false // checked with its own parameters
				}
				for _, e := range lhs {
					if writesConfig(e, ptrs) {
						t.Errorf("%s: writes a shared config", fset.Position(e.Pos()))
					}
				}
				return true
			})
			return true
		})
	}
	if checked < 20 {
		t.Fatalf("checked %d source files; the transports were not found", checked)
	}
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
