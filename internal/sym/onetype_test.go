package sym

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneSymbolType: ID is the module's one symbol type and Tuple its one
// tuple type. Outside this package (and the separate perfbench module) no
// program file declares a type whose underlying type is sym.ID or
// []sym.ID, or a struct wrapping a single sym.ID: such a type would be a
// second symbol layer that every caller converts to and from. Aliases
// (pw.Value = sym.ID) are the same type and pass.
func TestOneSymbolType(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			rel, _ := filepath.Rel(root, path)
			if rel == "perfbench" || rel == filepath.Join("internal", "sym") || d.Name() == "testdata" ||
				(rel != "." && strings.ContainsAny(d.Name()[:1], "._")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok && secondSymbolType(ts) {
				t.Errorf("%s: type %s is a second symbol type; use sym.ID or sym.Tuple", fset.Position(ts.Pos()), ts.Name.Name)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// secondSymbolType reports whether ts defines (not aliases) a type as
// sym.ID, sym.Tuple, []sym.ID, or a struct whose only field is a sym.ID.
func secondSymbolType(ts *ast.TypeSpec) bool {
	if ts.Assign.IsValid() {
		return false
	}
	switch e := ts.Type.(type) {
	case *ast.SelectorExpr:
		return isSym(e, "ID") || isSym(e, "Tuple")
	case *ast.ArrayType:
		return e.Len == nil && isSym(e.Elt, "ID")
	case *ast.StructType:
		fs := e.Fields.List
		return len(fs) == 1 && len(fs[0].Names) <= 1 && isSym(fs[0].Type, "ID")
	}
	return false
}

func isSym(e ast.Expr, name string) bool {
	s, ok := e.(*ast.SelectorExpr)
	if !ok || s.Sel.Name != name {
		return false
	}
	x, ok := s.X.(*ast.Ident)
	return ok && x.Name == "sym"
}

func TestSecondSymbolType(t *testing.T) {
	for src, want := range map[string]bool{
		"type V struct{ id sym.ID }":        true,
		"type V struct{ sym.ID }":           true,
		"type V sym.ID":                     true,
		"type T []sym.ID":                   true,
		"type T sym.Tuple":                  true,
		"type V = sym.ID":                   false, // an alias is the same type
		"type P struct{ a, b sym.ID }":      false,
		"type P struct{ id sym.ID; n int }": false,
		"type M map[sym.ID]sym.ID":          false,
		"type U sym.Universe":               false,
	} {
		f, err := parser.ParseFile(token.NewFileSet(), "", "package p\n"+src, 0)
		if err != nil {
			t.Fatal(err)
		}
		ts := f.Decls[0].(*ast.GenDecl).Specs[0].(*ast.TypeSpec)
		if got := secondSymbolType(ts); got != want {
			t.Errorf("%s: flagged = %v, want %v", src, got, want)
		}
	}
}
