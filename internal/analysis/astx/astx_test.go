package astx

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"testing"
)

const src = `package p

import "math"

const TwoPi = 2 * math.Pi

type Named struct{ F float64 }

var sink float64

func top(x float64) float64 {
	lit := func(y float64) float64 { return y }
	sink = TwoPi
	sink = 0.0
	sink = float64(1)
	_ = len("s")
	_ = lit(x)
	var n *Named
	_ = n
	return x
}
`

func check(t *testing.T) (*token.FileSet, *ast.File, *types.Package, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f, pkg, info
}

func TestFuncs(t *testing.T) {
	_, f, _, _ := check(t)
	fns := Funcs([]*ast.File{f})
	if len(fns) != 2 {
		t.Fatalf("Funcs found %d functions, want decl+literal", len(fns))
	}
	if fns[0].Name != "top" || fns[1].Name != "" {
		t.Errorf("Funcs order/names = %q, %q; want outer decl before inner literal", fns[0].Name, fns[1].Name)
	}
}

// exprs collects interesting expressions from the checked file by shape.
func exprs(f *ast.File) (twoPi, zero ast.Expr, conv, builtin, call *ast.CallExpr) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.Ident:
			// Keep the last occurrence: a use site, not the const decl name.
			if e.Name == "TwoPi" {
				twoPi = e
			}
		case *ast.BasicLit:
			if e.Value == "0.0" {
				zero = e
			}
		case *ast.CallExpr:
			switch fun := e.Fun.(type) {
			case *ast.Ident:
				switch fun.Name {
				case "float64":
					conv = e
				case "len":
					builtin = e
				case "lit":
					call = e
				}
			}
		}
		return true
	})
	return
}

func TestConstClassification(t *testing.T) {
	_, f, _, info := check(t)
	twoPi, zero, conv, builtin, call := exprs(f)
	if twoPi == nil || zero == nil || conv == nil || builtin == nil || call == nil {
		t.Fatal("fixture expressions not found")
	}
	if !IsConst(info, twoPi) || !ConstFloatNear(info, twoPi, 2*math.Pi, 1e-9) {
		t.Error("TwoPi must classify as a 2π constant")
	}
	if ConstFloatNear(info, twoPi, math.Pi, 1e-9) {
		t.Error("TwoPi is not π")
	}
	if !IsConstZero(info, zero) || IsConstZero(info, twoPi) {
		t.Error("IsConstZero must accept 0.0 and reject TwoPi")
	}
	if !IsConversion(info, conv) || IsConversion(info, call) {
		t.Error("IsConversion must accept float64(1) and reject lit(x)")
	}
	if !IsBuiltinCall(info, builtin) || IsBuiltinCall(info, call) {
		t.Error("IsBuiltinCall must accept len and reject lit")
	}
}

func TestMentionsObject(t *testing.T) {
	_, f, pkg, info := check(t)
	var topBody *ast.BlockStmt
	var param types.Object
	for _, fn := range Funcs([]*ast.File{f}) {
		if fn.Name == "top" {
			topBody = fn.Body
			param = info.Defs[fn.Node.(*ast.FuncDecl).Type.Params.List[0].Names[0]]
		}
	}
	if !MentionsObject(info, topBody, param) {
		t.Error("top's body mentions its parameter x")
	}
	other := pkg.Scope().Lookup("sink")
	if MentionsObject(info, nil, other) || MentionsObject(info, topBody, nil) {
		t.Error("nil node or nil object can never match")
	}
}

func TestNamedType(t *testing.T) {
	_, _, pkg, _ := check(t)
	named := pkg.Scope().Lookup("Named").Type()
	ptr := types.NewPointer(named)
	if NamedType(ptr) == nil || NamedType(named) == nil {
		t.Error("NamedType must unwrap pointers and accept named types")
	}
	if NamedType(types.Typ[types.Float64]) != nil {
		t.Error("a basic type is not named")
	}
	if !IsNamed(ptr, "p", "Named") {
		t.Error("IsNamed must match through a pointer by package name and type name")
	}
	if IsNamed(ptr, "q", "Named") || IsNamed(ptr, "p", "Other") || IsNamed(types.Typ[types.Float64], "p", "Named") {
		t.Error("IsNamed must reject mismatched package, name, or unnamed types")
	}
}
