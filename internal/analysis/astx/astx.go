// Package astx holds the small AST/types queries shared by the sectorlint
// analyzers: function iteration, constant classification, and call
// classification. Everything here is pure and stateless.
package astx

import (
	"go/ast"
	"go/constant"
	"go/types"
	"math"
)

// Func is one function-shaped node: a declaration or a literal.
type Func struct {
	// Name is the declared name, or "" for a function literal.
	Name string
	Type *ast.FuncType
	Body *ast.BlockStmt
	// Node is the original *ast.FuncDecl or *ast.FuncLit.
	Node ast.Node
}

// Funcs yields every function declaration and literal in the files, outer
// before inner.
func Funcs(files []*ast.File) []Func {
	var out []Func
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					out = append(out, Func{Name: fn.Name.Name, Type: fn.Type, Body: fn.Body, Node: fn})
				}
			case *ast.FuncLit:
				out = append(out, Func{Type: fn.Type, Body: fn.Body, Node: fn})
			}
			return true
		})
	}
	return out
}

// IsConst reports whether expr evaluates to any compile-time constant.
func IsConst(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	return ok && tv.Value != nil
}

// IsConstZero reports whether expr is a constant numerically equal to 0.
func IsConstZero(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil {
		return false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float {
		return false
	}
	f, _ := constant.Float64Val(v)
	return f == 0
}

// ConstFloatNear reports whether expr is a constant within tol of want.
// It is how the 2π constant is recognized across its spellings
// (geom.TwoPi, 2*math.Pi, a literal 6.28318...).
func ConstFloatNear(info *types.Info, expr ast.Expr, want, tol float64) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Value == nil {
		return false
	}
	v := constant.ToFloat(tv.Value)
	if v.Kind() != constant.Float {
		return false
	}
	f, _ := constant.Float64Val(v)
	return math.Abs(f-want) <= tol
}

// IsConversion reports whether call is a type conversion rather than a
// function call.
func IsConversion(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call.Fun]
	return ok && tv.IsType()
}

// IsBuiltinCall reports whether call invokes a language builtin
// (append, len, make, ...).
func IsBuiltinCall(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		_, ok := info.Uses[fun].(*types.Builtin)
		return ok
	}
	return false
}

// MentionsObject reports whether any identifier under n resolves to obj.
func MentionsObject(info *types.Info, n ast.Node, obj types.Object) bool {
	if obj == nil || n == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		if found {
			return false
		}
		if id, ok := c.(*ast.Ident); ok && info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// NamedType unwraps pointers and returns the *types.Named behind t, or nil.
func NamedType(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// IsNamed reports whether t (possibly behind a pointer) is the named type
// pkgName.typeName, matching by package name rather than full path so the
// check works identically on the real tree and on minimized test fixtures.
func IsNamed(t types.Type, pkgName, typeName string) bool {
	named := NamedType(t)
	if named == nil || named.Obj() == nil {
		return false
	}
	if named.Obj().Name() != typeName {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Name() == pkgName
}
