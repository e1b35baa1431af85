// Package astq holds the small AST/type query helpers shared by every
// analyzer and by the callgraph layer: static-callee
// resolution, parameter typing under variadics, and capture tests for
// function literals. Before this package each analyzer carried its own
// copy; keeping one implementation means one place to fix the subtle
// cases (method values on interface receivers, qualified identifiers,
// variadic spreads).
package astq

import (
	"go/ast"
	"go/types"
)

// CalleeFunc resolves a call's static callee: package-level functions and
// methods called on concrete (non-interface) receivers. Dynamic calls —
// func values, interface methods — and builtins resolve to nil.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			if sel.Kind() == types.MethodVal && !types.IsInterface(sel.Recv()) {
				return sel.Obj().(*types.Func)
			}
			return nil
		}
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// ParamType returns the static type of the i-th argument's parameter,
// unwrapping the variadic element type when the call site spreads into a
// variadic parameter without an explicit "...".
func ParamType(sig *types.Signature, i int, ellipsis bool) types.Type {
	params := sig.Params()
	n := params.Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		if ellipsis {
			return params.At(n - 1).Type()
		}
		if s, ok := params.At(n - 1).Type().(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i < n {
		return params.At(i).Type()
	}
	return nil
}

// TypeOf returns the recorded type of e, or nil.
func TypeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// FuncLit unwraps parens and returns e as a function literal, or nil.
func FuncLit(e ast.Expr) *ast.FuncLit {
	lit, _ := ast.Unparen(e).(*ast.FuncLit)
	return lit
}

// IsPackageLevel reports whether v is declared at package scope.
func IsPackageLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// CapturedBy reports whether v is captured by the function literal lit:
// declared outside the literal's extent (package-level variables count —
// they are shared by definition). Struct fields are never "captured"; they
// are reached through a captured root instead.
func CapturedBy(v *types.Var, lit *ast.FuncLit) bool {
	if v == nil || v.IsField() {
		return false
	}
	if IsPackageLevel(v) {
		return true
	}
	return v.Pos() < lit.Pos() || v.Pos() > lit.End()
}

// RootVar unwinds selector/index/star/paren chains and returns the
// variable at the root of the access path, or nil (e.g. for call results).
func RootVar(info *types.Info, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			v, _ := info.Uses[x].(*types.Var)
			return v
		default:
			return nil
		}
	}
}

// IsNamed reports whether t is (an alias of) the named type pkgSuffix.Name,
// matching by object name and import-path suffix so reduced test fixtures
// that import the real module package still match.
func IsNamed(t types.Type, pkgSuffix, name string) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == pkgSuffix || len(path) > len(pkgSuffix) &&
		path[len(path)-len(pkgSuffix)-1] == '/' && path[len(path)-len(pkgSuffix):] == pkgSuffix
}
