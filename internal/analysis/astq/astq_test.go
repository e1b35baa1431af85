package astq

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

const fixture = `package p

type T struct {
	f   int
	arr [4]int
	p   *T
}

func (T) M()   {}
func (*T) PM() {}

type I interface{ M() }

func Fn(a int, rest ...string) {}
func mk() T                    { return T{} }

var G int

func use(i I, t T, pt *T, fv func()) {
	Fn(1)
	(Fn)(2)
	t.M()
	pt.PM()
	i.M()
	fv()
	_ = len("x")
	_ = int(G)
	x := 0
	lit := func() {
		y := 1
		x++
		G++
		t.f = y
	}
	_ = t.arr[1]
	_ = (*pt).p.f
	_ = mk().f
	_ = lit
}
`

// checked type-checks the fixture and indexes its call expressions and
// selector/index expressions by their source text.
func checked(t *testing.T) (*types.Info, map[string]*ast.CallExpr, map[string]ast.Expr, *ast.FuncLit) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", fixture, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	calls := map[string]*ast.CallExpr{}
	exprs := map[string]ast.Expr{}
	var lit *ast.FuncLit
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			calls[types.ExprString(n)] = n
		case *ast.SelectorExpr, *ast.IndexExpr:
			exprs[types.ExprString(n.(ast.Expr))] = n.(ast.Expr)
		case *ast.FuncLit:
			lit = n
		}
		return true
	})
	return info, calls, exprs, lit
}

// TestCalleeFunc: only statically bound callees resolve; dynamic calls,
// builtins and conversions resolve to nil.
func TestCalleeFunc(t *testing.T) {
	info, calls, _, _ := checked(t)
	for _, tc := range []struct {
		name, call, want string
	}{
		{"PackageFunc", "Fn(1)", "Fn"},
		{"Parenthesized", "(Fn)(2)", "Fn"},
		{"ValueMethod", "t.M()", "M"},
		{"PointerMethod", "pt.PM()", "PM"},
		{"InterfaceMethod", "i.M()", ""},
		{"FuncValue", "fv()", ""},
		{"Builtin", `len("x")`, ""},
		{"Conversion", "int(G)", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			call := calls[tc.call]
			if call == nil {
				t.Fatalf("fixture has no call %s", tc.call)
			}
			got := ""
			if fn := CalleeFunc(info, call); fn != nil {
				got = fn.Name()
			}
			if got != tc.want {
				t.Errorf("CalleeFunc(%s) = %q, want %q", tc.call, got, tc.want)
			}
		})
	}
}

// TestParamType: arguments past the last fixed parameter of a variadic
// signature take the element type unless the call spreads a slice with
// "...".
func TestParamType(t *testing.T) {
	info, _, _, _ := checked(t)
	variadic := info.Defs[findIdent(t, info, "Fn")].Type().(*types.Signature)
	fixed := info.Defs[findIdent(t, info, "mk")].Type().(*types.Signature)
	oneParam := types.NewSignatureType(nil, nil, nil,
		types.NewTuple(types.NewParam(token.NoPos, nil, "a", types.Typ[types.Int])), nil, false)
	for _, tc := range []struct {
		name     string
		sig      *types.Signature
		i        int
		ellipsis bool
		want     string
	}{
		{"Fixed", variadic, 0, false, "int"},
		{"VariadicElement", variadic, 1, false, "string"},
		{"VariadicLaterElement", variadic, 3, false, "string"},
		{"VariadicSpread", variadic, 1, true, "[]string"},
		{"NoParams", fixed, 0, false, "<nil>"},
		{"PastLastParam", oneParam, 1, false, "<nil>"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := "<nil>"
			if pt := ParamType(tc.sig, tc.i, tc.ellipsis); pt != nil {
				got = pt.String()
			}
			if got != tc.want {
				t.Errorf("ParamType(%s, %d, %v) = %s, want %s", tc.sig, tc.i, tc.ellipsis, got, tc.want)
			}
		})
	}
}

// TestCapturedBy: outer locals and package-level variables are captured
// by the literal; its own locals and struct fields are not.
func TestCapturedBy(t *testing.T) {
	info, _, _, lit := checked(t)
	vars := map[string]*types.Var{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if v, ok := info.Uses[id].(*types.Var); ok {
				vars[id.Name] = v
			}
		}
		return true
	})
	for _, tc := range []struct {
		name, v string
		want    bool
	}{
		{"OuterLocal", "x", true},
		{"OuterParam", "t", true},
		{"PackageLevel", "G", true},
		{"OwnLocal", "y", false},
		{"Field", "f", false},
		{"Nil", "", false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := vars[tc.v]
			if v == nil && tc.v != "" {
				t.Fatalf("fixture literal uses no variable %s", tc.v)
			}
			if got := CapturedBy(v, lit); got != tc.want {
				t.Errorf("CapturedBy(%v) = %v, want %v", v, got, tc.want)
			}
		})
	}
}

// TestRootVar: access paths unwind to the variable they start from; a path
// rooted in a call result has no root variable.
func TestRootVar(t *testing.T) {
	info, _, exprs, _ := checked(t)
	for _, tc := range []struct {
		name, expr, want string
	}{
		{"IndexOfField", "t.arr[1]", "t"},
		{"DerefParenSelector", "(*pt).p.f", "pt"},
		{"CallResult", "mk().f", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := exprs[tc.expr]
			if e == nil {
				t.Fatalf("fixture has no expression %s", tc.expr)
			}
			got := ""
			if v := RootVar(info, e); v != nil {
				got = v.Name()
			}
			if got != tc.want {
				t.Errorf("RootVar(%s) = %q, want %q", tc.expr, got, tc.want)
			}
		})
	}
}

// TestIsNamed: a named type matches its own path or any path ending in
// "/"+suffix, so fixtures importing the real package still match; a
// suffix that is not a whole path element does not.
func TestIsNamed(t *testing.T) {
	named := func(path, name string) types.Type {
		pkg := types.NewPackage(path, "x")
		return types.NewNamed(types.NewTypeName(token.NoPos, pkg, name, nil), types.Typ[types.Int], nil)
	}
	body := named("sprwl/internal/rwlock", "Body")
	for _, tc := range []struct {
		name string
		t    types.Type
		want bool
	}{
		{"ModulePath", body, true},
		{"ExactPath", named("internal/rwlock", "Body"), true},
		{"PartialElement", named("sprwl/xinternal/rwlock", "Body"), false},
		{"OtherName", named("sprwl/internal/rwlock", "Lock"), false},
		{"Pointer", types.NewPointer(body), false},
		{"Basic", types.Typ[types.Int], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsNamed(tc.t, "internal/rwlock", "Body"); got != tc.want {
				t.Errorf("IsNamed(%s) = %v, want %v", tc.t, got, tc.want)
			}
		})
	}
}

// findIdent returns the defining identifier of the package-level object
// name.
func findIdent(t *testing.T, info *types.Info, name string) *ast.Ident {
	t.Helper()
	for id, obj := range info.Defs {
		if obj != nil && id.Name == name && obj.Parent() == obj.Pkg().Scope() {
			return id
		}
	}
	t.Fatalf("fixture defines no %s", name)
	return nil
}
