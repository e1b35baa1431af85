package bodyidempotent

import (
	"go/ast"
	"go/token"
	"go/types"

	"sprwl/internal/analysis/astq"
)

// capturedAliases computes a conservative map from each variable assigned
// inside lit to the set of CAPTURED variables whose storage it may alias.
// It is a flow-insensitive may-alias lattice: for every assignment
// v = rhs, v inherits the alias sets of every variable whose storage rhs
// can reference (address-taken operands, and reference-typed access paths
// — pointers, slices, maps, channels, funcs, interfaces — rooted at a
// variable), iterated to fixpoint. Values that pass through calls are NOT
// tracked; a helper that launders a captured pointer through a function
// result defeats this analysis.
func capturedAliases(info *types.Info, lit *ast.FuncLit) map[*types.Var]map[*types.Var]bool {
	// edges[v] = vars whose storage v may share, gathered syntactically.
	edges := make(map[*types.Var]map[*types.Var]bool)
	addEdge := func(v, r *types.Var) {
		if v == nil || r == nil || v == r {
			return
		}
		if edges[v] == nil {
			edges[v] = make(map[*types.Var]bool)
		}
		edges[v][r] = true
	}
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		v := varObj(info, id)
		if v == nil {
			return
		}
		for _, r := range refRoots(info, rhs) {
			addEdge(v, r)
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				if i < len(s.Rhs) && len(s.Lhs) == len(s.Rhs) {
					bind(lhs, s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i, name := range s.Names {
				if i < len(s.Values) && len(s.Names) == len(s.Values) {
					bind(name, s.Values[i])
				}
			}
		}
		return true
	})

	// Fixpoint: aliases[v] = union over edge targets r of ({r} if captured)
	// ∪ aliases[r].
	aliases := make(map[*types.Var]map[*types.Var]bool)
	record := func(v, c *types.Var) bool {
		if aliases[v] == nil {
			aliases[v] = make(map[*types.Var]bool)
		}
		if aliases[v][c] {
			return false
		}
		aliases[v][c] = true
		return true
	}
	for changed := true; changed; {
		changed = false
		for v, rs := range edges {
			for r := range rs {
				if astq.CapturedBy(r, lit) && record(v, r) {
					changed = true
				}
				for c := range aliases[r] {
					if record(v, c) {
						changed = true
					}
				}
			}
		}
	}
	return aliases
}

// refRoots returns the variables whose storage rhs may reference: the root
// of every address-taken operand and of every reference-typed access path.
func refRoots(info *types.Info, rhs ast.Expr) []*types.Var {
	var roots []*types.Var
	seen := make(map[*types.Var]bool)
	add := func(v *types.Var) {
		if v != nil && !seen[v] {
			seen[v] = true
			roots = append(roots, v)
		}
	}
	ast.Inspect(rhs, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			// Call results are not tracked (see capturedAliases doc);
			// arguments do not flow into the assigned value directly.
			return false
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				add(astq.RootVar(info, x.X))
			}
		case ast.Expr:
			if t := astq.TypeOf(info, x); t != nil && refLike(t) {
				add(astq.RootVar(info, x))
			}
		}
		return true
	})
	return roots
}

// refLike reports whether values of t can reference shared storage.
func refLike(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan,
		*types.Signature, *types.Interface:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func varObj(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}
