package lint

import (
	"go/ast"
	"go/types"
)

// Memosafety protects the per-graph memoized lookahead slices that
// internal/dag hands out through its Shared* accessors. Those slices
// are computed once under sync.Once and then read concurrently by
// every scheduler working the same graph (six per instance in the main
// figures); a single in-place mutation silently corrupts the lookahead
// data of every other scheduler and every later run on that graph.
//
// The analyzer taints values obtained from a memoized accessor
// (directly, through an alias, or by indexing a shared 2-D slice) and
// reports element writes, in-place sorts (sort.*, slices.Sort*),
// append reuse and copy-into. Taking a copy first — e.g.
// `own := append([]float64(nil), shared...)` — clears the taint, which
// is exactly the documented contract: callers that perturb values copy
// first.
var Memosafety = &Analyzer{
	Name: "memosafety",
	Doc: "forbid mutation (element writes, in-place sorts, append reuse) of slices obtained " +
		"from dag.Graph's memoized Shared* accessors; copy before perturbing",
	Run: runMemosafety,
}

// memoAccessors are the method names whose results are shared memoized
// state. Matching is by method name so analysistest fixtures can
// declare their own Graph type; in this module the names are unique to
// *dag.Graph.
var memoAccessors = map[string]bool{
	"SharedTypedDescendantValues":         true,
	"SharedOneStepTypedDescendantValues":  true,
	"SharedDescendantValues":              true,
	"SharedDifferentTypeDistances":        true,
	"SharedTypedDescendantClasses":        true,
	"SharedOneStepTypedDescendantClasses": true,
}

func runMemosafety(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMemoFunc(pass, fn)
		}
	}
	return nil
}

// isMemoCall reports whether e is a direct call of a memoized accessor.
func isMemoCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && memoAccessors[sel.Sel.Name]
}

func checkMemoFunc(pass *Pass, fn *ast.FuncDecl) {
	// tainted maps objects currently holding shared memoized data to
	// the accessor that produced them (for the diagnostic). The walk
	// visits statements in source order, which is a sound approximation
	// for the straight-line aliasing this catches.
	tainted := map[types.Object]string{}

	obj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if o := pass.Info.Uses[id]; o != nil {
			return o
		}
		return pass.Info.Defs[id]
	}

	// taintSource names the accessor behind e when e denotes shared
	// memoized data — a direct accessor call, a tainted variable, or an
	// element of one — and returns "" otherwise.
	var taintSource func(e ast.Expr) string
	taintSource = func(e ast.Expr) string {
		e = ast.Unparen(e)
		if isMemoCall(e) {
			return accessorName(e)
		}
		switch e := e.(type) {
		case *ast.Ident:
			if o := obj(e); o != nil {
				return tainted[o]
			}
			return ""
		case *ast.IndexExpr:
			return taintSource(e.X)
		}
		return ""
	}
	taintedExpr := func(e ast.Expr) bool { return taintSource(e) != "" }

	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// Writes through a tainted base: x[i] = v, x[i][j] = v.
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && taintedExpr(ix.X) {
					pass.Reportf(lhs.Pos(), "write into shared memoized slice from %s; copy before mutating", taintSource(ix.X))
				}
			}
			// Taint propagation: x := g.SharedX(), row := d[v], y := x.
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					o := obj(lhs)
					if o == nil {
						continue
					}
					if src := taintSource(n.Rhs[i]); src != "" {
						tainted[o] = src
					} else {
						delete(tainted, o)
					}
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && taintedExpr(ix.X) {
				pass.Reportf(n.Pos(), "write into shared memoized slice from %s; copy before mutating", taintSource(ix.X))
			}
		case *ast.CallExpr:
			checkMemoCallSite(pass, n, taintedExpr)
		}
		return true
	})
}

// checkMemoCallSite flags calls that mutate tainted arguments in
// place: sort.*/slices.Sort*, append reuse, copy-into.
func checkMemoCallSite(pass *Pass, call *ast.CallExpr, taintedExpr func(ast.Expr) bool) {
	switch {
	case isBuiltin(pass.Info, call, "append"):
		if len(call.Args) > 0 && taintedExpr(call.Args[0]) {
			pass.Reportf(call.Pos(), "append reusing shared memoized slice as base; start from a fresh copy")
		}
	case isBuiltin(pass.Info, call, "copy"):
		if len(call.Args) == 2 && taintedExpr(call.Args[0]) {
			pass.Reportf(call.Pos(), "copy into shared memoized slice; allocate a destination instead")
		}
	default:
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		pkg := pkgPathOf(pass.Info, sel.X)
		if pkg != "sort" && pkg != "slices" {
			return
		}
		if len(call.Args) == 0 {
			return
		}
		if taintedExpr(call.Args[0]) {
			pass.Reportf(call.Pos(), "in-place %s.%s of shared memoized slice; sort a copy", pkgBase(pkg), sel.Sel.Name)
		}
	}
}

func pkgBase(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

// accessorName names the accessor a direct memo call invokes.
func accessorName(e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "a Shared* accessor"
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && memoAccessors[sel.Sel.Name] {
		return sel.Sel.Name
	}
	return "a Shared* accessor"
}
