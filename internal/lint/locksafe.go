package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Locksafe checks mutex discipline in the concurrent service stack:
//
//   - inconsistent guarding: a field (or package-level variable) that
//     is accessed at least once while its sibling mutex is held must
//     be held on every access. The guard association is inferred, not
//     annotated: a sync.Mutex/RWMutex struct field guards fields of
//     the same struct; a package-level mutex guards package-level
//     variables. Atomic-typed data (sync/atomic named types, directly
//     or as element type) is exempt — atomics ARE the
//     synchronization.
//   - call-graph rescue: an unexported function whose every
//     in-package call site runs with the lock held (the "callers hold
//     mu" idiom) counts as locked, so helpers like obs's checkNew and
//     the handler's record need no annotation.
//   - copied locks: a value receiver or value parameter whose type
//     (transitively) contains a sync or sync/atomic type, and
//     assignments that copy such a value (x := *p, y = x), each of
//     which silently forks the lock state.
//   - mixed atomic/plain access: a field whose address feeds a
//     sync/atomic package function must not also be accessed plainly.
//
// Scope limits, documented as false negatives: only accesses through
// the method receiver (or a plain package-var identifier) are
// tracked — aliases, non-receiver parameters and constructor locals
// are invisible, which is also what keeps pre-publication
// initialization (NewHandler, option closures) quiet. Lock regions
// are source-ordered within one function body: a Lock in a branch
// counts as held until the matching Unlock's source position, and a
// deferred Unlock holds to the end of the function. Goroutine bodies
// inherit the spawn site's lock state, which overstates what the
// goroutine actually holds.
var Locksafe = &Analyzer{
	Name: "locksafe",
	Doc: "require consistent mutex guarding of struct fields and package vars, forbid " +
		"copied locks and mixed atomic/plain access",
	Run:     runLocksafe,
	Applies: locksafeApplies,
}

// locksafeScope: the packages with shared mutable state. The engines
// (core, sim, multi) are single-goroutine by construction; multi starts
// no goroutines outside its tests and stays in scope only so that a
// lock added there is checked from the start. wal is single-owner yet
// rides along under internal/service.
var locksafeScope = []string{
	"fhs/internal/service",
	"fhs/internal/obs",
	"fhs/internal/multi",
	"fhs/internal/crashpoint",
}

func locksafeApplies(pkgPath string) bool {
	for _, p := range locksafeScope {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// isMutexType reports whether t (after stripping pointers) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	return isPkgType(t, "sync", "Mutex") || isPkgType(t, "sync", "RWMutex")
}

// isAtomicType reports whether t is (or directly contains as element)
// a sync/atomic named type — data that synchronizes itself.
func isAtomicType(t types.Type) bool {
	switch tt := t.(type) {
	case *types.Slice:
		return isAtomicType(tt.Elem())
	case *types.Array:
		return isAtomicType(tt.Elem())
	}
	n := namedBase(t)
	return n != nil && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "sync/atomic"
}

// containsLock reports whether a value of type t embeds sync state
// that must not be copied (vet's copylocks, restricted to struct
// fields and arrays).
func containsLock(t types.Type) bool {
	if n := namedBase(t); n != nil {
		if pkg := n.Obj().Pkg(); pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic") {
			return true
		}
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsLock(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return containsLock(u.Elem())
	}
	return false
}

// guardOf resolves the expression x in x.Lock() to a guard object: a
// mutex struct field accessed through the enclosing method's
// receiver, or a package-level mutex variable.
func guardOf(pass *Pass, recv types.Object, e ast.Expr) types.Object {
	if f := selectedField(pass.Info, e); f != nil && isMutexType(f.Type()) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok && recv != nil && identObj(pass.Info, sel.X) == recv {
			return f
		}
		return nil
	}
	if obj := identObj(pass.Info, e); obj != nil {
		if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() && isMutexType(v.Type()) {
			return v
		}
	}
	return nil
}

// syncOwnedType reports whether t is itself a synchronization type
// (anything named in sync or sync/atomic, or a collection of
// atomics) — such values are coordination state, not data to guard.
func syncOwnedType(t types.Type) bool {
	if isAtomicType(t) {
		return true
	}
	n := namedBase(t)
	if n == nil {
		return false
	}
	pkg := n.Obj().Pkg()
	return pkg != nil && (pkg.Path() == "sync" || pkg.Path() == "sync/atomic")
}

// lockEvent is one Lock/Unlock on a guard inside a function body.
type lockEvent struct {
	pos     token.Pos
	acquire bool
	endless bool // deferred unlock: holds to the end of the body
}

// access is one read or write of a data field / package var.
type access struct {
	obj  types.Object // the accessed field or package var
	fn   *FuncInfo    // enclosing function
	pos  token.Pos
	held map[types.Object]bool // guards held at pos (direct evidence)
}

// lockState tracks, per function, the source-ordered lock events of
// every guard.
type lockState map[types.Object][]lockEvent

// heldAt replays the events up to pos: a guard is held if the last
// acquire before pos has no release between it and pos (deferred
// unlocks never release before the end).
func (ls lockState) heldAt(g types.Object, pos token.Pos) bool {
	events := ls[g]
	held := false
	for _, ev := range events {
		if ev.pos >= pos {
			break
		}
		if ev.acquire {
			held = true
		} else if !ev.endless {
			held = false
		}
	}
	return held
}

func runLocksafe(pass *Pass) error {
	flow := NewFlow(pass)

	// Pass 1: per function, collect lock events and accesses.
	states := map[*FuncInfo]lockState{}
	var accesses []*access
	atomicFields := map[types.Object]bool{} // fields passed as &f to sync/atomic funcs
	for _, fn := range flow.Funcs() {
		recv := receiverObj(pass.Info, fn.Decl)
		state := lockState{}
		deferred := map[*ast.CallExpr]bool{}
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				deferred[d.Call] = true
			}
			return true
		})
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "Lock", "RLock":
				if g := guardOf(pass, recv, sel.X); g != nil {
					state[g] = append(state[g], lockEvent{pos: call.Pos(), acquire: true})
				}
			case "Unlock", "RUnlock":
				if g := guardOf(pass, recv, sel.X); g != nil {
					state[g] = append(state[g], lockEvent{pos: call.Pos(), endless: deferred[call]})
				}
			}
			// &x.f fed to a sync/atomic function marks f atomic-managed.
			if pkgPathOf(pass.Info, sel.X) == "sync/atomic" {
				for _, a := range call.Args {
					if u, ok := ast.Unparen(a).(*ast.UnaryExpr); ok && u.Op == token.AND {
						if f := selectedField(pass.Info, u.X); f != nil {
							atomicFields[f] = true
						}
					}
				}
			}
			return true
		})
		for g := range state {
			evs := state[g]
			sort.SliceStable(evs, func(i, j int) bool { return evs[i].pos < evs[j].pos })
			state[g] = evs
		}
		states[fn] = state

		// Data accesses: receiver fields and package vars, skipping the
		// guards themselves and atomic-typed data.
		ast.Inspect(fn.Decl.Body, func(n ast.Node) bool {
			var obj types.Object
			switch e := n.(type) {
			case *ast.SelectorExpr:
				f := selectedField(pass.Info, e)
				if f == nil || recv == nil || identObj(pass.Info, e.X) != recv {
					return true
				}
				if syncOwnedType(f.Type()) {
					return true
				}
				obj = f
			case *ast.Ident:
				o := pass.Info.Uses[e]
				v, ok := o.(*types.Var)
				if !ok || v.IsField() || v.Pkg() != pass.Pkg || v.Parent() != v.Pkg().Scope() {
					return true
				}
				if syncOwnedType(v.Type()) {
					return true
				}
				obj = v
			default:
				return true
			}
			held := map[types.Object]bool{}
			for g := range state {
				if state.heldAt(g, n.Pos()) {
					held[g] = true
				}
			}
			accesses = append(accesses, &access{obj: obj, fn: fn, pos: n.Pos(), held: held})
			return true
		})
	}

	// Pass 2: call-graph rescue. An unexported function whose every
	// in-package call site holds guard g counts as holding g
	// throughout.
	rescued := map[*FuncInfo]map[types.Object]bool{}
	for _, fn := range flow.Funcs() {
		if fn.Obj.Exported() {
			continue
		}
		sites := flow.CallersOf(fn.Obj)
		if len(sites) == 0 {
			continue
		}
		heldEverywhere := map[types.Object]bool{}
		first := true
		for _, site := range sites {
			st := states[site.Caller]
			siteHeld := map[types.Object]bool{}
			for g := range st {
				if st.heldAt(g, site.Call.Pos()) {
					siteHeld[g] = true
				}
			}
			if first {
				heldEverywhere = siteHeld
				first = false
				continue
			}
			for g := range heldEverywhere {
				if !siteHeld[g] {
					delete(heldEverywhere, g)
				}
			}
		}
		if len(heldEverywhere) > 0 {
			rescued[fn] = heldEverywhere
		}
	}
	for _, a := range accesses {
		for g := range rescued[a.fn] {
			a.held[g] = true
		}
	}

	// Pass 3: guard association and violations. A guard and its data
	// must share an owner: the same struct for fields, the package
	// scope for package vars.
	type pair struct{ guard, data types.Object }
	guarded := map[pair]bool{}
	for _, a := range accesses {
		for g := range a.held {
			if sameOwner(g, a.obj) {
				guarded[pair{g, a.obj}] = true
			}
		}
	}
	for _, a := range accesses {
		for p := range guarded {
			if p.data != a.obj || a.held[p.guard] {
				continue
			}
			pass.Reportf(a.pos, "%s is accessed without holding %s, which guards it elsewhere", a.obj.Name(), p.guard.Name())
		}
	}

	// Mixed atomic/plain access.
	for _, a := range accesses {
		if atomicFields[a.obj] && !insideAtomicCall(pass, a) {
			pass.Reportf(a.pos, "%s mixes plain access with sync/atomic operations; every access must go through sync/atomic", a.obj.Name())
		}
	}

	// Copied locks.
	reportCopies(pass)
	return nil
}

// sameOwner reports whether guard and data live in the same guarding
// domain: fields of one struct, or two package-level variables.
func sameOwner(guard, data types.Object) bool {
	gv, ok1 := guard.(*types.Var)
	dv, ok2 := data.(*types.Var)
	if !ok1 || !ok2 {
		return false
	}
	if gv.IsField() != dv.IsField() {
		return false
	}
	if !gv.IsField() {
		return true // both package-level vars of this package
	}
	return fieldOwner(gv) != nil && fieldOwner(gv) == fieldOwner(dv)
}

// fieldOwner returns the struct type a field belongs to.
func fieldOwner(f *types.Var) *types.Struct {
	// go/types records the owning struct as the field's parent-less
	// origin; recover it by matching identity inside the field's
	// package scope types.
	if f.Pkg() == nil {
		return nil
	}
	scope := f.Pkg().Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == f {
				return st
			}
		}
	}
	return nil
}

// insideAtomicCall reports whether the access is itself the &f operand
// of a sync/atomic call (those are the sanctioned accesses).
func insideAtomicCall(pass *Pass, a *access) bool {
	inside := false
	ast.Inspect(a.fn.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || pkgPathOf(pass.Info, sel.X) != "sync/atomic" {
			return true
		}
		if a.pos >= call.Pos() && a.pos < call.End() {
			inside = true
		}
		return true
	})
	return inside
}

// reportCopies flags value receivers, value parameters and plain
// assignments that copy lock-containing values.
func reportCopies(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if fd.Recv != nil && len(fd.Recv.List) == 1 {
				if tv, ok := pass.Info.Types[fd.Recv.List[0].Type]; ok {
					if _, ptr := tv.Type.(*types.Pointer); !ptr && containsLock(tv.Type) {
						pass.Reportf(fd.Recv.Pos(), "method %s copies its lock-containing receiver; use a pointer receiver", fd.Name.Name)
					}
				}
			}
			if fd.Type.Params != nil {
				for _, field := range fd.Type.Params.List {
					if tv, ok := pass.Info.Types[field.Type]; ok {
						if _, ptr := tv.Type.(*types.Pointer); !ptr && containsLock(tv.Type) {
							pass.Reportf(field.Pos(), "parameter of %s passes a lock-containing value by copy", fd.Name.Name)
						}
					}
				}
			}
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				asg, ok := n.(*ast.AssignStmt)
				if !ok {
					return true
				}
				for _, r := range asg.Rhs {
					r = ast.Unparen(r)
					switch r.(type) {
					case *ast.Ident, *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
					default:
						continue // composite literals and calls construct, not copy
					}
					tv, ok := pass.Info.Types[r]
					if !ok {
						continue
					}
					if _, ptr := tv.Type.(*types.Pointer); !ptr && containsLock(tv.Type) {
						pass.Reportf(asg.Pos(), "assignment copies a lock-containing value of type %s", tv.Type.String())
					}
				}
				return true
			})
		}
	}
}
