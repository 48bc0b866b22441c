// Package nilhook implements the nocvet analyzer that verifies every
// probe / fault / recorder / sink hook invocation on the simulator's
// hot paths is nil-guarded.
//
// The observability and fault layers are wired as optional hook
// fields (`probe *probe.Probe`, `faults *fault.Injector`,
// `recorder *probe.FlightRecorder`, `sink network.Sink`) with the contract
// "nil = disabled, hot path untouched".  Every fabric touches these
// fields millions of times per run, and an unguarded call on a
// disabled hook is a nil-pointer panic that only fires in the exact
// configuration that leaves the hook unarmed — the configuration the
// benchmarks and most tests run.  This analyzer makes the guard a
// compile-time obligation.
//
// Hook types are not listed here: a type declares itself a hook by
// carrying the `//hook:nil-disabled` marker in its doc comment:
//
//	// Probe is a hot-path observer.
//	//hook:nil-disabled — nil means tracing is off.
//	type Probe struct{ ... }
//
// The analyzer discovers every marked type across the loaded module
// in a first pass, then checks calls through fields of those types in
// a second.  New hook kinds therefore need no analyzer change — mark
// the type where it is declared and every hot-path call site is
// checked from then on.  The caveat is the flip side: discovery only
// sees packages loaded with syntax, so run nocvet over the whole
// module (`nocvet ./...`); a subset run that omits a hook's defining
// package silently skips that hook's call sites.
//
// A call through a hook-typed struct field is accepted when the
// analyzer can see the guard in the enclosing function:
//
//	if f.probe != nil { f.probe.Traverse(...) }     // guarded body
//	if f.faults != nil && f.faults.Frozen(...)      // && short-circuit
//	if c.tracer == nil { return }; c.tracer(...)    // early return
//	if f.probe == nil || f.probe.Enabled(...)       // || short-circuit
//
// Guards established in a caller are invisible here; helpers that are
// only invoked with an armed hook carry a `//nocvet:hook <why>`
// waiver naming the caller holding the guard.
package nilhook

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"

	"surfbless/internal/analysis"
)

// Analyzer is the nil-guard checker.
var Analyzer = &analysis.Analyzer{
	Name:      "nilhook",
	Doc:       "require nil guards on calls through //hook:nil-disabled typed fields in hot-path packages",
	RunModule: run,
}

// Scope limits the analyzer to the packages holding router hot paths
// and their stat/observability plumbing, plus the sweep service —
// whose coordinator/worker hooks follow the same "nil = disabled"
// contract and fire on every lease transition.
var Scope = regexp.MustCompile(`internal/(router(/[^/]+)?|sim|link|stats|network|traffic|system|sweepsvc)$`)

// nilDisabledMarker is the doc-comment marker declaring "a nil value
// of this type means the hook is disabled".  Prose may follow after a
// space; it is an annotation stating a fact about the type, not a
// //nocvet: directive (those waive findings at call sites).
const nilDisabledMarker = "//hook:nil-disabled"

func run(pass *analysis.ModulePass) error {
	hooks := discoverHookTypes(pass.Units)
	for _, unit := range pass.Units {
		if !Scope.MatchString(unit.Path) {
			continue
		}
		c := &checker{pass: pass, unit: unit, hooks: hooks}
		for _, file := range unit.Files {
			var stack []ast.Node
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				if call, ok := n.(*ast.CallExpr); ok {
					c.checkCall(call, stack)
				}
				stack = append(stack, n)
				return true
			})
		}
	}
	return nil
}

// discoverHookTypes collects every type declaration carrying the
// //hook:nil-disabled marker, keyed "pkgpath.Name".  The marker may
// sit in the TypeSpec's own doc or, for the common single-spec
// `type X ...` form, in the GenDecl's.
func discoverHookTypes(units []*analysis.Unit) map[string]bool {
	hooks := make(map[string]bool)
	for _, unit := range units {
		for _, file := range unit.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					doc := ts.Doc
					if doc == nil && len(gd.Specs) == 1 {
						doc = gd.Doc
					}
					if markedNilDisabled(doc) {
						hooks[unit.Pkg.Path()+"."+ts.Name.Name] = true
					}
				}
			}
		}
	}
	return hooks
}

// markedNilDisabled reports whether any line of doc is the
// //hook:nil-disabled marker, bare or followed by prose.
func markedNilDisabled(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimRight(c.Text, "\r")
		rest, ok := strings.CutPrefix(text, nilDisabledMarker)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true
		}
	}
	return false
}

// checker holds the per-unit state for the guard pass.
type checker struct {
	pass  *analysis.ModulePass
	unit  *analysis.Unit
	hooks map[string]bool
}

// checkCall flags an unguarded invocation through a hook field: either
// a method call whose receiver is a hook-typed field selection, or a
// direct call of a func-typed hook field.
func (c *checker) checkCall(call *ast.CallExpr, stack []ast.Node) {
	fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	var hook ast.Expr // the expression that must be nil-checked
	if sel := c.unit.Info.Selections[fun]; sel != nil && sel.Kind() == types.FieldVal && c.hookType(sel.Obj().Type()) {
		// c.tracer(...): the callee itself is a hook-typed func field.
		hook = fun
	} else if recv, ok := ast.Unparen(fun.X).(*ast.SelectorExpr); ok {
		// f.probe.Traverse(...) or h.hooks.Fired(...): a method — or an
		// anonymous func field — reached through a hook-typed field.
		rsel := c.unit.Info.Selections[recv]
		if rsel == nil || rsel.Kind() != types.FieldVal || !c.hookType(rsel.Obj().Type()) {
			return
		}
		hook = recv
	} else {
		return
	}
	target := types.ExprString(hook)
	if guarded(call, stack, target) {
		return
	}
	c.pass.Reportf(call.Pos(), "hook",
		"call through hook field %s is not nil-guarded; nil means the hook is disabled — guard with `if %s != nil`, or waive with //nocvet:hook naming the caller that holds the guard", target, target)
}

// hookType reports whether t (pointers and aliases stripped) names a
// type discovered to carry the //hook:nil-disabled marker.
func (c *checker) hookType(t types.Type) bool {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Origin().Obj()
	if obj.Pkg() == nil {
		return false
	}
	return c.hooks[obj.Pkg().Path()+"."+obj.Name()]
}

// guarded walks the ancestor chain of call looking for a dominating
// nil check of target.
func guarded(call ast.Node, stack []ast.Node, target string) bool {
	node := ast.Node(call)
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.BinaryExpr:
			// In `X && Y`, Y runs only when X is true; in `X || Y`,
			// only when X is false.
			if p.Op == token.LAND && p.Y == node && impliesNonNilWhenTrue(p.X, target) {
				return true
			}
			if p.Op == token.LOR && p.Y == node && impliesNonNilWhenFalse(p.X, target) {
				return true
			}
		case *ast.IfStmt:
			if p.Body == node && impliesNonNilWhenTrue(p.Cond, target) {
				return true
			}
			if p.Else == node && impliesNonNilWhenFalse(p.Cond, target) {
				return true
			}
		case *ast.CaseClause:
			// Expression-less switch: `switch { case x != nil: ... }`.
			// The clause's grandparent is the SwitchStmt (its Body
			// block sits between).
			if i > 1 {
				if sw, ok := stack[i-2].(*ast.SwitchStmt); ok && sw.Tag == nil {
					for _, cond := range p.List {
						if impliesNonNilWhenTrue(cond, target) {
							return true
						}
					}
				}
			}
			if blockGuards(p.Body, node, target) {
				return true
			}
		case *ast.BlockStmt:
			if blockGuards(p.List, node, target) {
				return true
			}
		}
		node = stack[i]
	}
	return false
}

// blockGuards reports whether a statement preceding the one holding
// the call establishes the guard by terminating when the hook is nil:
//
//	if x == nil { return }
func blockGuards(list []ast.Stmt, node ast.Node, target string) bool {
	for _, s := range list {
		if s == node {
			return false
		}
		ifs, ok := s.(*ast.IfStmt)
		if !ok || !impliesNonNilWhenFalse(ifs.Cond, target) || !terminates(ifs.Body) {
			continue
		}
		return true
	}
	return false
}

// terminates conservatively reports whether the block always leaves
// the enclosing scope: its last statement is a return, a branch, or a
// panic call.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && id.Name == "panic"
	default:
		return false
	}
}

// impliesNonNilWhenTrue reports whether cond being true guarantees
// target != nil: some && conjunct is the literal comparison.
func impliesNonNilWhenTrue(cond ast.Expr, target string) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LAND:
			return impliesNonNilWhenTrue(c.X, target) || impliesNonNilWhenTrue(c.Y, target)
		case token.NEQ:
			return nilCompare(c, target)
		}
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return impliesNonNilWhenFalse(c.X, target)
		}
	}
	return false
}

// impliesNonNilWhenFalse reports whether cond being false guarantees
// target != nil: some || disjunct is `target == nil`, so cond false
// forces it false too.
func impliesNonNilWhenFalse(cond ast.Expr, target string) bool {
	switch c := ast.Unparen(cond).(type) {
	case *ast.BinaryExpr:
		switch c.Op {
		case token.LOR:
			return impliesNonNilWhenFalse(c.X, target) || impliesNonNilWhenFalse(c.Y, target)
		case token.EQL:
			return nilCompare(c, target)
		}
	case *ast.UnaryExpr:
		if c.Op == token.NOT {
			return impliesNonNilWhenTrue(c.X, target)
		}
	}
	return false
}

// nilCompare reports whether cmp compares target against the
// predeclared nil, in either orientation.
func nilCompare(cmp *ast.BinaryExpr, target string) bool {
	x, y := ast.Unparen(cmp.X), ast.Unparen(cmp.Y)
	if isNil(y) {
		return types.ExprString(x) == target
	}
	if isNil(x) {
		return types.ExprString(y) == target
	}
	return false
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
