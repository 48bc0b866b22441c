// Package shardsafe statically proves the sharded two-phase stepping
// invariant of DESIGN.md §17: during the tile-parallel phases of a
// fabric's step (receive, resolve) no worker may touch state outside
// its own tile except through the two sanctioned channels — the tile's
// deferred-effect accumulator (replayed serially in the effects phase)
// and a delay≥1 link.Line (whose single-reader/single-writer schedule
// the phases enforce by construction).
//
// Fabrics opt in by annotating their phase entry points (see
// analysis.ParsePhase):
//
//	//shard:phase(receive)
//	func (e *Engine) recvTile(t int) { ... }
//
// From each annotated tile-parallel root the analyzer walks the static
// call graph (internal/analysis/callgraph) context-sensitively,
// classifying every reachable value by the root of its reference
// chain:
//
//	shared — fabric-global: the root's receiver, package-level
//	         variables, and anything reached from them
//	tile   — an integer derived from the root's tile index parameter —
//	         its sole integer parameter — directly, through
//	         shard.Range, or by arithmetic on such values
//	safe   — tile-local: locals, fresh allocations, parameters bound
//	         to safe arguments, and — the crux — elements of shared
//	         slices or arrays subscripted or sliced by tile-derived
//	         indexes (maps never: distinct keys do not confine
//	         concurrent map writes)
//
// A write whose destination classifies as shared is a finding, with
// the call chain from the phase root to the write site.  So is a call
// that cannot run tile-parallel: the effects-only surfaces of the
// policy table below, and any dynamic call through shared state
// (observer hooks like a fabric's sink field).
//
// Two guard idioms mark code that never runs tile-parallel, and their
// guarded blocks are skipped:
//
//   - `if fx.direct { ... }` — a bool field named direct on a safe
//     (tile-local) value selects the serial context that applies
//     effects inline instead of deferring them (router.Kernel's effect
//     methods);
//   - any condition with a conjunct `X != nil` where X is a
//     *fault.Injector — the stepping kernel (router.Kernel) forces the
//     serial walk whenever an injector is armed, and && short-circuits
//     the remaining conjuncts behind the nil check.  Conjuncts BEFORE the nil check evaluate
//     unconditionally, so those are still walked.
//
// Calls into sibling instrumentation packages resolve against a policy
// table before any descent, so analyzing a package subset reports
// exactly what analyzing ./... reports:
//
//	internal/link    Line methods        safe (delay≥1 lines are the
//	                                     sanctioned cross-tile channel)
//	internal/probe   Traverse            safe (per-router ring segments)
//	                 everything else     effects-only (the shared
//	                                     lifecycle stream and the drain)
//	internal/stats   everything          effects-only (collector
//	                                     lifecycle aggregates)
//	internal/power   everything          effects-only (meter counters)
//	internal/packet  FreeList methods    effects-only (free-list reuse)
//	internal/shard   Range               safe (pure index arithmetic)
//
// Functions with loaded syntax and no policy are descended into with
// the caller's argument classes; functions without syntax (stdlib,
// unloaded dependencies) are assumed not to reach fabric state.
//
// Findings report under the category "shard"; a `//nocvet:shard
// <reason>` directive on the offending line waives one after human
// proof of confinement.
package shardsafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"surfbless/internal/analysis"
	"surfbless/internal/analysis/callgraph"
)

// Analyzer flags tile-parallel phase code that can reach non-tile-local
// state.
var Analyzer = &analysis.Analyzer{
	Name:      "shardsafe",
	Doc:       "writes and effects-only calls in tile-parallel phases must stay tile-confined (deferred effects or delay≥1 links)",
	RunModule: run,
}

// class is the confinement lattice.
type class int

const (
	// classSafe marks tile-local values: writes allowed.
	classSafe class = iota
	// classTile marks integers derived from the tile index: subscripting
	// a shared slice with one yields a tile-local element.
	classTile
	// classShared marks fabric-global values: writes and dynamic calls
	// through them are findings.
	classShared
)

func run(pass *analysis.ModulePass) error {
	g := callgraph.Build(pass.Units)
	c := &checker{pass: pass, graph: g, memo: make(map[string]bool)}
	// Funcs is key-sorted, so root order — and with it chain choice and
	// memoization — is deterministic.
	for _, n := range g.Funcs() {
		name, pos, ok := analysis.ParsePhase(n.Decl.Doc)
		if !ok {
			continue
		}
		if name == "" {
			pass.Reportf(pos, "shard", "malformed //shard:phase annotation (missing closing parenthesis)")
			continue
		}
		if !analysis.ValidPhase(name) {
			pass.Reportf(pos, "shard", "unknown phase %q in //shard:phase annotation (valid: receive, resolve, effects)", name)
			continue
		}
		if !analysis.TileParallel(name) {
			// effects runs serially at the barrier; nothing to confine.
			continue
		}
		c.walkRoot(n, name)
	}
	return nil
}

type checker struct {
	pass  *analysis.ModulePass
	graph *callgraph.Graph
	// memo records (function, phase, context classes) tuples already
	// walked, bounding the context-sensitive exploration and making
	// recursion terminate.
	memo map[string]bool
}

// walkRoot analyzes one tile-parallel entry point: the receiver is the
// shared fabric, and the sole integer parameter is the tile index.  A
// root with several integer parameters is reported and skipped —
// treating every one as tile-derived would let a non-index integer
// (a budget, a count) launder shared subscripts to safe.
func (c *checker) walkRoot(n *callgraph.Node, phase string) {
	env := make(map[*types.Var]class)
	sig, _ := n.Obj.Type().(*types.Signature)
	if sig == nil {
		return
	}
	if r := sig.Recv(); r != nil {
		env[r] = classShared
	}
	var tileIdx []*types.Var
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		if b, ok := p.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
			tileIdx = append(tileIdx, p)
		}
	}
	if len(tileIdx) > 1 {
		c.pass.Reportf(n.Decl.Name.Pos(), "shard",
			"tile-parallel phase root %s has %d integer parameters; the //shard:phase contract allows exactly one (the tile index)",
			callgraph.DisplayName(n.Obj), len(tileIdx))
		return
	}
	if len(tileIdx) == 1 {
		env[tileIdx[0]] = classTile
	}
	w := &walker{c: c, node: n, phase: phase, env: env,
		stack: []string{callgraph.DisplayName(n.Obj)}}
	w.block(n.Decl.Body)
}

// walker analyzes one function body under one calling context.
type walker struct {
	c     *checker
	node  *callgraph.Node
	phase string
	env   map[*types.Var]class
	// stack is the call chain from the phase root, for diagnostics.
	stack []string
}

func (w *walker) info() *types.Info { return w.node.Unit.Info }

func (w *walker) path() string { return strings.Join(w.stack, " → ") }

func (w *walker) report(pos token.Pos, format string, args ...any) {
	w.c.pass.Reportf(pos, "shard", format, args...)
}

// ---- statements ----

func (w *walker) block(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, s := range b.List {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		w.block(s)
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.AssignStmt:
		w.assign(s)
	case *ast.IncDecStmt:
		w.expr(s.X)
		w.write(s.X, s.X.Pos())
	case *ast.IfStmt:
		w.ifStmt(s)
	case *ast.ForStmt:
		w.stmt(s.Init)
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.stmt(s.Post)
		w.block(s.Body)
	case *ast.RangeStmt:
		w.rangeStmt(s)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.DeclStmt:
		w.declStmt(s)
	case *ast.SwitchStmt:
		w.stmt(s.Init)
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, cc := range s.Body.List {
			cl := cc.(*ast.CaseClause)
			for _, e := range cl.List {
				w.expr(e)
			}
			for _, st := range cl.Body {
				w.stmt(st)
			}
		}
	case *ast.TypeSwitchStmt:
		w.typeSwitch(s)
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			comm := cc.(*ast.CommClause)
			w.stmt(comm.Comm)
			for _, st := range comm.Body {
				w.stmt(st)
			}
		}
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
		if w.classOf(s.Chan) == classShared {
			w.report(s.Arrow, "send on shared channel %s in tile-parallel phase %s (via %s)",
				types.ExprString(s.Chan), w.phase, w.path())
		}
	case *ast.DeferStmt:
		w.call(s.Call)
	case *ast.GoStmt:
		w.call(s.Call)
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	case *ast.BranchStmt, *ast.EmptyStmt:
	}
}

func (w *walker) declStmt(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			w.expr(v)
		}
		for i, name := range vs.Names {
			obj, _ := w.info().Defs[name].(*types.Var)
			if obj == nil {
				continue
			}
			cl := classSafe
			if len(vs.Values) == len(vs.Names) {
				cl = w.classOf(vs.Values[i])
			}
			w.env[obj] = cl
		}
	}
}

func (w *walker) typeSwitch(s *ast.TypeSwitchStmt) {
	w.stmt(s.Init)
	xc := classSafe
	switch a := s.Assign.(type) {
	case *ast.AssignStmt:
		if len(a.Rhs) == 1 {
			if ta, ok := ast.Unparen(a.Rhs[0]).(*ast.TypeAssertExpr); ok {
				w.expr(ta.X)
				xc = w.classOf(ta.X)
			}
		}
	case *ast.ExprStmt:
		if ta, ok := ast.Unparen(a.X).(*ast.TypeAssertExpr); ok {
			w.expr(ta.X)
			xc = w.classOf(ta.X)
		}
	}
	for _, cc := range s.Body.List {
		cl := cc.(*ast.CaseClause)
		if v, ok := w.info().Implicits[cl].(*types.Var); ok {
			w.env[v] = xc
		}
		for _, st := range cl.Body {
			w.stmt(st)
		}
	}
}

// ifStmt applies the two serial-context guard idioms: bodies behind a
// fault-injector nil check or behind fx.direct never run tile-parallel
// and are skipped (their else branches are the parallel path and are
// checked).
func (w *walker) ifStmt(s *ast.IfStmt) {
	w.stmt(s.Init)
	if leading, ok := w.faultGuard(s.Cond); ok {
		// && short-circuits only what FOLLOWS the nil check: trailing
		// conjuncts and the body evaluate with the injector armed
		// (serial) and are skipped, but conjuncts before the check run
		// tile-parallel unconditionally and must still be walked.
		for _, e := range leading {
			w.expr(e)
		}
	} else if !w.isDirectGuard(s.Cond) {
		w.expr(s.Cond)
		w.block(s.Body)
	}
	w.stmt(s.Else)
}

// faultGuard reports whether cond has a conjunct `X != nil` with X a
// pointer to a type of an internal/fault package, and returns the
// conjuncts evaluated before the first such check — the ones not
// protected by its short-circuit.
func (w *walker) faultGuard(e ast.Expr) (leading []ast.Expr, ok bool) {
	b, isBin := ast.Unparen(e).(*ast.BinaryExpr)
	if !isBin {
		return nil, false
	}
	switch b.Op {
	case token.LAND:
		if l, ok := w.faultGuard(b.X); ok {
			return l, true
		}
		if l, ok := w.faultGuard(b.Y); ok {
			return append([]ast.Expr{b.X}, l...), true
		}
		return nil, false
	case token.NEQ:
		if (w.isFaultPtr(b.X) && w.isNil(b.Y)) || (w.isFaultPtr(b.Y) && w.isNil(b.X)) {
			return nil, true
		}
	}
	return nil, false
}

func (w *walker) isFaultPtr(e ast.Expr) bool {
	ptr, ok := types.Unalias(w.info().TypeOf(e)).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && analysis.PathIs(pkg.Path(), "internal/fault")
}

func (w *walker) isNil(e ast.Expr) bool {
	return w.info().Types[ast.Unparen(e)].IsNil()
}

// isDirectGuard matches `X.direct` — the serial-context flag: a bool
// field named direct on a tile-local value (the fx accumulator).
func (w *walker) isDirectGuard(e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "direct" {
		return false
	}
	b, ok := types.Unalias(w.info().TypeOf(sel)).(*types.Basic)
	if !ok || b.Kind() != types.Bool {
		return false
	}
	return w.classOf(sel.X) == classSafe
}

func (w *walker) rangeStmt(s *ast.RangeStmt) {
	w.expr(s.X)
	xc := w.classOf(s.X)
	// The key ranges over the whole container, so it is NOT
	// tile-derived even when the container is; the element shares the
	// container's class.
	w.bindRangeVar(s.Key, classSafe, s.Tok)
	w.bindRangeVar(s.Value, xc, s.Tok)
	w.block(s.Body)
}

func (w *walker) bindRangeVar(e ast.Expr, cl class, tok token.Token) {
	if e == nil {
		return
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if obj := w.objOf(id); obj != nil {
			if w.isPackageLevel(obj) {
				w.report(id.Pos(), "unconfined write to package-level variable %s in tile-parallel phase %s (via %s)",
					id.Name, w.phase, w.path())
				return
			}
			w.env[obj] = cl
		}
		return
	}
	// `for _, x.f = range ...`: a plain write.
	w.write(e, e.Pos())
}

func (w *walker) assign(s *ast.AssignStmt) {
	// `X = append(X, ...)` writes only into X's own backing array; walk
	// the appended values and let the LHS check below judge X once.
	selfAppend := false
	if len(s.Lhs) == 1 && len(s.Rhs) == 1 {
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok && w.isBuiltin(call, "append") &&
			len(call.Args) > 0 && types.ExprString(call.Args[0]) == types.ExprString(s.Lhs[0]) {
			selfAppend = true
			w.expr(call.Args[0])
			for _, a := range call.Args[1:] {
				w.expr(a)
			}
		}
	}
	if !selfAppend {
		for _, r := range s.Rhs {
			w.expr(r)
		}
	}

	classes := make([]class, len(s.Lhs))
	switch {
	case selfAppend:
		call := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
		// The slice keeps its class; downgrading to "fresh call result"
		// would launder a shared slice into a safe one.
		classes[0] = w.classOf(call.Args[0])
	case len(s.Rhs) == 1 && len(s.Lhs) > 1:
		cl := classSafe
		if call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr); ok && isShardRange(callgraph.StaticCallee(w.info(), call)) {
			cl = classTile
		}
		for i := range classes {
			classes[i] = cl
		}
	default:
		for i := range s.Lhs {
			if i < len(s.Rhs) {
				classes[i] = w.classOf(s.Rhs[i])
			} else {
				classes[i] = classSafe
			}
		}
	}

	for i, l := range s.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			if id.Name == "_" {
				continue
			}
			obj := w.objOf(id)
			if obj == nil {
				continue
			}
			if w.isPackageLevel(obj) {
				w.report(l.Pos(), "unconfined write to package-level variable %s in tile-parallel phase %s (via %s)",
					id.Name, w.phase, w.path())
				continue
			}
			if s.Tok == token.DEFINE || s.Tok == token.ASSIGN {
				w.env[obj] = classes[i]
			}
			continue
		}
		w.expr(l)
		w.write(l, l.Pos())
	}
}

// write reports lhs when its reference chain roots in shared state and
// is not re-confined by a tile-derived subscript along the way.
func (w *walker) write(lhs ast.Expr, pos token.Pos) {
	if w.classOf(lhs) != classShared {
		return
	}
	w.report(pos, "unconfined write to %s in tile-parallel phase %s (via %s); defer it into the tile's fx or route it through a delay≥1 link",
		types.ExprString(ast.Unparen(lhs)), w.phase, w.path())
}

// ---- expressions and calls ----

func (w *walker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		w.call(e)
	case *ast.FuncLit:
		// A closure runs, at most, wherever it appears; its captures
		// keep their classes.
		w.block(e.Body)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.SelectorExpr:
		w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.IndexListExpr:
		w.expr(e.X)
		for _, i := range e.Indices {
			w.expr(i)
		}
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.UnaryExpr:
		w.expr(e.X)
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.KeyValueExpr:
		w.expr(e.Key)
		w.expr(e.Value)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			w.expr(el)
		}
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	}
}

func (w *walker) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := w.info().Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

func (w *walker) call(call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.info().Uses[id].(*types.Builtin); ok {
			w.builtin(b.Name(), call)
			return
		}
	}
	if tv, ok := w.info().Types[call.Fun]; ok && tv.IsType() {
		// Conversion, not a call.
		for _, a := range call.Args {
			w.expr(a)
		}
		return
	}
	w.expr(call.Fun)
	fn := callgraph.StaticCallee(w.info(), call)
	if fn == nil {
		// Dynamic call.  Through shared state (a fabric's sink or hook
		// field) it hands control to an observer that may fold into
		// shared aggregates — effects-only.
		if fun := ast.Unparen(call.Fun); w.classOf(fun) == classShared {
			w.report(call.Pos(), "dynamic call through shared %s in tile-parallel phase %s (via %s): observer hand-offs are effects-phase-only",
				types.ExprString(fun), w.phase, w.path())
		}
		for _, a := range call.Args {
			w.expr(a)
		}
		return
	}
	for _, a := range call.Args {
		w.expr(a)
	}
	// Policy before descent: subset runs must match ./... runs.
	switch callPolicy(fn) {
	case policySafe:
		return
	case policyEffects:
		w.report(call.Pos(), "%s folds into shared aggregate state and is effects-phase-only, but is reached in tile-parallel phase %s (via %s); defer it into the tile's fx",
			callgraph.DisplayName(fn), w.phase, w.path())
		return
	}
	node := w.c.graph.Node(callgraph.Key(fn))
	if node == nil {
		// No syntax loaded (stdlib or out-of-pattern dependency):
		// assumed not to reach fabric state.
		return
	}
	w.descend(node, call)
}

func (w *walker) builtin(name string, call *ast.CallExpr) {
	for _, a := range call.Args {
		w.expr(a)
	}
	switch name {
	case "append", "copy", "delete":
		if len(call.Args) > 0 && w.classOf(call.Args[0]) == classShared {
			w.report(call.Pos(), "unconfined write through %s to shared %s in tile-parallel phase %s (via %s)",
				name, types.ExprString(ast.Unparen(call.Args[0])), w.phase, w.path())
		}
	}
}

// descend re-walks the callee's body with the caller's argument
// classes bound to its parameters (its own unit's objects — a
// cross-package callee resolves idents against its defining package's
// type-check, not the caller's import snapshot).
func (w *walker) descend(node *callgraph.Node, call *ast.CallExpr) {
	sig, _ := node.Obj.Type().(*types.Signature)
	if sig == nil || node.Decl.Body == nil {
		return
	}
	env := make(map[*types.Var]class)
	ctx := make([]class, 0, sig.Params().Len()+1)
	if r := sig.Recv(); r != nil {
		rc := classSafe
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			rc = w.classOf(sel.X)
		}
		env[r] = rc
		ctx = append(ctx, rc)
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		cl := classSafe
		if sig.Variadic() && i == params.Len()-1 {
			for j := i; j < len(call.Args); j++ {
				if w.classOf(call.Args[j]) == classShared {
					cl = classShared
				}
			}
		} else if i < len(call.Args) {
			cl = w.classOf(call.Args[i])
		}
		env[params.At(i)] = cl
		ctx = append(ctx, cl)
	}

	key := fmt.Sprintf("%s|%s|%v", node.Key, w.phase, ctx)
	if w.c.memo[key] {
		return
	}
	if len(w.stack)+1 > 40 {
		// Depth cap: bail WITHOUT memoizing, or a chain that first
		// reaches this context too deep would poison the memo and a
		// later shallower path would be skipped unwalked.
		return
	}
	w.c.memo[key] = true

	child := &walker{c: w.c, node: node, phase: w.phase, env: env,
		stack: append(append([]string{}, w.stack...), callgraph.DisplayName(node.Obj))}
	child.block(node.Decl.Body)
}

// ---- classification ----

func (w *walker) classOf(e ast.Expr) class {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.objOf(e)
		if obj == nil {
			return classSafe
		}
		if cl, ok := w.env[obj]; ok {
			return cl
		}
		if w.isPackageLevel(obj) {
			return classShared
		}
		return classSafe
	case *ast.SelectorExpr:
		// Package-qualified selectors root at the named object itself.
		if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
			if _, ok := w.info().Uses[id].(*types.PkgName); ok {
				if v, ok := w.info().Uses[e.Sel].(*types.Var); ok && w.isPackageLevel(v) {
					return classShared
				}
				return classSafe
			}
		}
		return w.classOf(e.X)
	case *ast.IndexExpr:
		base := w.classOf(e.X)
		if base == classShared && w.classOf(e.Index) == classTile && w.isSliceOrArray(e.X) {
			// The tile-confinement rule: a shared slice subscripted by a
			// tile-derived index is this tile's own element.  Slices and
			// arrays only — distinct map keys do not confine (concurrent
			// map writes race regardless of key).
			return classSafe
		}
		return base
	case *ast.SliceExpr:
		base := w.classOf(e.X)
		if base == classShared && e.Low != nil && e.High != nil &&
			w.classOf(e.Low) == classTile && w.classOf(e.High) == classTile {
			return classSafe
		}
		return base
	case *ast.StarExpr:
		return w.classOf(e.X)
	case *ast.UnaryExpr:
		return w.classOf(e.X)
	case *ast.BinaryExpr:
		// Arithmetic on tile-derived integers stays tile-derived (loop
		// bounds like lo+1, hi-1).
		if w.classOf(e.X) == classTile || w.classOf(e.Y) == classTile {
			return classTile
		}
		return classSafe
	case *ast.TypeAssertExpr:
		return w.classOf(e.X)
	}
	// Calls, literals, closures: fresh values.
	return classSafe
}

func (w *walker) objOf(id *ast.Ident) *types.Var {
	if v, ok := w.info().Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := w.info().Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

func (w *walker) isPackageLevel(v *types.Var) bool {
	if v.IsField() || v.Pkg() == nil {
		return false
	}
	return v.Parent() == v.Pkg().Scope()
}

// isSliceOrArray reports whether e's underlying type is a slice,
// array, or pointer-to-array — the only index bases where distinct
// indexes name distinct memory.
func (w *walker) isSliceOrArray(e ast.Expr) bool {
	t := w.info().TypeOf(e)
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	}
	return false
}

// ---- call policy ----

type policy int

const (
	policyNone policy = iota
	// policySafe calls are sanctioned in any phase and not descended
	// into.
	policySafe
	// policyEffects calls fold into shared aggregates and may only run
	// in the serial effects phase.
	policyEffects
)

// callPolicy classifies calls into the instrumentation packages by
// import-path suffix, so the analyzer applies identically to this
// module and to testdata modules mirroring its layout.
func callPolicy(fn *types.Func) policy {
	pkg := fn.Pkg()
	if pkg == nil {
		return policyNone
	}
	path := pkg.Path()
	switch {
	case analysis.PathIs(path, "internal/link"):
		if recvTypeName(fn) == "Line" {
			return policySafe
		}
	case analysis.PathIs(path, "internal/probe"):
		if fn.Name() == "Traverse" {
			return policySafe
		}
		return policyEffects
	case analysis.PathIs(path, "internal/stats"):
		return policyEffects
	case analysis.PathIs(path, "internal/power"):
		return policyEffects
	case analysis.PathIs(path, "internal/packet"):
		if recvTypeName(fn) == "FreeList" {
			return policyEffects
		}
	case analysis.PathIs(path, "internal/shard"):
		if fn.Name() == "Range" {
			return policySafe
		}
	}
	return policyNone
}

func isShardRange(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && analysis.PathIs(fn.Pkg().Path(), "internal/shard") && fn.Name() == "Range"
}

func recvTypeName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return ""
	}
	t := types.Unalias(sig.Recv().Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj().Name()
	}
	return ""
}
