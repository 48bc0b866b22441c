// Package hotalloc implements the nocvet analyzer that keeps the
// fabric stepping hot path allocation-free at the source level.
//
// The simulator's steady-state stepping is exactly zero-alloc (the
// TestStepNoAlloc guard and the BenchmarkStep* suite prove it at run
// time), but those checks fire per-benchmark and only on exercised
// paths.  This analyzer enforces the property per-commit.  It roots at
//
//   - every fabric's `Step(now int64)` method, and
//   - every function carrying a //shard:phase annotation — the sharded
//     stepping tile bodies run every cycle but are invoked through
//     method values handed to the worker pool, so no static call
//     reaches them from Step;
//
// then walks the interprocedural call graph
// (internal/analysis/callgraph) across all analyzed packages —
// following both static calls and references (method values bound to
// fields or passed as arguments), so a tile function handed to a
// dispatcher stays hot one call deep and beyond — and flags source
// constructs that heap-allocate:
//
//   - make, new, and &T{...} / slice / map composite literals
//   - append whose result is not reassigned to its own first operand
//     (the warm-up growth idiom `buf = append(buf, x)` amortizes to
//     zero and is allowed)
//   - closures (func literals capture by reference and escape)
//   - fmt.* calls, sort.Slice/SliceStable/Sort and friends
//   - string<->[]byte/[]rune conversions and non-constant string
//     concatenation
//   - go and defer statements
//
// Calls through interfaces and func values remain unresolved (the hook
// calls the nilhook analyzer covers are exactly of that shape, and
// their implementations live behind nil guards off the steady path) —
// but the functions such values name are reachable via their reference
// edges.  Run it over the whole module (`nocvet ./...`) so
// cross-package callees — link receive, NI scheduling, stats
// recording — are in the graph.
//
// Allocations on provably cold paths (panic formatting on invariant
// violations, one-time lazy setup) carry `//nocvet:alloc <why>`.
package hotalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"surfbless/internal/analysis"
	"surfbless/internal/analysis/callgraph"
)

// Analyzer is the hot-path allocation checker.
var Analyzer = &analysis.Analyzer{
	Name:      "hotalloc",
	Doc:       "forbid heap-allocating constructs in code reachable from any fabric's Step method or //shard:phase function",
	RunModule: run,
}

// flaggedCalls maps stdlib package paths to the functions (or "*" for
// all) that allocate by design.
var flaggedCalls = map[string]map[string]bool{
	"fmt":  {"*": true},
	"sort": {"Slice": true, "SliceStable": true, "SliceIsSorted": true, "Sort": true, "Stable": true, "Strings": true, "Ints": true, "Float64s": true},
}

func run(pass *analysis.ModulePass) error {
	g := callgraph.Build(pass.Units)
	// Funcs is key-sorted, so the root order — and with it BFS layering
	// and chain choice — is deterministic.
	var roots []string
	for _, n := range g.Funcs() {
		if isStepRoot(n.Decl, n.Obj) {
			roots = append(roots, n.Key)
		} else if _, _, ok := analysis.ParsePhase(n.Decl.Doc); ok {
			roots = append(roots, n.Key)
		}
	}
	r := g.Reach(roots)
	for _, key := range r.Order() {
		scanFunc(pass, g.Node(key), "reachable via "+r.Chain(g, key))
	}
	return nil
}

// isStepRoot recognizes the fabric contract's hot entry point: a
// method named Step taking a single int64 cycle number.
func isStepRoot(fd *ast.FuncDecl, obj *types.Func) bool {
	if fd.Recv == nil || fd.Name.Name != "Step" {
		return false
	}
	sig := obj.Type().(*types.Signature)
	if sig.Params().Len() != 1 {
		return false
	}
	b, ok := types.Unalias(sig.Params().At(0).Type()).(*types.Basic)
	return ok && b.Kind() == types.Int64
}

// scanFunc reports allocating constructs in one reachable function.
func scanFunc(pass *analysis.ModulePass, n *callgraph.Node, via string) {
	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "alloc", "%s on the Step hot path (%s); hoist it onto the router struct, reuse a scratch buffer, or waive a proven-cold site with //nocvet:alloc", what, via)
	}
	info := n.Unit.Info
	appendTargets := collectAppendTargets(n.Decl.Body)

	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			report(node.Pos(), "closure literal allocates")
			return false // the closure body is not on the steady path until called
		case *ast.GoStmt:
			report(node.Pos(), "go statement allocates a goroutine")
		case *ast.DeferStmt:
			report(node.Pos(), "defer allocates its frame record")
		case *ast.CompositeLit:
			switch types.Unalias(info.Types[node].Type).Underlying().(type) {
			case *types.Slice:
				report(node.Pos(), "slice literal allocates")
			case *types.Map:
				report(node.Pos(), "map literal allocates")
			}
		case *ast.UnaryExpr:
			if node.Op == token.AND {
				if _, ok := ast.Unparen(node.X).(*ast.CompositeLit); ok {
					report(node.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if node.Op == token.ADD && info.Types[node].Value == nil {
				if b, ok := types.Unalias(info.Types[node].Type).Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					report(node.Pos(), "string concatenation allocates")
				}
			}
		case *ast.CallExpr:
			scanCall(info, node, appendTargets, report)
		}
		return true
	})
}

// scanCall classifies one call: a flagged builtin, a flagged stdlib
// allocator, or an allocating conversion.  Traversal into callees is
// the call graph's job, not this function's.
func scanCall(info *types.Info, call *ast.CallExpr, appendTargets map[*ast.CallExpr]string, report func(token.Pos, string)) {
	// Type conversions: string<->[]byte/[]rune copy their operand.
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		if len(call.Args) == 1 && conversionAllocates(tv.Type, info.Types[ast.Unparen(call.Args[0])].Type) {
			report(call.Pos(), "string conversion allocates a copy")
		}
		return
	}

	id := analysis.CalleeIdent(call)
	if id == nil {
		return
	}
	switch obj := info.Uses[id].(type) {
	case *types.Builtin:
		switch obj.Name() {
		case "make":
			report(call.Pos(), "make allocates")
		case "new":
			report(call.Pos(), "new allocates")
		case "append":
			if !selfAppend(call, appendTargets) {
				report(call.Pos(), "append into a fresh destination allocates")
			}
		}
	case *types.Func:
		obj = obj.Origin()
		if obj.Pkg() == nil {
			return
		}
		if names, ok := flaggedCalls[obj.Pkg().Path()]; ok {
			if names["*"] || names[obj.Name()] {
				report(call.Pos(), fmt.Sprintf("%s.%s allocates", obj.Pkg().Name(), obj.Name()))
			}
		}
	}
}

// selfAppend recognizes the amortized-growth idioms whose steady
// state is allocation-free: the append result assigned back onto its
// own first operand, `buf = append(buf, ...)`, or onto the reslice of
// it, `buf = append(buf[:0], ...)`.
func selfAppend(call *ast.CallExpr, appendTargets map[*ast.CallExpr]string) bool {
	if len(call.Args) == 0 {
		return false
	}
	target, ok := appendTargets[call]
	if !ok {
		return false
	}
	arg := ast.Unparen(call.Args[0])
	if target == types.ExprString(arg) {
		return true
	}
	if se, ok := arg.(*ast.SliceExpr); ok && target == types.ExprString(ast.Unparen(se.X)) {
		return true
	}
	return false
}

// collectAppendTargets maps every call appearing as the i-th RHS of an
// assignment in body to the printed form of its i-th LHS.
func collectAppendTargets(body *ast.BlockStmt) map[*ast.CallExpr]string {
	targets := make(map[*ast.CallExpr]string)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
				targets[call] = types.ExprString(ast.Unparen(as.Lhs[i]))
			}
		}
		return true
	})
	return targets
}

// conversionAllocates reports whether converting from -> to copies
// backing storage (string <-> []byte / []rune).
func conversionAllocates(to, from types.Type) bool {
	if to == nil || from == nil {
		return false
	}
	toS := isString(to)
	fromS := isString(from)
	return (toS && isByteOrRuneSlice(from)) || (fromS && isByteOrRuneSlice(to))
}

func isString(t types.Type) bool {
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
