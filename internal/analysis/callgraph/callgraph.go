// Package callgraph is the interprocedural core of the nocvet
// framework: a static call graph over every loaded unit, with
// reachability from annotated roots and shortest call chains for
// diagnostics.
//
// Before PR 10 each whole-module analyzer (hotalloc) grew its own
// ad-hoc walk; the shardsafe family needs the same machinery plus
// reference edges, so the graph lives here and analyzers share it.
//
// Two edge kinds exist:
//
//   - call edges — statically resolvable calls: plain function calls
//     and method calls whose callee the type checker names.  Calls
//     through interfaces and func values stay unresolved (the nilhook
//     analyzer owns exactly those shapes).
//   - reference edges — a function or method *mentioned* without being
//     called: a method value bound to a struct field or passed as an
//     argument (the tile roots handed to `router.NewKernel`).  A
//     referenced function is assumed callable wherever the reference
//     escapes, so reachability follows these edges too; without them
//     the sharded stepping path — tile closures invoked by the worker
//     pool — was invisible to hotalloc.
//
// Identity is the cross-package-stable Key (defining package path,
// receiver type, name): objects for the same method differ between a
// package's own type-check and an importer's export data, but their
// printed identity does not.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"surfbless/internal/analysis"
)

// Node is one function declaration with a body.
type Node struct {
	// Decl is the declaration's syntax.
	Decl *ast.FuncDecl
	// Unit owns the declaration.
	Unit *analysis.Unit
	// Obj is the declared function object (from the owning unit's own
	// type-check, not export data).
	Obj *types.Func
	// Key is Key(Obj), cached.
	Key string
}

// Edge is one outgoing call or reference from a node.
type Edge struct {
	// Callee is the target's Key.  The target may have no Node when its
	// syntax is not loaded (stdlib, out-of-pattern packages).
	Callee string
	// Pos is the call or reference site.
	Pos token.Pos
	// Ref marks a reference edge (method/function value mention) rather
	// than a direct call.
	Ref bool
}

// Graph is the module's static call graph.
type Graph struct {
	nodes map[string]*Node
	edges map[string][]Edge
	order []string // node keys, deterministic
}

// Build indexes every function declaration of the units and scans each
// body for call and reference edges.
func Build(units []*analysis.Unit) *Graph {
	g := &Graph{nodes: make(map[string]*Node), edges: make(map[string][]Edge)}
	for _, u := range units {
		for _, file := range u.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Decl: fd, Unit: u, Obj: obj, Key: Key(obj)}
				g.nodes[n.Key] = n
				g.order = append(g.order, n.Key)
			}
		}
	}
	sort.Strings(g.order)
	for _, k := range g.order {
		g.edges[k] = scanEdges(g.nodes[k])
	}
	return g
}

// scanEdges collects the outgoing edges of one function body: static
// callees of every call, plus reference edges for functions mentioned
// outside call position.
func scanEdges(n *Node) []Edge {
	info := n.Unit.Info
	// Idents serving as the Fun of a call are not references.
	calleeIdents := make(map[*ast.Ident]bool)
	var edges []Edge
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		id := calleeIdent(call)
		if id == nil {
			return true
		}
		calleeIdents[id] = true
		if fn := StaticCallee(info, call); fn != nil {
			edges = append(edges, Edge{Callee: Key(fn), Pos: call.Pos()})
		}
		return true
	})
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		id, ok := node.(*ast.Ident)
		if !ok || calleeIdents[id] {
			return true
		}
		fn, ok := info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		edges = append(edges, Edge{Callee: Key(fn), Pos: id.Pos(), Ref: true})
		return true
	})
	return edges
}

// calleeIdent returns the identifier naming a call's callee, nil for
// calls through arbitrary expressions.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// StaticCallee resolves the function or method a call statically
// invokes, or nil for dynamic calls (func values and interface
// methods) and non-call expressions (type conversions, builtins).
// Interface method calls DO resolve to a *types.Func in info.Uses —
// the abstract method — but dispatch dynamically, so they count as
// unresolved here.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	id := calleeIdent(call)
	if id == nil {
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	if fn == nil || interfaceMethod(fn) {
		return nil
	}
	return fn.Origin()
}

// interfaceMethod reports whether fn is an abstract interface method.
func interfaceMethod(fn *types.Func) bool {
	sig, _ := fn.Type().(*types.Signature)
	return sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type())
}

// Node returns the indexed declaration for key, nil when its syntax is
// not loaded.
func (g *Graph) Node(key string) *Node { return g.nodes[key] }

// Funcs returns every indexed node in deterministic (key) order.
func (g *Graph) Funcs() []*Node {
	out := make([]*Node, len(g.order))
	for i, k := range g.order {
		out[i] = g.nodes[k]
	}
	return out
}

// Callees returns the outgoing edges of key in source order.
func (g *Graph) Callees(key string) []Edge { return g.edges[key] }

// Reach is the result of a reachability walk: which nodes a root set
// reaches, and one shortest call chain per node.
type Reach struct {
	parent  map[string]string
	visited map[string]bool
	order   []string
}

// Reach walks the graph breadth-first from roots (following call and
// reference edges alike) and records one shortest discovery chain per
// reached node.  Roots are visited in the given order; pass them
// sorted for deterministic results.
func (g *Graph) Reach(roots []string) *Reach {
	r := &Reach{parent: make(map[string]string), visited: make(map[string]bool)}
	var queue []string
	for _, k := range roots {
		if g.nodes[k] == nil || r.visited[k] {
			continue
		}
		r.visited[k] = true
		r.order = append(r.order, k)
		queue = append(queue, k)
	}
	for len(queue) > 0 {
		k := queue[0]
		queue = queue[1:]
		for _, e := range g.edges[k] {
			if r.visited[e.Callee] || g.nodes[e.Callee] == nil {
				continue
			}
			r.visited[e.Callee] = true
			r.parent[e.Callee] = k
			r.order = append(r.order, e.Callee)
			queue = append(queue, e.Callee)
		}
	}
	return r
}

// Visited reports whether key was reached.
func (r *Reach) Visited(key string) bool { return r.visited[key] }

// Order returns the reached keys in BFS discovery order.
func (r *Reach) Order() []string { return r.order }

// Chain renders the shortest discovered root→key call path for
// diagnostics, eliding interior hops past maxHops names.
func (r *Reach) Chain(g *Graph, key string) string {
	var names []string
	for k := key; ; {
		if n := g.nodes[k]; n != nil {
			names = append(names, DisplayName(n.Obj))
		} else {
			names = append(names, k)
		}
		p, ok := r.parent[k]
		if !ok {
			break
		}
		k = p
	}
	// names is leaf..root; render root → leaf, capped for sanity.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	const maxHops = 6
	if len(names) > maxHops {
		names = append([]string{names[0], "…"}, names[len(names)-maxHops+2:]...)
	}
	return strings.Join(names, " → ")
}

// Key is a cross-package-stable identity for a function or method: the
// defining package path, receiver type name if any, and function name.
func Key(fn *types.Func) string {
	fn = fn.Origin()
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := types.Unalias(sig.Recv().Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if n, ok := t.(*types.Named); ok {
			n = n.Origin()
			if pkg := n.Obj().Pkg(); pkg != nil {
				return pkg.Path() + "." + n.Obj().Name() + "." + fn.Name()
			}
		}
		return types.TypeString(t, nil) + "." + fn.Name()
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	return fn.Name()
}

// DisplayName renders a function for messages: pkg.(*Recv).Name.
func DisplayName(fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := types.Unalias(sig.Recv().Type())
		star := ""
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
			star = "*"
		}
		if n, ok := t.(*types.Named); ok {
			pkgName := ""
			if pkg := n.Obj().Pkg(); pkg != nil {
				pkgName = pkg.Name() + "."
			}
			return fmt.Sprintf("%s(%s%s).%s", pkgName, star, n.Obj().Name(), fn.Name())
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}
