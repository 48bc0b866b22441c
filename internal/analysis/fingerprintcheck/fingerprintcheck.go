// Package fingerprintcheck implements the nocvet analyzer that audits
// the simulation-result cache's fingerprint payloads.
//
// The simcache keys results by SHA-256 over the canonical JSON
// serialization of an options struct (sim.Options, system.Options):
// whatever encoding/json emits is what distinguishes cache entries.
// A field that influences simulation results but does not reach that
// payload poisons the cache — two semantically different runs collide
// on one key and the second silently returns the first's results.
// The repository's convention (set by Options.Shards) is that every
// deliberately unfingerprinted field carries an explicit `json:"-"`
// tag plus a comment arguing why results cannot depend on it.
//
// The analyzer finds every `json.Marshal(x)` — or the cache's shared
// derivation `simcache.KeyOf(version, x)`, which marshals x — inside a
// function named Fingerprint, takes x's struct type as a payload root,
// and walks all struct types reachable through serialized fields
// within the same module.  Each field must be one of:
//
//   - serialized: exported, of a type encoding/json marshals
//     completely and deterministically (basics, structs, slices,
//     arrays, maps — whose keys json sorts — pointers, and types with
//     their own MarshalJSON/MarshalText);
//   - exempt: tagged `json:"-"`.
//
// Violations are fields that leak out of the payload silently:
// unexported fields (encoding/json skips them without a word), and
// exported fields of func, channel, complex, or interface type
// (Marshal either fails at run time or serializes by dynamic type).
package fingerprintcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"

	"surfbless/internal/analysis"
)

// Analyzer is the fingerprint payload auditor.
var Analyzer = &analysis.Analyzer{
	Name:      "fingerprintcheck",
	Doc:       "every field reachable from a fingerprint's json.Marshal payload must feed the hash or carry an explicit json:\"-\" exemption",
	RunModule: run,
}

func run(pass *analysis.ModulePass) error {
	for _, u := range pass.Units {
		// One walk per package: a struct two packages' payloads reach
		// is audited (and reported) once for each.
		w := &walker{pass: pass, unit: u, seen: make(map[string]bool)}
		for _, file := range u.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name.Name != "Fingerprint" || fd.Body == nil {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) == 0 {
						return true
					}
					fn := analysis.Callee(u.Info, call)
					if fn == nil || fn.Pkg() == nil {
						return true
					}
					path := fn.Pkg().Path()
					switch {
					case path == "encoding/json" && (fn.Name() == "Marshal" || fn.Name() == "MarshalIndent"):
						w.root(call.Args[0], call.Pos())
					case analysis.PathIs(path, "internal/simcache") && fn.Name() == "KeyOf" && len(call.Args) == 2:
						w.root(call.Args[1], call.Pos())
					}
					return true
				})
			}
		}
	}
	return nil
}

// walker audits every module struct type reachable from one payload
// root.
type walker struct {
	pass *analysis.ModulePass
	unit *analysis.Unit
	seen map[string]bool
	// fallback anchors findings on fields whose own source position
	// is unknown (types imported purely from export data).
	fallback token.Pos
}

// root seeds the walk with the static type of a json.Marshal argument.
func (w *walker) root(arg ast.Expr, pos token.Pos) {
	tv, ok := w.unit.Info.Types[arg]
	if !ok {
		return
	}
	w.fallback = pos
	w.checkType(tv.Type, typeName(tv.Type))
}

// checkStruct audits one struct type's fields.
func (w *walker) checkStruct(st *types.Struct, owner string) {
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		tag := reflect.StructTag(st.Tag(i)).Get("json")
		name, _, _ := strings.Cut(tag, ",")
		if name == "-" && tag != "-," {
			continue // explicit exemption, the Shards convention
		}
		if !f.Exported() {
			if f.Anonymous() {
				// encoding/json promotes the exported fields of an
				// unexported embedded struct: they do feed the hash.
				w.checkType(f.Type(), owner+"."+f.Name())
				continue
			}
			w.report(f, "field %s.%s is unexported, so encoding/json silently omits it from the fingerprint payload; export it or record the exemption with a json:\"-\" tag and a comment arguing results cannot depend on it", owner, f.Name())
			continue
		}
		w.checkFieldType(f, f.Type(), owner)
	}
}

// checkFieldType validates that one serialized field marshals
// completely and deterministically.
func (w *walker) checkFieldType(f *types.Var, t types.Type, owner string) {
	if hasOwnEncoding(t) {
		return // the type controls its own bytes; trust it
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&types.IsComplex != 0 {
			w.report(f, "field %s.%s has complex type %s; json.Marshal fails on it at run time, so the fingerprint path is broken — change the type or exempt it with json:\"-\"", owner, f.Name(), t)
		}
	case *types.Pointer:
		w.checkFieldType(f, u.Elem(), owner)
	case *types.Slice:
		w.checkFieldType(f, u.Elem(), owner)
	case *types.Array:
		w.checkFieldType(f, u.Elem(), owner)
	case *types.Map:
		if k, ok := u.Key().Underlying().(*types.Basic); !ok ||
			k.Info()&(types.IsString|types.IsInteger) == 0 {
			if !hasTextEncoding(u.Key()) {
				w.report(f, "field %s.%s is a map keyed by %s, which json.Marshal rejects; the fingerprint path is broken — use string or integer keys or exempt the field with json:\"-\"", owner, f.Name(), u.Key())
				return
			}
		}
		w.checkFieldType(f, u.Elem(), owner)
	case *types.Struct:
		w.checkType(t, typeName(t))
	case *types.Interface:
		w.report(f, "field %s.%s is interface-typed (%s), so its serialization depends on the dynamic value; give it a concrete type or exempt it with json:\"-\" and fold the information into the payload another way", owner, f.Name(), t)
	case *types.Signature:
		w.report(f, "field %s.%s is func-typed; json.Marshal fails on it at run time, so the fingerprint path is broken — exempt it with json:\"-\" like Options.Shards, or change the type", owner, f.Name())
	case *types.Chan:
		w.report(f, "field %s.%s is channel-typed; json.Marshal fails on it at run time, so the fingerprint path is broken — exempt it with json:\"-\" or change the type", owner, f.Name())
	}
}

// checkType recurses into a struct type if it belongs to the analyzed
// module; foreign types (stdlib) are trusted as opaque, stable
// serializations.
func (w *walker) checkType(t types.Type, display string) {
	if n, ok := t.(*types.Named); ok {
		pkg := n.Obj().Pkg()
		if pkg == nil || !inModule(pkg.Path(), w.unit.ModulePath) {
			return
		}
		key := types.TypeString(t, nil)
		if w.seen[key] {
			return
		}
		w.seen[key] = true
	}
	if st, ok := t.Underlying().(*types.Struct); ok {
		w.checkStruct(st, display)
	}
}

// report anchors the finding on the field's declaration when its
// position is known, else on the json.Marshal call that reaches it.
func (w *walker) report(f *types.Var, format string, args ...any) {
	pos := f.Pos()
	if !pos.IsValid() {
		pos = w.fallback
	}
	w.pass.Reportf(pos, "fingerprint", format, args...)
}

// inModule reports whether pkgPath is modulePath or below it.
func inModule(pkgPath, modulePath string) bool {
	return modulePath != "" &&
		(pkgPath == modulePath || strings.HasPrefix(pkgPath, modulePath+"/"))
}

// typeName renders a type for messages, pointers stripped.
func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// hasOwnEncoding reports whether t (or *t) provides MarshalJSON or
// MarshalText and therefore controls its own serialization.
func hasOwnEncoding(t types.Type) bool {
	return implementsMethod(t, "MarshalJSON") || implementsMethod(t, "MarshalText")
}

func hasTextEncoding(t types.Type) bool {
	return implementsMethod(t, "MarshalText")
}

// implementsMethod reports whether t or *t has a method with the
// ([]byte, error) marshaler shape under the given name.
func implementsMethod(t types.Type, name string) bool {
	for _, recv := range []types.Type{t, types.NewPointer(t)} {
		obj, _, _ := types.LookupFieldOrMethod(recv, true, nil, name)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Params().Len() != 0 || sig.Results().Len() != 2 {
			continue
		}
		s, ok := sig.Results().At(0).Type().(*types.Slice)
		if !ok {
			continue
		}
		// byte may surface as a materialized alias; compare kinds.
		if b, ok := types.Unalias(s.Elem()).(*types.Basic); !ok || b.Kind() != types.Uint8 {
			continue
		}
		if named, ok := sig.Results().At(1).Type().(*types.Named); !ok ||
			named.Obj().Pkg() != nil || named.Obj().Name() != "error" {
			continue
		}
		return true
	}
	return false
}
