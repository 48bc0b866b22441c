// Package analysis is a self-contained static-analysis framework for
// this module, API-shaped after golang.org/x/tools/go/analysis but
// built entirely on the standard library (go/ast, go/types and the gc
// export-data importer), because the build image is offline and the
// module carries no external dependencies.
//
// The moving parts:
//
//   - Analyzer describes one check.  Every analyzer implements
//     RunModule and sees every loaded package at once: hotalloc and
//     shardsafe need the cross-package call graph, which the
//     per-package granularity of x/tools facts would otherwise
//     require, and the package-local checks simply loop over the
//     units.
//   - Unit is one type-checked package: syntax, types and the
//     surrounding module path.
//   - Diagnostic is one finding.  Its Category doubles as the
//     suppression key: a `//nocvet:<category>` comment on the
//     reported line, or on the line directly above it, silences the
//     finding (see directive.go for grammar and policy).
//
// The checker (checker.go) loads packages (load.go), runs analyzers,
// applies suppressions and formats findings; cmd/nocvet is the CLI
// front end and internal/analysis/analysistest the golden-file test
// harness.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in output and must be a valid Go
	// identifier.
	Name string
	// Doc is the one-paragraph description printed by `nocvet -help`.
	Doc string

	// RunModule analyzes every loaded package at once.
	RunModule func(*ModulePass) error
}

func (a *Analyzer) String() string { return a.Name }

// Unit is one type-checked package.
type Unit struct {
	// Path is the package's import path.
	Path string
	// ModulePath is the path of the module the package belongs to
	// ("surfbless" for this repository; the testdata modules of the
	// analyzer golden tests have their own).
	ModulePath string
	// Files holds the parsed syntax trees, comments included.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info holds the type-checker's facts about every expression.
	Info *types.Info
}

// ModulePass carries every loaded package to an analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Units    []*Unit
	Report   func(Diagnostic)
}

// Reportf reports a formatted finding at pos under the given
// suppression category.
func (p *ModulePass) Reportf(pos token.Pos, category, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: category, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos token.Pos
	// Category is the suppression key a `//nocvet:<category>`
	// directive must name to silence this finding.  It must be one of
	// the registered directive names (see KnownDirectives).
	Category string
	Message  string
}

// PathIs reports whether an import path is suffix or ends in
// "/"+suffix, so an analyzer that keys on a package such as
// "internal/probe" applies alike to this module and to testdata
// modules mirroring its layout.
func PathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// CalleeIdent returns the identifier naming a call's callee — the
// function name, or the selector of a qualified or method call — and
// nil for calls through any other expression.
func CalleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}

// Callee resolves the function or method a call names, or nil when its
// callee is no *types.Func (a func value, a conversion, a builtin).  An
// interface method call resolves to the abstract method.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	fn, _ := info.Uses[CalleeIdent(call)].(*types.Func)
	return fn
}
