// Package analysis is a self-contained static-analysis framework for
// this module, API-shaped after golang.org/x/tools/go/analysis but
// built entirely on the standard library (go/ast, go/types and the gc
// export-data importer), because the build image is offline and the
// module carries no external dependencies.
//
// The moving parts:
//
//   - Analyzer describes one check.  Per-package analyzers implement
//     Run and see one type-checked package at a time; whole-module
//     analyzers implement RunModule and see every loaded package at
//     once (hotalloc needs the cross-package call graph, which the
//     per-package granularity of x/tools facts would otherwise
//     require).
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

// Analyzer describes one static check.  Exactly one of Run and
// RunModule must be set.
type Analyzer struct {
	// Name identifies the analyzer in output and must be a valid Go
	// identifier.
	Name string
	// Doc is the one-paragraph description printed by `nocvet -help`.
	Doc string

	// Run analyzes a single package.
	Run func(*Pass) error
	// RunModule analyzes every loaded package at once.  Analyzers that
	// follow calls or types across package boundaries use this form.
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

// Pass carries one package to a per-package analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Unit     *Unit
	// Report records one finding.
	Report func(Diagnostic)
}

// Reportf reports a formatted finding at pos under the given
// suppression category.
func (p *Pass) Reportf(pos token.Pos, category, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Category: category, Message: fmt.Sprintf(format, args...)})
}

// ModulePass carries every loaded package to a whole-module analyzer.
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
