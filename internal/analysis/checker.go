// The checker: runs a set of analyzers over loaded units, applies the
// suppression directives, and renders findings.  Shared by cmd/nocvet
// and the analysistest golden harness so both see the exact semantics
// CI enforces.
package analysis

import (
	"fmt"
	"go/token"
	"io"
	"sort"
)

// Finding is one diagnostic after suppression processing.
type Finding struct {
	Analyzer string
	Position token.Position
	Category string
	Message  string
	// Suppressed marks findings waived by a //nocvet: directive; they
	// are kept (tests assert on them) but not printed and not counted
	// against the exit status.
	Suppressed bool
}

// Options tunes one checker run.
type Options struct {
	// ReportStale reports well-formed //nocvet: directives that waived
	// no finding as findings themselves, so waivers die with the code
	// they excused.  Staleness is relative to the analyzer set that
	// ran: only the full-suite run (cmd/nocvet) may enable this —
	// under a single analyzer (analysistest) every other analyzer's
	// waivers would look stale.
	ReportStale bool
}

// RunAnalyzers executes every analyzer over the units and returns all
// findings sorted by position.  Malformed or unknown //nocvet:
// directives are reported as findings of the pseudo-analyzer
// "directive" — a typo must fail loudly rather than silently
// suppressing nothing.
func RunAnalyzers(fset *token.FileSet, units []*Unit, analyzers []*Analyzer) ([]Finding, error) {
	return RunAnalyzersWith(fset, units, analyzers, Options{})
}

// RunAnalyzersWith is RunAnalyzers with explicit Options.
func RunAnalyzersWith(fset *token.FileSet, units []*Unit, analyzers []*Analyzer, opts Options) ([]Finding, error) {
	var findings []Finding
	indexes := make(map[*Unit]*DirectiveIndex, len(units))
	for _, u := range units {
		idx := NewDirectiveIndex(fset, u.Files)
		indexes[u] = idx
		for _, bad := range idx.Bad {
			findings = append(findings, Finding{
				Analyzer: "directive",
				Position: fset.Position(bad.Pos),
				Category: "directive",
				Message:  fmt.Sprintf("unknown nocvet directive (known: %s)", knownDirectiveNames()),
			})
		}
	}

	record := func(a *Analyzer) func(Diagnostic) {
		return func(d Diagnostic) {
			f := Finding{
				Analyzer: a.Name,
				Position: fset.Position(d.Pos),
				Category: d.Category,
				Message:  d.Message,
			}
			// An analyzer may report into any unit; find the one owning
			// the position so its directives apply.
			if idx := indexForPos(fset, indexes, d.Pos); idx != nil {
				if _, ok := idx.Suppressed(d.Pos, d.Category); ok {
					f.Suppressed = true
				}
			}
			findings = append(findings, f)
		}
	}

	for _, a := range analyzers {
		pass := &ModulePass{Analyzer: a, Fset: fset, Units: units, Report: record(a)}
		if err := a.RunModule(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}

	if opts.ReportStale {
		for _, u := range units {
			for _, d := range indexes[u].Stale() {
				msg := fmt.Sprintf("stale //nocvet:%s directive waives nothing; delete it", d.Name)
				if d.Reason != "" {
					msg += fmt.Sprintf(" (reason was: %s)", d.Reason)
				}
				findings = append(findings, Finding{
					Analyzer: "directive",
					Position: fset.Position(d.Pos),
					Category: "directive",
					Message:  msg,
				})
			}
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		pi, pj := findings[i].Position, findings[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return findings[i].Message < findings[j].Message
	})
	return findings, nil
}

// indexForPos locates the directive index of the unit whose file
// contains pos.
func indexForPos(fset *token.FileSet, indexes map[*Unit]*DirectiveIndex, pos token.Pos) *DirectiveIndex {
	filename := fset.Position(pos).Filename
	for u, idx := range indexes {
		for _, f := range u.Files {
			if fset.Position(f.Pos()).Filename == filename {
				return idx
			}
		}
	}
	return nil
}

// Active filters out suppressed findings.
func Active(findings []Finding) []Finding {
	var out []Finding
	for _, f := range findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// Print writes the active findings one per line in the canonical
// file:line:col: [analyzer] message format and returns how many it
// wrote.
func Print(w io.Writer, findings []Finding) int {
	n := 0
	for _, f := range findings {
		if f.Suppressed {
			continue
		}
		fmt.Fprintf(w, "%s: [%s] %s\n", f.Position, f.Analyzer, f.Message)
		n++
	}
	return n
}

func knownDirectiveNames() string {
	names := make([]string, 0, len(KnownDirectives))
	for n := range KnownDirectives {
		names = append(names, n)
	}
	sort.Strings(names)
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ", "
		}
		s += n
	}
	return s
}
