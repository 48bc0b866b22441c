// Package determinism implements the nocvet analyzer that rejects
// nondeterminism in the simulator's replay-critical packages.
//
// Bit-identical replays are a load-bearing property: the simcache
// keys results by a fingerprint of the options alone, the
// confined-interference experiments compare victim traffic across
// runs flit for flit, and checkpoint/resume splices partial sweeps
// together.  All of that is sound only if a run is a pure function of
// its options.  Three constructs break that silently:
//
//   - time.Now (and Since/Until): wall-clock reads leak host timing
//     into results.
//   - the global math/rand source: shared process-wide state seeded
//     outside the options; only explicitly seeded rand.New(...)
//     streams are deterministic per run.
//   - range over a map: Go randomizes iteration order per execution,
//     so any observable effect of the loop's order differs between
//     replays.
//
// Map ranges whose effect is provably order-independent (accumulating
// into a commutative reduction, building a set) are waived with
// `//nocvet:ordered <why>`; wall-clock or RNG uses that cannot affect
// results are waived with `//nocvet:determinism <why>`.
package determinism

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"surfbless/internal/analysis"
)

// Analyzer is the determinism checker.
var Analyzer = &analysis.Analyzer{
	Name:      "determinism",
	Doc:       "forbid time.Now, the global math/rand source, and unordered map ranges in replay-critical packages",
	RunModule: run,
}

// Scope limits the analyzer to the packages whose behaviour feeds
// simulation results.  internal/shard is in scope because its worker
// bodies run router pipeline stages: a wall-clock read or global-rand
// draw there would vary with tile scheduling and break the sharded ==
// serial fingerprint guarantee.  Testdata modules mirror these path
// shapes.
var Scope = regexp.MustCompile(`internal/(router(/[^/]+)?|sim|traffic|link|shard)$`)

// wallClock lists the forbidden wall-clock reads.
var wallClock = map[string]bool{"Now": true, "Since": true, "Until": true}

func run(pass *analysis.ModulePass) error {
	for _, u := range pass.Units {
		if !Scope.MatchString(u.Path) {
			continue
		}
		for _, file := range u.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					checkCall(pass, u.Info, n)
				case *ast.RangeStmt:
					checkRange(pass, u.Info, n)
				}
				return true
			})
		}
	}
	return nil
}

// checkCall flags wall-clock reads and global math/rand draws.
func checkCall(pass *analysis.ModulePass, info *types.Info, call *ast.CallExpr) {
	fn := analysis.Callee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	// Package-level functions only: methods on an explicitly seeded
	// *rand.Rand are the sanctioned source of randomness.
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if wallClock[fn.Name()] {
			pass.Reportf(call.Pos(), "determinism",
				"time.%s reads the wall clock; simulation results must be a pure function of the options (use cycle counts)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		// Constructors (New, NewSource, NewPCG, ...) build explicitly
		// seeded streams and are fine; everything else draws from the
		// global, process-seeded source.
		if !strings.HasPrefix(fn.Name(), "New") {
			pass.Reportf(call.Pos(), "determinism",
				"%s.%s draws from the global math/rand source; use a rand.New stream seeded from the options", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkRange flags iteration over map types.
func checkRange(pass *analysis.ModulePass, info *types.Info, rs *ast.RangeStmt) {
	tv, ok := info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	pass.Reportf(rs.Pos(), "ordered",
		"range over %s iterates in randomized order; iterate a sorted key slice, or waive with //nocvet:ordered if the effect is order-independent", tv.Type)
}
