// Package nodeterminism forbids wall-clock and global-randomness calls in
// the packages whose behaviour must replay bit-for-bit from a seed.
//
// The simulation substrates (internal/sim and the discrete-event
// internal/dessim, where virtual time is the only time), the figure
// pipeline (internal/experiments and its gnutella and invindex baselines),
// the curve kernels (internal/sfc), the telemetry registry (internal/telemetry, whose
// injectable clock is the whole point — reading the wall clock directly
// would leak nondeterminism into every instrumented package) and the
// fault plan (internal/transport's faulty*.go files), and the
// membership-correctness surface (internal/chord's and internal/squid's
// invariant* and churn* files — the ring checker and the churn soaks must
// replay bit-for-bit so a violation is a protocol bug, never flake) are
// only reproducible if every random draw flows from the seeded *rand.Rand
// they were configured with and no decision reads the wall clock.
// time.Now/Since/After/Tick/NewTimer/NewTicker/AfterFunc and the
// package-level math/rand convenience functions (which share one global,
// unseeded source) are therefore banned there.
//
// Constructing seeded sources (rand.New, rand.NewSource) is always
// allowed, as are methods on an explicit *rand.Rand value. Deliberate
// wall-clock use carries //lint:allow-nondet <reason>.
package nodeterminism

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"squid/internal/analysis"
)

// Analyzer is the nodeterminism pass.
var Analyzer = &analysis.Analyzer{
	Name: "nondet",
	Doc:  "forbids time.Now/timers and global math/rand in determinism-critical packages (sim, dessim, sfc, telemetry, wire, workload, the figure pipeline, transport's fault plan, chord/squid invariant and churn files)",
	Run:  run,
}

// criticalPkgs lists package-path tails that are determinism-critical in
// their entirety. wire is here because codecs must be pure functions of
// their input (a timestamp in an encoder would break the gob/binary
// equivalence suite); workload because generators must replay their
// keyspaces and query mixes bit-for-bit from the configured seed; dessim
// because the discrete-event simulator's entire contract is that virtual
// time is the only time — one wall-clock read or global draw and the
// seed-reproducibility tests become flakes; experiments, gnutella and
// invindex because they are the figure pipeline, whose every row must be a
// function of its seeds.
var criticalPkgs = map[string]bool{
	"sim": true, "dessim": true, "sfc": true, "telemetry": true,
	"wire": true, "workload": true,
	"experiments": true, "gnutella": true, "invindex": true,
}

// bannedTime are the time package functions that read or schedule against
// the wall clock.
var bannedTime = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true, "Sleep": true,
	"Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

// allowedRand are the package-level math/rand functions that construct
// explicit sources rather than draw from the global one.
var allowedRand = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *analysis.Pass) error {
	tail := analysis.PkgPathTail(pass.Pkg.Path())
	for _, file := range pass.Files {
		if !criticalFile(pass, tail, file) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig == nil || sig.Recv() != nil {
				return true // methods (e.g. (*rand.Rand).Intn) are explicit sources
			}
			switch fn.Pkg().Path() {
			case "time":
				if bannedTime[fn.Name()] {
					pass.Reportf(call.Pos(), "time.%s is wall-clock and breaks seeded replay; thread the virtual clock / deterministic scheduling instead", fn.Name())
				}
			case "math/rand", "math/rand/v2":
				if !allowedRand[fn.Name()] {
					pass.Reportf(call.Pos(), "global %s.%s draws from an unseeded shared source; use the seeded *rand.Rand threaded through the config", analysis.PkgPathTail(fn.Pkg().Path()), fn.Name())
				}
			}
			return true
		})
	}
	return nil
}

// criticalFile reports whether file is under the determinism contract:
// every file of a critical package, the faulty*.go files of a transport
// package, and the invariant*/churn* files of a chord or squid package.
func criticalFile(pass *analysis.Pass, pkgTail string, file *ast.File) bool {
	if criticalPkgs[pkgTail] {
		return true
	}
	name := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
	switch pkgTail {
	case "transport":
		return strings.HasPrefix(name, "faulty")
	case "chord", "squid":
		return strings.HasPrefix(name, "invariant") || strings.HasPrefix(name, "churn")
	}
	return false
}

// calleeFunc resolves the static callee of a call, if it is a declared
// function or method.
func calleeFunc(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.Info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
