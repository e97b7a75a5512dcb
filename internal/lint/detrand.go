package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detrand flags sources of nondeterminism in scheduler code: wall-clock
// reads (time.Now, time.Since) and randomness that does not flow from
// an explicit seeded *rand.Rand — calls through math/rand's global
// source (rand.Intn, rand.Float64, rand.Shuffle, ...) and zero-value
// generators (new(rand.Rand)), which panic or fall back to the global
// source depending on the rand version.
//
// The contract: every simulated quantity derives from the job, the
// processor pool and a seed threaded through configuration. Inside the
// scheduler packages there is no legitimate wall clock and no
// legitimate ambient RNG; benchmarks (internal/bench) and CLIs measure
// real elapsed time and are outside the analyzer's scope.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc: "forbid wall-clock reads and unseeded/global randomness in scheduler packages; " +
		"all randomness must flow from an explicit seeded *rand.Rand",
	Run:     runDetrand,
	Applies: detrandApplies,
}

// detrandScope lists the packages whose determinism the paper's
// results depend on. internal/bench and cmd/* time real executions and
// are intentionally absent.
var detrandScope = []string{
	"fhs/internal/core",
	"fhs/internal/dag",
	"fhs/internal/sim",
	"fhs/internal/fault",
	"fhs/internal/exp",
	"fhs/internal/multi",
	"fhs/internal/opt",
	"fhs/internal/service",
	// The load harness is deterministic by contract (reports are
	// fingerprinted); only its wall-clock throughput stamps may touch
	// the clock, under reasoned fhlint:ignore suppressions.
	"fhs/internal/load",
}

func detrandApplies(pkgPath string) bool {
	for _, p := range detrandScope {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// randPkgs are the import paths whose package-level functions draw from
// a process-global source.
var randPkgs = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// randConstructors are the math/rand package-level functions that do
// NOT touch the global source: they build explicit generators, which is
// exactly the sanctioned pattern.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runDetrand(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				switch pkg := pkgPathOf(pass.Info, sel.X); {
				case pkg == "time" && (sel.Sel.Name == "Now" || sel.Sel.Name == "Since"):
					pass.Reportf(call.Pos(), "wall-clock read time.%s in scheduler code; simulated time must come from the engine clock", sel.Sel.Name)
				case randPkgs[pkg] && !randConstructors[sel.Sel.Name]:
					pass.Reportf(call.Pos(), "rand.%s draws from the process-global source; use an explicit seeded *rand.Rand", sel.Sel.Name)
				}
			}
			if isBuiltin(pass.Info, call, "new") && len(call.Args) == 1 {
				if tv, ok := pass.Info.Types[call.Args[0]]; ok && isRandRand(tv.Type) {
					pass.Reportf(call.Pos(), "new(rand.Rand) is an unseeded generator; construct with rand.New(rand.NewSource(seed))")
				}
			}
			return true
		})
	}
	return nil
}

// isRandRand reports whether t is math/rand's Rand type.
func isRandRand(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Rand" && obj.Pkg() != nil && randPkgs[obj.Pkg().Path()]
}
