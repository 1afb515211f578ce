package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// DeterminismAnalyzer bans wall-clock reads and the global math/rand
// state from simulation code. Every latency in the reproduction is
// virtual time drawn from the engine clock, and every stochastic choice
// draws from an explicitly seeded *sim.Rand (internal/sim/rand.go);
// time.Now or rand.Intn anywhere reachable from the scoped packages
// would let host wall-clock jitter or unseeded randomness perturb a run
// that must be bit-reproducible for its seed.
//
// The check runs in two passes over the same source model:
//
//   - per package (Run): direct violations inside the scoped packages —
//     banned time.* calls and math/rand imports — exactly where they
//     appear;
//   - whole program (RunProgram): taint over the call graph. Every
//     function declared in a scoped package is a root (that set contains
//     the sim-callback sinks — sim.Engine callbacks, Policy.Schedule
//     implementations, oracle observers, workload generators — plus
//     everything else that executes inside a run), and any function a
//     root transitively reaches, in whatever package, is scanned for the
//     same sources. A hit is reported with the full witness call chain,
//     so a helper two hops away in an unscoped package no longer
//     escapes. Map-iteration-order escapes, the third nondeterminism
//     source, stay with the module-wide maporder check, which already
//     covers every package without needing reachability.
//
// Packages whose wall-clock use is legitimate (trace annotation,
// experiment runners, the tuner's wall budget, this linter, cmd/ and
// examples/ mains) are exempt: taint neither enters nor flags them.
var DeterminismAnalyzer = &Analyzer{
	Name:       "determinism",
	Doc:        "flags wall-clock (time.Now/Since/...) and global or unseeded math/rand reachable from sim code, with call paths",
	Run:        runDeterminism,
	RunProgram: runDeterminismProgram,
}

// determinismScope lists the package subtrees the check polices: the
// simulator and everything that executes inside it. internal/trace is
// deliberately out of scope (wall-clock annotation of emitted traces is
// legitimate), as are cmd/ progress timers.
var determinismScope = []string{
	"sim", "kernel", "ghostcore", "agentsdk", "faults",
	"policies", "baselines", "workload", "check", "snap",
}

// bannedTimeFuncs are the wall-clock entry points of package time.
// time.Duration and the unit constants remain usable.
var bannedTimeFuncs = map[string]string{
	"Now":       "wall-clock read",
	"Since":     "wall-clock read",
	"Until":     "wall-clock read",
	"Sleep":     "wall-clock wait",
	"After":     "wall-clock timer",
	"AfterFunc": "wall-clock timer",
	"Tick":      "wall-clock timer",
	"NewTimer":  "wall-clock timer",
	"NewTicker": "wall-clock timer",
}

func inDeterminismScope(importPath string) bool {
	// The env package executes inside the simulation boundary (its
	// control policy runs as the enclave's agent), so it is scoped even
	// though it lives outside internal/.
	if importPath == "env" || strings.HasSuffix(importPath, "/env") {
		return true
	}
	for _, s := range determinismScope {
		seg := "/internal/" + s
		if i := strings.Index(importPath, seg); i >= 0 {
			rest := importPath[i+len(seg):]
			if rest == "" || rest[0] == '/' {
				return true
			}
		}
	}
	return false
}

func runDeterminism(p *Pass) {
	if !inDeterminismScope(p.Pkg.ImportPath) {
		return
	}
	info := p.Pkg.Info
	for _, f := range p.Pkg.Files {
		// Import-level bans: the whole of math/rand is off limits —
		// its global state is implicitly seeded and shared, and even
		// rand.New(rand.NewSource(seed)) duplicates what sim.Rand
		// already provides deterministically.
		timeAliases := map[string]bool{}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch path {
			case "math/rand", "math/rand/v2":
				p.Reportf(imp.Pos(),
					"import of %s: sim code must draw from an explicitly seeded *sim.Rand (internal/sim/rand.go), not global or unseeded rand", path)
			case "time":
				name := "time"
				if imp.Name != nil {
					name = imp.Name.Name
				}
				timeAliases[name] = true
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			kind, banned := bannedTimeFuncs[sel.Sel.Name]
			if !banned {
				return true
			}
			if !isTimePackageRef(info, sel, timeAliases) {
				return true
			}
			p.Reportf(sel.Pos(),
				"time.%s: %s leaks host nondeterminism into the simulation; use the engine's virtual clock (sim.Engine.Now / AfterCall)",
				sel.Sel.Name, kind)
			return true
		})
	}
}

// determinismExempt lists the packages taint must not enter: their
// wall-clock use is deliberate and they never execute inside the
// simulation loop. (They are also outside determinismScope, so the
// per-package pass skips them already.)
func determinismExempt(importPath string) bool {
	for _, s := range []string{"trace", "experiments", "tune", "analysis", "cli"} {
		if inPkgSegment(importPath, "/internal/"+s) {
			return true
		}
	}
	return strings.HasPrefix(importPath, "cmd/") ||
		strings.Contains(importPath, "/cmd/") ||
		strings.HasPrefix(importPath, "examples/") ||
		strings.Contains(importPath, "/examples/")
}

// runDeterminismProgram is the interprocedural half: reachability from
// every scoped-package function, scanning reached out-of-scope functions
// for the banned sources and reporting the witness call chain.
func runDeterminismProgram(p *ProgramPass) {
	g := p.Prog.Graph()
	var roots []*FuncNode
	for _, n := range g.Nodes {
		if n.Pkg != nil && inDeterminismScope(n.Pkg.ImportPath) {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return
	}
	r := Reach(roots, func(n *FuncNode) bool {
		// External (unloaded) functions are terminal, and exempt
		// packages are opaque: a call into them is not a violation and
		// their own wall-clock use is not flagged.
		return n.Pkg != nil && !determinismExempt(n.Pkg.ImportPath)
	})
	for _, n := range r.Reached() {
		if inDeterminismScope(n.Pkg.ImportPath) {
			continue // direct violations there belong to the per-package pass
		}
		if n.Body() == nil {
			continue
		}
		path := FormatPath(r.PathTo(n))
		scanDeterminismSources(n, func(pos token.Pos, what string) {
			p.Reportf(pos, "%s in %s, reachable from sim code: %s",
				what, n.Label, path)
		})
	}
}

// scanDeterminismSources walks one function body (literals excluded —
// they are their own nodes) and reports each banned source.
func scanDeterminismSources(n *FuncNode, report func(pos token.Pos, what string)) {
	info := n.Pkg.Info
	WalkNodeBody(n.Body(), func(node ast.Node) {
		switch node := node.(type) {
		case *ast.SelectorExpr:
			if kind, banned := bannedTimeFuncs[node.Sel.Name]; banned && isTimePackageRef(info, node, nil) {
				report(node.Pos(), "time."+node.Sel.Name+": "+kind)
			}
		case *ast.Ident:
			obj := objectOf(info, node)
			if obj == nil || obj.Pkg() == nil {
				return
			}
			switch obj.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if _, isPkgName := obj.(*types.PkgName); isPkgName {
					return // the import name itself; the use sites report
				}
				report(node.Pos(), "math/rand."+obj.Name()+": global or unseeded rand")
			}
		}
	})
}

// isTimePackageRef reports whether sel selects from package time,
// preferring type information and falling back to the file's import
// aliases when the package failed to resolve.
func isTimePackageRef(info *types.Info, sel *ast.SelectorExpr, timeAliases map[string]bool) bool {
	if info != nil {
		if obj := info.Uses[sel.Sel]; obj != nil {
			return obj.Pkg() != nil && obj.Pkg().Path() == "time"
		}
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || !timeAliases[id.Name] {
		return false
	}
	// With type info present, a resolved sel.X that is not the package
	// means a shadowing local; without it, trust the alias match.
	if info != nil {
		if obj := info.Uses[id]; obj != nil {
			_, isPkg := obj.(*types.PkgName)
			return isPkg
		}
	}
	return true
}
