// Package analysis implements ghost-lint, the repo's custom static
// analysis suite. The simulator's headline guarantees — byte-identical
// reports at any parallelism and seeded, reproducible fault injection —
// rest on conventions that the compiler cannot enforce: no wall-clock or
// global rand in sim code, no map-iteration order leaking into
// scheduling decisions or report assembly, the alloc-free
// AtCall/AfterCall(fn, arg) pattern on the engine hot path, and the
// generational sim.Event handle rules. Each convention is mechanically
// enforced by one analyzer here; `ghost-lint ./...` runs them all and is
// wired into scripts/verify.sh and CI.
//
// The framework is stdlib-only: packages are enumerated with
// `go list -json`, parsed with go/parser and type-checked with go/types,
// so go.mod stays dependency-free.
//
// A finding can be waived per file with a comment anywhere in the file:
//
//	//ghostlint:allow <check> <reason>
//
// The reason is mandatory; a malformed or unknown directive is itself a
// diagnostic. Suppressions are counted and reported by the summary so
// waivers stay visible.
package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"sort"
	"sync"
)

// Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Check   string
	Pos     token.Position
	Message string
}

// String renders the diagnostic with the filename relative to dir when
// possible (the familiar compiler-style file:line:col form).
func (d Diagnostic) String(dir string) string {
	name := d.Pos.Filename
	if dir != "" {
		if rel, err := filepath.Rel(dir, name); err == nil && !filepath.IsAbs(rel) {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d:%d: %s: %s", name, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Analyzer is one named check. A check can run per package (Run), over
// the whole loaded program at once (RunProgram, for the interprocedural
// checks that need the call graph), or both — determinism does both: the
// per-package pass flags direct violations in scoped packages, the
// program pass chases taint through helpers in unscoped ones.
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass)
	RunProgram func(*ProgramPass)
	// NeedsBuild marks analyzers that consume `go build` compiler
	// diagnostics (hotpathescape). They are excluded from Analyzers()
	// and opt in via the driver's -escape flag, because they cost a
	// compile of the whole module.
	NeedsBuild bool
}

// Pass gives an analyzer one package to inspect and a sink for findings.
type Pass struct {
	Pkg    *Package
	fset   *token.FileSet
	check  string
	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Check:   p.check,
		Pos:     p.fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Program is the whole set of packages one Run covers, with the call
// graph built lazily on first use and shared by every program-level
// analyzer in the run.
type Program struct {
	Pkgs []*Package
	// Escapes holds parsed `go build -gcflags=-m=2` diagnostics when the
	// driver gathered them (ghost-lint -escape); nil otherwise, in which
	// case NeedsBuild analyzers report nothing. EscapeBaseline is the
	// accepted key set from internal/analysis/escape_baseline.txt.
	Escapes        []EscapeDiag
	EscapeBaseline map[string]bool

	graphOnce sync.Once
	graph     *CallGraph
}

// Graph returns the whole-program call graph, building it on first call.
func (p *Program) Graph() *CallGraph {
	p.graphOnce.Do(func() { p.graph = NewCallGraph(p.Pkgs) })
	return p.graph
}

// ProgramPass gives a program-level analyzer the whole program and a
// sink for findings.
type ProgramPass struct {
	Prog   *Program
	check  string
	report func(Diagnostic)
}

// Reportf records a finding at pos, resolved through the shared FileSet.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	if len(p.Prog.Pkgs) == 0 {
		return
	}
	p.ReportAt(p.Prog.Pkgs[0].Fset.Position(pos), format, args...)
}

// ReportAt records a finding at an already-resolved position (compiler
// diagnostics arrive as positions, not token.Pos).
func (p *ProgramPass) ReportAt(pos token.Position, format string, args ...any) {
	p.report(Diagnostic{Check: p.check, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Analyzers returns the default suite in canonical order. The
// build-consuming hotpathescape check is not part of the default suite;
// AllAnalyzers includes it.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DeterminismAnalyzer,
		MapOrderAnalyzer,
		HotPathAllocAnalyzer,
		EventHandleAnalyzer,
		APISurfaceAnalyzer,
	}
}

// AllAnalyzers returns every analyzer, including the NeedsBuild ones.
func AllAnalyzers() []*Analyzer {
	return append(Analyzers(), HotPathEscapeAnalyzer)
}

// ByName resolves an analyzer from the suite, nil if unknown.
func ByName(name string) *Analyzer {
	for _, a := range AllAnalyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Result aggregates a run of the suite over a set of packages.
type Result struct {
	// Diagnostics holds the kept (unsuppressed) findings, sorted by
	// position so output is stable whatever the load order.
	Diagnostics []Diagnostic
	// Found counts kept findings per check; Suppressed counts findings
	// waived by //ghostlint:allow directives per check.
	Found      map[string]int
	Suppressed map[string]int
}

// Run executes the analyzers over the packages, applies per-file
// suppressions, and returns the sorted findings.
func Run(pkgs []*Package, analyzers []*Analyzer) *Result {
	return RunProgram(&Program{Pkgs: pkgs}, analyzers)
}

// RunProgram is Run with a caller-built Program (the driver uses it to
// attach compiler escape diagnostics for the NeedsBuild analyzers).
// Per-file suppressions are collected across all packages before any
// analyzer runs, so a program-level finding is waivable by a directive
// in the file it points at, whichever package the taint root lives in.
func RunProgram(prog *Program, analyzers []*Analyzer) *Result {
	res := &Result{Found: map[string]int{}, Suppressed: map[string]int{}}
	known := map[string]bool{}
	for _, a := range AllAnalyzers() {
		known[a.Name] = true
	}
	// suppressions: filename -> check -> reason. Malformed directives
	// surface as "ghostlint" diagnostics (never suppressible, or a
	// typoed waiver would silence itself).
	sup := map[string]map[string]string{}
	for _, pkg := range prog.Pkgs {
		for i, f := range pkg.Files {
			name := pkg.Filenames[i]
			sup[name] = fileSuppressions(pkg.Fset, f, known, func(d Diagnostic) {
				res.Diagnostics = append(res.Diagnostics, d)
				res.Found[d.Check]++
			})
		}
	}
	report := func(d Diagnostic) {
		if reasons := sup[d.Pos.Filename]; reasons != nil {
			if _, ok := reasons[d.Check]; ok {
				res.Suppressed[d.Check]++
				return
			}
		}
		res.Diagnostics = append(res.Diagnostics, d)
		res.Found[d.Check]++
	}
	for _, pkg := range prog.Pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a.Run(&Pass{Pkg: pkg, fset: pkg.Fset, check: a.Name, report: report})
		}
	}
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		a.RunProgram(&ProgramPass{Prog: prog, check: a.Name, report: report})
	}
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
	return res
}
