package analysis

import (
	"bufio"
	"bytes"
	"fmt"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// HotPathEscapeAnalyzer turns ROADMAP's "chase the next allocating hot
// path" from a profile-reading exercise into a gate: it parses the
// compiler's own escape analysis (`go build -gcflags=-m=2`) and flags
// any heap escape in a function transitively reachable from the 0-alloc
// benchmark roots that is not recorded in the committed baseline
// (internal/analysis/escape_baseline.txt), and any baseline key that no
// such escape matches any more. The hotpathalloc check catches the
// syntactic allocation idioms (closures, method values, appends) on
// those paths; this one catches what only the compiler
// knows — a parameter that started escaping because a callee changed,
// an interface conversion that began allocating — anywhere in the
// transitive call tree.
//
// The check consumes a build, so it is opt-in: `ghost-lint -escape`
// gathers the diagnostics and runs it; `ghost-lint -escape-update`
// rewrites the baseline after a deliberate change. Baseline keys are
// `function: message` (no line numbers), so unrelated edits to a file
// do not churn it.
var HotPathEscapeAnalyzer = &Analyzer{
	Name:       "hotpathescape",
	Doc:        "flags compiler-reported heap escapes newly reachable from the 0-alloc benchmark roots, and stale baseline keys",
	RunProgram: runHotPathEscape,
	NeedsBuild: true,
}

// escapeRoots are the entry points of the 0-alloc steady-state
// benchmarks (BenchmarkEngineSchedule*, BenchmarkHistogramRecord,
// BenchmarkQueuePostDrain): everything these reach is hot-path.
var escapeRoots = []struct{ pkgSeg, recv, method string }{
	{"/internal/sim", "Engine", "schedule"},
	{"/internal/sim", "Engine", "At"},
	{"/internal/sim", "Engine", "After"},
	{"/internal/sim", "Engine", "AtCall"},
	{"/internal/sim", "Engine", "AfterCall"},
	{"/internal/sim", "Engine", "step"},
	{"/internal/stats", "Histogram", "Record"},
	{"/internal/ghostcore", "Queue", "post"},
	{"/internal/ghostcore", "Queue", "deliver"},
	{"/internal/ghostcore", "Queue", "enqueue"},
	{"/internal/ghostcore", "Queue", "Drain"},
	{"/internal/ghostcore", "Queue", "Pop"},
}

// EscapeDiag is one compiler escape-analysis diagnostic.
type EscapeDiag struct {
	Pos     token.Position // absolute filename
	Message string         // e.g. "&Event{...} escapes to heap"
}

// escapeLineRe matches the non-indented diagnostic lines of -m=2 output;
// the indented "flow:" explanations beneath each are skipped.
var escapeLineRe = regexp.MustCompile(`^([^\s].*\.go):(\d+):(\d+): (.+)$`)

// EscapesFromOutput parses `go build -gcflags=-m=2` stderr, keeping the
// heap-escape diagnostics and resolving filenames against root.
func EscapesFromOutput(output []byte, root string) []EscapeDiag {
	var diags []EscapeDiag
	sc := bufio.NewScanner(bytes.NewReader(output))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		m := escapeLineRe.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		msg := strings.TrimSuffix(m[4], ":")
		if !strings.Contains(msg, "escapes to heap") && !strings.Contains(msg, "moved to heap") {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(root, file)
		}
		line, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		diags = append(diags, EscapeDiag{
			Pos:     token.Position{Filename: file, Line: line, Column: col},
			Message: msg,
		})
	}
	return diags
}

// LoadEscapes compiles the module (build cache makes repeats cheap; the
// cache replays compiler diagnostics) and returns the escape
// diagnostics for the driver to attach to a Program.
func LoadEscapes(root string) ([]EscapeDiag, error) {
	cmd := exec.Command("go", "build", "-gcflags=-m=2", "./...")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m=2: %v\n%s", err, stderr.String())
	}
	return EscapesFromOutput(stderr.Bytes(), root), nil
}

// EscapeBaselinePath is the committed baseline, relative to the module
// root.
const EscapeBaselinePath = "internal/analysis/escape_baseline.txt"

// LoadEscapeBaseline reads the baseline key set; a missing file is an
// empty baseline.
func LoadEscapeBaseline(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]bool{}, nil
	}
	if err != nil {
		return nil, err
	}
	keys := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		keys[line] = true
	}
	return keys, nil
}

// EscapeKeys computes the current hot-path escape key set (sorted,
// deduped) — what -escape-update writes as the new baseline.
func EscapeKeys(prog *Program) []string {
	seen := map[string]bool{}
	var keys []string
	for _, f := range hotPathEscapes(prog) {
		if !seen[f.key] {
			seen[f.key] = true
			keys = append(keys, f.key)
		}
	}
	sort.Strings(keys)
	return keys
}

// WriteEscapeBaseline writes keys as the new baseline file.
func WriteEscapeBaseline(path string, keys []string) error {
	var b strings.Builder
	b.WriteString("# Heap escapes on the 0-alloc benchmark hot paths, as reported by\n")
	b.WriteString("# `go build -gcflags=-m=2` and keyed `function: message`. A new key\n")
	b.WriteString("# fails `ghost-lint -escape`; refresh deliberately with\n")
	b.WriteString("# `ghost-lint -escape-update ./...` and justify the change in review.\n")
	for _, k := range keys {
		b.WriteString(k)
		b.WriteByte('\n')
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

type escapeFinding struct {
	key  string
	pos  token.Position
	msg  string
	node *FuncNode
	path string // witness chain from a benchmark root
}

// hotPathEscapes joins the compiler diagnostics against the call graph:
// only escapes inside functions reachable from the benchmark roots
// survive, each keyed for the baseline and annotated with its witness
// path.
func hotPathEscapes(prog *Program) []escapeFinding {
	if len(prog.Escapes) == 0 {
		return nil
	}
	g := prog.Graph()
	var roots []*FuncNode
	for _, n := range g.Nodes {
		if n.Obj == nil || n.Pkg == nil {
			continue
		}
		for _, root := range escapeRoots {
			if n.Obj.Name() == root.method &&
				inPkgSegment(n.Pkg.ImportPath, root.pkgSeg) &&
				recvTypeName(n.Obj) == root.recv {
				roots = append(roots, n)
				break
			}
		}
	}
	r := Reach(roots, func(n *FuncNode) bool { return n.Pkg != nil })
	var out []escapeFinding
	for _, d := range prog.Escapes {
		n := g.EnclosingFunc(d.Pos.Filename, d.Pos.Line)
		if n == nil || !r.Has(n) {
			continue
		}
		out = append(out, escapeFinding{
			key:  n.Full + ": " + d.Message,
			pos:  d.Pos,
			msg:  d.Message,
			node: n,
			path: FormatPath(r.PathTo(n)),
		})
	}
	return out
}

func runHotPathEscape(p *ProgramPass) {
	if len(p.Prog.Escapes) == 0 {
		return // driver did not gather build diagnostics (-escape off)
	}
	baseline := p.Prog.EscapeBaseline
	current := map[string]bool{}
	for _, f := range hotPathEscapes(p.Prog) {
		current[f.key] = true
		if baseline[f.key] {
			continue
		}
		via := ""
		if f.path != "" {
			via = "; hot path: " + f.path
		}
		p.ReportAt(f.pos,
			"new heap escape on a 0-alloc benchmark path: %s in %s%s (intentional? ghost-lint -escape-update)",
			f.msg, f.node.Label, via)
	}
	// A key no hot-path escape matches any more would let a new escape
	// at that site pass unseen. Only keys in loaded packages are judged:
	// a partial load cannot tell whether the others still hold.
	var stale []string
	for key := range baseline {
		if !current[key] && inLoadedPackage(key, p.Prog.Pkgs) {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	for _, key := range stale {
		p.ReportAt(token.Position{Filename: EscapeBaselinePath},
			"stale baseline key: no hot-path escape matches %q any more (ghost-lint -escape-update)", key)
	}
}

// inLoadedPackage reports whether the function a baseline key names
// ("(*pkg.T).m: message" or "pkg.f: message") is in one of pkgs.
func inLoadedPackage(key string, pkgs []*Package) bool {
	fn, _, _ := strings.Cut(key, ": ")
	fn = strings.TrimLeft(fn, "(*")
	for _, pkg := range pkgs {
		if strings.HasPrefix(fn, pkg.ImportPath+".") {
			return true
		}
	}
	return false
}

// recvTypeName returns the bare receiver type name of a method, "" for
// plain functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
