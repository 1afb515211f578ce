package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"sort"
	"strings"
)

// Whole-program static call graph over the loaded packages. The graph is
// the substrate for the interprocedural (taint/reachability) checks:
// determinism needs "which functions can run inside the simulation",
// and hotpathescape needs "which functions are on the 0-alloc
// benchmark paths". Three edge kinds cover the call shapes this codebase
// uses:
//
//   - call:    direct calls (pkg.F(), recv.M() with a concrete receiver);
//   - dynamic: interface method calls devirtualized by class-hierarchy
//     analysis (every loaded named type implementing the interface
//     contributes its method — the type-assertion-free common case), and
//     calls through function-valued fields/locals resolved against the
//     bindings seen program-wide (fields) or in the same function
//     (locals);
//   - ref:     a function value referenced without being called (passed
//     to a scheduler, stored in a field, returned). For reachability a
//     reference is treated like a call: whoever holds the value may
//     invoke it.
//
// Function literals are first-class nodes (labelled pkg.Fn.funcN in
// source order) with a ref edge from their enclosing function, so a
// callback registered as a closure is tracked separately from the
// function that happened to create it.
//
// Everything user-visible is ordered by resolved token.Position, never by
// raw token.Pos — pos offsets depend on the concurrent loader's file
// interleaving, positions do not. That is what keeps the reported call
// paths byte-stable across runs and loader parallelism.

// FuncNode is one function in the call graph: a declared function or
// method (Obj != nil) or a function literal (Lit != nil), or an external
// function that is referenced but whose body was not loaded (both nil
// bodies; terminal).
type FuncNode struct {
	Obj  *types.Func   // declared func/method; nil for literals
	Lit  *ast.FuncLit  // function literal; nil for declared
	Decl *ast.FuncDecl // syntax, nil for literals and externals
	Pkg  *Package      // declaring package; nil for externals
	// Label is the short human form (kernel.(*Kernel).tick, sim.New.func1);
	// Full is the unambiguous sort key (full import paths).
	Label string
	Full  string
	Pos   token.Position
	Edges []*Edge // outgoing, sorted by (position, callee)

	body ast.Node // Decl or Lit; nil for externals
}

// Edge is one outgoing call/dynamic/ref edge.
type Edge struct {
	From, To *FuncNode
	Pos      token.Position // call or reference site
	Kind     string         // "call", "dynamic", "ref"
}

// CallGraph is the whole-program graph over one Run's packages.
type CallGraph struct {
	Pkgs  []*Package
	Nodes []*FuncNode // sorted by Full then position

	byObj map[*types.Func]*FuncNode
	byLit map[*ast.FuncLit]*FuncNode

	// fieldBind maps a struct field (or package-level var) of function
	// type to every function value observed assigned into it anywhere in
	// the program — the "bind once at construction, call through the
	// field" idiom hotpathalloc enforces makes this precise in practice.
	fieldBind map[*types.Var][]*FuncNode

	// byFile indexes nodes by filename for position->function attribution
	// (hotpathescape maps compiler diagnostics back onto the graph).
	byFile map[string][]*FuncNode
}

// deferred work resolved once all bindings and types are collected.
type ifaceCall struct {
	from *FuncNode
	m    *types.Func // interface method
	pos  token.Position
}
type fieldCall struct {
	from  *FuncNode
	field *types.Var
	pos   token.Position
}

type graphBuilder struct {
	g       *CallGraph
	fset    *token.FileSet
	types   []*types.Named // all loaded non-interface named types (CHA)
	ifaces  []ifaceCall
	fcalls  []fieldCall
	litSeq  map[*FuncNode]int // per-parent literal ordinal
	curInfo *types.Info
}

// NewCallGraph builds the graph over pkgs. Deterministic: node and edge
// order depend only on file contents, not on load interleaving.
func NewCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Pkgs:      pkgs,
		byObj:     map[*types.Func]*FuncNode{},
		byLit:     map[*ast.FuncLit]*FuncNode{},
		fieldBind: map[*types.Var][]*FuncNode{},
		byFile:    map[string][]*FuncNode{},
	}
	b := &graphBuilder{g: g, litSeq: map[*FuncNode]int{}}
	if len(pkgs) > 0 {
		b.fset = pkgs[0].Fset
	}
	b.collectTypes(pkgs)
	// Declared-function nodes first, so forward references resolve.
	for _, pkg := range pkgs {
		if pkg == nil || pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					b.declNode(obj, fd, pkg)
				}
			}
		}
	}
	// Package-level `var fn = impl` bindings count as field bindings.
	for _, pkg := range pkgs {
		if pkg == nil || pkg.Info == nil {
			continue
		}
		b.curInfo = pkg.Info
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok || gd.Tok != token.VAR {
					continue
				}
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for i, name := range vs.Names {
						if i >= len(vs.Values) {
							break
						}
						obj, _ := pkg.Info.Defs[name].(*types.Var)
						if obj == nil {
							continue
						}
						for _, fn := range b.funcValues(vs.Values[i], nil) {
							g.fieldBind[obj] = append(g.fieldBind[obj], fn)
						}
					}
				}
			}
		}
	}
	// Bodies: edges, literal nodes, field bindings, deferred sites.
	for _, pkg := range pkgs {
		if pkg == nil || pkg.Info == nil {
			continue
		}
		b.curInfo = pkg.Info
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if obj == nil {
					continue
				}
				b.walkFunc(g.byObj[obj], fd.Body)
			}
		}
	}
	b.resolveDeferred()
	g.finish()
	return g
}

func (b *graphBuilder) collectTypes(pkgs []*Package) {
	for _, pkg := range pkgs {
		if pkg == nil || pkg.Info == nil {
			continue
		}
		var named []*types.Named
		for _, obj := range pkg.Info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(n) || n.TypeParams().Len() > 0 {
				continue
			}
			named = append(named, n)
		}
		sort.Slice(named, func(i, j int) bool {
			return named[i].Obj().Name() < named[j].Obj().Name()
		})
		b.types = append(b.types, named...)
	}
}

// declNode returns (creating if needed) the node for a declared function.
func (b *graphBuilder) declNode(obj *types.Func, fd *ast.FuncDecl, pkg *Package) *FuncNode {
	if n := b.g.byObj[obj]; n != nil {
		if n.Decl == nil && fd != nil {
			n.Decl, n.Pkg, n.body = fd, pkg, fd
			n.Pos = b.fset.Position(fd.Pos())
		}
		return n
	}
	n := &FuncNode{Obj: obj, Decl: fd, Pkg: pkg, Label: shortFuncLabel(obj), Full: obj.FullName()}
	if fd != nil {
		n.body = fd
		n.Pos = b.fset.Position(fd.Pos())
	}
	b.g.byObj[obj] = n
	return n
}

// extNode returns the (possibly body-less) node for a referenced function.
func (b *graphBuilder) extNode(obj *types.Func) *FuncNode {
	if n := b.g.byObj[obj]; n != nil {
		return n
	}
	return b.declNode(obj, nil, nil)
}

// litNode creates the node for a function literal under parent.
func (b *graphBuilder) litNode(parent *FuncNode, lit *ast.FuncLit) *FuncNode {
	if n := b.g.byLit[lit]; n != nil {
		return n
	}
	b.litSeq[parent]++
	n := &FuncNode{
		Lit:   lit,
		Pkg:   parent.Pkg,
		Label: fmt.Sprintf("%s.func%d", parent.Label, b.litSeq[parent]),
		Full:  fmt.Sprintf("%s.func%d", parent.Full, b.litSeq[parent]),
		Pos:   b.fset.Position(lit.Pos()),
		body:  lit,
	}
	b.g.byLit[lit] = n
	return n
}

func (b *graphBuilder) edge(from, to *FuncNode, pos token.Pos, kind string) {
	from.Edges = append(from.Edges, &Edge{From: from, To: to, Pos: b.fset.Position(pos), Kind: kind})
}

// walkFunc walks one function body, attributing everything up to (but not
// into) nested function literals, which become their own nodes.
func (b *graphBuilder) walkFunc(cur *FuncNode, body ast.Node) {
	info := b.curInfo
	// calleeExprs marks expressions appearing as call.Fun, so a plain
	// function reference is distinguished from the call through it.
	calleeExprs := map[ast.Expr]bool{}
	WalkNodeBody(body, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			calleeExprs[call.Fun] = true
		}
	})
	// localBind tracks function values assigned to local variables in
	// this function (and visible to its literals): `fn := p.tick; fn()`.
	localBind := map[*types.Var][]*FuncNode{}

	var walk func(node *FuncNode, root ast.Node)
	visit := func(node *FuncNode, n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			child := b.litNode(node, n)
			b.edge(node, child, n.Pos(), "ref")
			walk(child, n.Body)
			return false
		case *ast.CallExpr:
			b.callEdges(node, n, localBind)
			return true
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				fns := b.funcValues(rhs, localBind)
				if len(fns) == 0 {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.Ident:
					if v, ok := objectOf(info, lhs).(*types.Var); ok {
						localBind[v] = append(localBind[v], fns...)
					}
				case *ast.SelectorExpr:
					if v := b.fieldOf(lhs); v != nil {
						b.g.fieldBind[v] = append(b.g.fieldBind[v], fns...)
					}
				}
			}
			return true
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i >= len(n.Values) {
					break
				}
				if v, ok := objectOf(info, name).(*types.Var); ok {
					localBind[v] = append(localBind[v], b.funcValues(n.Values[i], localBind)...)
				}
			}
			return true
		case *ast.KeyValueExpr:
			// Composite-literal field binding: T{tickFn: p.tick}.
			if key, ok := n.Key.(*ast.Ident); ok {
				if v, ok := info.Uses[key].(*types.Var); ok && v.IsField() {
					for _, fn := range b.funcValues(n.Value, localBind) {
						b.g.fieldBind[v] = append(b.g.fieldBind[v], fn)
					}
				}
			}
			return true
		case *ast.Ident:
			if calleeExprs[ast.Expr(n)] {
				return true
			}
			if fn, ok := objectOf(info, n).(*types.Func); ok {
				b.edge(node, b.extNode(fn), n.Pos(), "ref")
			}
			return true
		case *ast.SelectorExpr:
			if calleeExprs[ast.Expr(n)] {
				// Still descend: the receiver expression may hold refs.
				return true
			}
			if sel, ok := info.Selections[n]; ok {
				if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
					if fn, ok := sel.Obj().(*types.Func); ok {
						b.refOrDevirt(node, fn, n.Pos())
					}
					return true
				}
				return true
			}
			// Package-qualified: pkg.F referenced as a value.
			if fn, ok := info.Uses[n.Sel].(*types.Func); ok {
				b.edge(node, b.extNode(fn), n.Pos(), "ref")
			}
			return true
		}
		return true
	}
	walk = func(node *FuncNode, root ast.Node) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == nil || n == root {
				return true
			}
			return visit(node, n)
		})
	}
	walk(cur, body)
}

// refOrDevirt adds a ref edge to fn, devirtualizing interface methods.
func (b *graphBuilder) refOrDevirt(from *FuncNode, fn *types.Func, pos token.Pos) {
	if recvIsInterface(fn) {
		b.ifaces = append(b.ifaces, ifaceCall{from: from, m: fn, pos: b.fset.Position(pos)})
		return
	}
	b.edge(from, b.extNode(fn), pos, "ref")
}

// callEdges resolves one call expression to outgoing edges.
func (b *graphBuilder) callEdges(from *FuncNode, call *ast.CallExpr, localBind map[*types.Var][]*FuncNode) {
	info := b.curInfo
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch obj := objectOf(info, fun).(type) {
		case *types.Func:
			b.edge(from, b.extNode(obj), call.Pos(), "call")
		case *types.Var:
			// Call through a function-valued variable: local bindings
			// resolve here; package-level and field bindings defer.
			if bound, ok := localBind[obj]; ok {
				for _, fn := range bound {
					b.edge(from, fn, call.Pos(), "dynamic")
				}
			} else {
				b.fcalls = append(b.fcalls, fieldCall{from: from, field: obj, pos: b.fset.Position(call.Pos())})
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			switch sel.Kind() {
			case types.MethodVal, types.MethodExpr:
				fn, ok := sel.Obj().(*types.Func)
				if !ok {
					return
				}
				if recvIsInterface(fn) {
					b.ifaces = append(b.ifaces, ifaceCall{from: from, m: fn, pos: b.fset.Position(call.Pos())})
					return
				}
				b.edge(from, b.extNode(fn), call.Pos(), "call")
			case types.FieldVal:
				if v, ok := sel.Obj().(*types.Var); ok {
					b.fcalls = append(b.fcalls, fieldCall{from: from, field: v, pos: b.fset.Position(call.Pos())})
				}
			}
			return
		}
		// Package-qualified call (or a call on an unresolved receiver).
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			if recvIsInterface(fn) {
				b.ifaces = append(b.ifaces, ifaceCall{from: from, m: fn, pos: b.fset.Position(call.Pos())})
				return
			}
			b.edge(from, b.extNode(fn), call.Pos(), "call")
		} else if v, ok := info.Uses[fun.Sel].(*types.Var); ok {
			b.fcalls = append(b.fcalls, fieldCall{from: from, field: v, pos: b.fset.Position(call.Pos())})
		}
	}
}

// funcValues resolves an expression to the function nodes it denotes, for
// binding tracking: a named function, a method value, a literal, or a
// variable already bound locally.
func (b *graphBuilder) funcValues(e ast.Expr, localBind map[*types.Var][]*FuncNode) []*FuncNode {
	info := b.curInfo
	switch e := e.(type) {
	case *ast.Ident:
		switch obj := objectOf(info, e).(type) {
		case *types.Func:
			return []*FuncNode{b.extNode(obj)}
		case *types.Var:
			if localBind != nil {
				return localBind[obj]
			}
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
				if fn, ok := sel.Obj().(*types.Func); ok && !recvIsInterface(fn) {
					return []*FuncNode{b.extNode(fn)}
				}
			}
			return nil
		}
		if fn, ok := info.Uses[e.Sel].(*types.Func); ok {
			return []*FuncNode{b.extNode(fn)}
		}
	case *ast.FuncLit:
		// Resolved when the body walk reaches the literal; the ref edge
		// from the enclosing function already keeps it reachable.
		if n := b.g.byLit[e]; n != nil {
			return []*FuncNode{n}
		}
	case *ast.ParenExpr:
		return b.funcValues(e.X, localBind)
	}
	return nil
}

// fieldOf resolves a selector to the struct field it denotes, if any.
func (b *graphBuilder) fieldOf(sel *ast.SelectorExpr) *types.Var {
	if s, ok := b.curInfo.Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// resolveDeferred adds the CHA (interface) and field-call edges.
func (b *graphBuilder) resolveDeferred() {
	for _, ic := range b.ifaces {
		recv := ic.m.Type().(*types.Signature).Recv()
		iface, ok := recv.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for _, named := range b.types {
			if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, ic.m.Pkg(), ic.m.Name())
			if fn, ok := obj.(*types.Func); ok {
				if target := b.g.byObj[fn]; target != nil {
					ic.from.Edges = append(ic.from.Edges, &Edge{From: ic.from, To: target, Pos: ic.pos, Kind: "dynamic"})
				}
			}
		}
	}
	for _, fc := range b.fcalls {
		for _, target := range b.g.fieldBind[fc.field] {
			fc.from.Edges = append(fc.from.Edges, &Edge{From: fc.from, To: target, Pos: fc.pos, Kind: "dynamic"})
		}
	}
}

// finish sorts nodes and edges into their canonical deterministic order
// and builds the per-file index.
func (g *CallGraph) finish() {
	var nodes []*FuncNode
	for _, n := range g.byObj {
		nodes = append(nodes, n)
	}
	for _, n := range g.byLit {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].Full != nodes[j].Full {
			return nodes[i].Full < nodes[j].Full
		}
		return posLess(nodes[i].Pos, nodes[j].Pos)
	})
	g.Nodes = nodes
	for _, n := range g.Nodes {
		edges := n.Edges
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Pos != edges[j].Pos {
				return posLess(edges[i].Pos, edges[j].Pos)
			}
			if edges[i].To.Full != edges[j].To.Full {
				return edges[i].To.Full < edges[j].To.Full
			}
			return edges[i].Kind < edges[j].Kind
		})
		// Dedupe identical (pos, callee, kind) triples.
		out := edges[:0]
		for i, e := range edges {
			if i > 0 && edges[i-1].Pos == e.Pos && edges[i-1].To == e.To && edges[i-1].Kind == e.Kind {
				continue
			}
			out = append(out, e)
		}
		n.Edges = out
		if n.body != nil && n.Pos.Filename != "" {
			g.byFile[n.Pos.Filename] = append(g.byFile[n.Pos.Filename], n)
		}
	}
}

// NodeOf returns the node for a declared function, nil if not loaded.
func (g *CallGraph) NodeOf(fn *types.Func) *FuncNode { return g.byObj[fn] }

// LitNodeOf returns the node for a function literal, nil if not walked.
func (g *CallGraph) LitNodeOf(lit *ast.FuncLit) *FuncNode { return g.byLit[lit] }

// FieldBindings returns the function nodes observed bound into a
// function-typed field or package-level variable.
func (g *CallGraph) FieldBindings(v *types.Var) []*FuncNode { return g.fieldBind[v] }

// FnBindVars returns every field or package-level variable observed
// holding a function value, in deterministic (package, name, position)
// order.
func (g *CallGraph) FnBindVars() []*types.Var {
	var fset *token.FileSet
	if len(g.Pkgs) > 0 {
		fset = g.Pkgs[0].Fset
	}
	var vars []*types.Var
	for v := range g.fieldBind {
		vars = append(vars, v)
	}
	sort.Slice(vars, func(i, j int) bool {
		pi, pj := "", ""
		if vars[i].Pkg() != nil {
			pi = vars[i].Pkg().Path()
		}
		if vars[j].Pkg() != nil {
			pj = vars[j].Pkg().Path()
		}
		if pi != pj {
			return pi < pj
		}
		if vars[i].Name() != vars[j].Name() {
			return vars[i].Name() < vars[j].Name()
		}
		if fset != nil {
			return posLess(fset.Position(vars[i].Pos()), fset.Position(vars[j].Pos()))
		}
		return false
	})
	return vars
}

// EnclosingFunc returns the innermost function node whose body spans
// (file, line), nil when the position lies outside every loaded body.
func (g *CallGraph) EnclosingFunc(file string, line int) *FuncNode {
	var best *FuncNode
	bestSpan := 1 << 30
	for _, n := range g.byFile[file] {
		if n.body == nil {
			continue
		}
		fset := n.Pkg.Fset
		start := fset.Position(n.body.Pos()).Line
		end := fset.Position(n.body.End()).Line
		if line < start || line > end {
			continue
		}
		if span := end - start; span < bestSpan {
			best, bestSpan = n, span
		}
	}
	return best
}

// WalkNodeBody walks a function node's own body statements without
// descending into nested function literals (which are separate nodes).
// The root FuncLit/FuncDecl itself is entered.
func WalkNodeBody(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil || n == root {
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		visit(n)
		return true
	})
}

// Body returns the node's body syntax (FuncDecl or FuncLit), nil for
// external (unloaded) functions.
func (n *FuncNode) Body() ast.Node { return n.body }

// recvIsInterface reports whether fn is an interface method.
func recvIsInterface(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// shortFuncLabel renders kernel.(*Kernel).tick-style labels.
func shortFuncLabel(fn *types.Func) string {
	pkgBase := ""
	if fn.Pkg() != nil {
		pkgBase = path.Base(fn.Pkg().Path()) + "."
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkgBase + fn.Name()
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, ok := t.(*types.Pointer); ok {
		ptr = "*"
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return fmt.Sprintf("%s(%s%s).%s", pkgBase, ptr, named.Obj().Name(), fn.Name())
	}
	return pkgBase + fn.Name()
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// inPkgSegment reports whether importPath contains seg ("/internal/sim")
// as a whole path segment boundary — the path-suffix matching convention
// shared by the checks so fixture stand-ins under other module prefixes
// exercise the same code.
func inPkgSegment(importPath, seg string) bool {
	i := strings.Index(importPath, seg)
	if i < 0 {
		return false
	}
	rest := importPath[i+len(seg):]
	return rest == "" || rest[0] == '/'
}
