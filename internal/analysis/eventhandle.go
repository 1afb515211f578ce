package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// EventHandleAnalyzer enforces the sim.Event aliasing rules from
// DESIGN.md §3d. Event is a generational handle to pooled storage: the
// engine recycles an event's storage the moment it fires or is
// cancelled, bumping the generation so stale handles fail safe. Two
// usage patterns defeat that protection:
//
//   - storing *sim.Event (or taking &handle): the pointer aliases
//     storage that may already describe a different live event, so a
//     later Cancel through it can cancel a stranger's event;
//   - comparing handles with == or !=: across a Cancel or fire the
//     same storage carries a new generation, so equality silently
//     means "same recycled slot", not "same scheduled callback".
//
// Handles must be held by value and queried with Pending/Cancel only.
var EventHandleAnalyzer = &Analyzer{
	Name: "eventhandle",
	Doc:  "flags *sim.Event storage, &handle aliasing, and ==/!= comparison of sim.Event handles",
	Run:  runEventHandle,
}

// isSimEvent matches the Event handle type from ghost/internal/sim
// (path-suffix matched so fixture stand-ins under other module prefixes
// exercise the same code).
func isSimEvent(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Name() != "Event" || obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == "ghost/internal/sim" || strings.HasSuffix(path, "/internal/sim")
}

func isSimEventPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isSimEvent(ptr.Elem())
}

func runEventHandle(p *Pass) {
	info := p.Pkg.Info
	if info == nil {
		return
	}
	// Declarations (vars, struct fields, params, results) typed
	// *sim.Event.
	for id, obj := range info.Defs {
		v, ok := obj.(*types.Var)
		if !ok {
			continue
		}
		if isSimEventPtr(v.Type()) {
			p.Reportf(id.Pos(),
				"%q is declared *sim.Event: handles are values with generations, and a pointer aliases pooled storage that outlives the event (stale-handle bug); store the Event by value", id.Name)
		}
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.UnaryExpr:
				if n.Op != token.AND {
					return true
				}
				if t := info.TypeOf(n.X); t != nil && isSimEvent(t) {
					p.Reportf(n.Pos(),
						"taking the address of a sim.Event handle aliases pooled storage across recycling; copy the handle by value instead")
				}
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				xt, yt := info.TypeOf(n.X), info.TypeOf(n.Y)
				if (xt != nil && isSimEvent(xt)) || (yt != nil && isSimEvent(yt)) {
					p.Reportf(n.Pos(),
						"comparing sim.Event handles with %s: across a Cancel or fire the storage is recycled under a new generation, so equality means \"same slot\", not \"same event\"; use Pending() or track identity separately", n.Op)
				}
			}
			return true
		})
	}
}
