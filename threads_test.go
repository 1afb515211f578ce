package ghost_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"ghost"
)

// TestSpawnStartsNoGoroutine pins the thread execution model: simulated
// threads are resumable bodies called on the engine goroutine, so a
// 200-worker ghOSt pool serving Poisson load starts no goroutine.
func TestSpawnStartsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	m := ghost.NewMachine(ghost.XeonE5())
	defer m.Shutdown()
	enc := m.NewEnclave(ghost.MaskAll(9))
	m.StartAgents(enc, ghost.NewShinjukuPolicy(), ghost.Global())
	rec := &ghost.LatencyRecorder{}
	pool := m.NewWorkerPool(200, rec, func(name string, body ghost.ThreadFunc) *ghost.Thread {
		return m.Spawn(ghost.ThreadOpts{Name: name, Class: ghost.Ghost(enc)}, body)
	})
	m.NewPoissonSource(ghost.NewRand(1), 200_000, ghost.RocksDBService(), pool.Submit)
	m.Run(10 * ghost.Millisecond)
	if rec.Completed == 0 {
		t.Fatal("the pool completed no request")
	}
	// Goroutines left by earlier tests may still be exiting, so only an
	// increase counts.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before the machine, %d after 10ms of load", before, after)
	}
}

// TestNoSequentialOutsideTests fails if non-test code under internal/,
// env/ or cmd/ uses the Sequential adapter (the internal/sequential
// package or the facade's Sequential/SeqTask): the simulator's own
// bodies must be resumable, so they cost no goroutine.
func TestNoSequentialOutsideTests(t *testing.T) {
	const seqPkg = "ghost/internal/sequential"
	for _, root := range []string{"internal", "env", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path == filepath.Join("internal", "sequential") || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			facade := ""
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				switch p {
				case seqPkg:
					t.Errorf("%s imports %s", path, seqPkg)
				case "ghost":
					facade = "ghost"
					if imp.Name != nil {
						facade = imp.Name.Name
					}
				}
			}
			if facade == "" {
				return nil
			}
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == facade &&
					(sel.Sel.Name == "Sequential" || sel.Sel.Name == "SeqTask") {
					t.Errorf("%s uses %s.%s", path, facade, sel.Sel.Name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
