package route

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"github.com/hpcsim/t2hx/internal/topo"
)

// routeHotPathFiles are the files on the table-build hot path that must
// keep their per-switch/per-terminal state in flat slices over the graph's
// dense kind indexes. map[topo.NodeID] churn here used to dominate
// (DF)SSSP/PARX build time; this lint stops it from creeping back. nue.go
// is exempt: its CDG-constrained tree growth is not on the sweep hot path
// and keeps its clearer map-based formulation.
var routeHotPathFiles = []string{
	"dijkstra.go",
	"tables.go",
	"sssp.go",
	"ftree.go",
	"updown.go",
	"lash.go",
	"hyperx_ft.go",
}

func TestNoNodeIDMapsInHotPaths(t *testing.T) {
	fset := token.NewFileSet()
	for _, file := range routeHotPathFiles {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatalf("parsing %s: %v", file, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			m, ok := n.(*ast.MapType)
			if !ok {
				return true
			}
			if isSelector(m.Key, "topo", "NodeID") {
				t.Errorf("%s: map keyed by topo.NodeID — use a flat slice over Graph.SwitchIndex/TerminalIndex instead",
					fset.Position(m.Pos()))
			}
			return true
		})
	}
}

// TestNoHandleMapsInFlowFabricHotPaths extends the dense-state lint to the
// per-flow hot paths: internal/flow keeps its state in the arena/SoA flow
// table indexed by flow.Index(id), and internal/fabric keys its inflight
// tracking by the same slot index. map[FlowID] / map[topo.ChannelID] churn
// here is exactly what the arena refactor removed; this stops it creeping
// back. Test files are exempt (they favor clarity over allocation rate).
func TestNoHandleMapsInFlowFabricHotPaths(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"../flow", "../fabric"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no Go files found in %s", dir)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatalf("parsing %s: %v", file, err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				m, ok := n.(*ast.MapType)
				if !ok {
					return true
				}
				if isIdent(m.Key, "FlowID") || isSelector(m.Key, "flow", "FlowID") {
					t.Errorf("%s: map keyed by FlowID — index a dense slice by flow.Index(id) and authenticate with the full handle instead",
						fset.Position(m.Pos()))
				}
				if isSelector(m.Key, "topo", "ChannelID") {
					t.Errorf("%s: map keyed by topo.ChannelID — channel IDs are dense; use a flat slice over the channel space instead",
						fset.Position(m.Pos()))
				}
				return true
			})
		}
	}
}

// TestNoMapsInComponentIndexHotPath bans maps of ANY key type in the
// incremental solver, which holds the component index: component
// discovery and the component solve run on every settle, so both must
// stay on epoch-stamped flat slices. Stricter than the keyed bans above
// on purpose — this file has no legitimate map use.
func TestNoMapsInComponentIndexHotPath(t *testing.T) {
	const file = "../flow/solver_incremental.go"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, 0)
	if err != nil {
		t.Fatalf("parsing %s: %v", file, err)
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if m, ok := n.(*ast.MapType); ok {
			t.Errorf("%s: map in the component-index hot path — use epoch-stamped flat slices over the channel/flow space instead",
				fset.Position(m.Pos()))
		}
		return true
	})
}

// TestNoContainerHeapInEventAndFlowHotPaths bans container/heap from the
// event core and the flow solvers: its interface-typed Push/Pop boxes
// every entry, which is exactly the per-event/per-entry allocation the
// hand-rolled value heaps (sim.Engine's 4-ary event heap, flow's share and
// done heaps) were written to remove. Test files are exempt.
func TestNoContainerHeapInEventAndFlowHotPaths(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"../sim", "../flow"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		if len(files) == 0 {
			t.Fatalf("no Go files found in %s", dir)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatalf("parsing %s: %v", file, err)
			}
			for _, imp := range f.Imports {
				if imp.Path.Value == `"container/heap"` {
					t.Errorf("%s: imports container/heap — use a hand-rolled value-indexed heap (engine.go / solver_incremental.go pattern) instead",
						fset.Position(imp.Pos()))
				}
			}
		}
	}
}

// TestNoGoroutinesInEventAndFlowCores holds the event core and the flow
// solvers to one goroutine: a settle solves its components in ascending
// root order on the event goroutine, and that order is what keeps rates
// bit-identical. Test files are exempt.
func TestNoGoroutinesInEventAndFlowCores(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range []string{"../sim", "../flow"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no Go files found in %s: %v", dir, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, file, nil, 0)
			if err != nil {
				t.Fatalf("parsing %s: %v", file, err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement — the event core and flow solvers run on the event goroutine only",
						fset.Position(g.Pos()))
				}
				return true
			})
		}
	}
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	p, ok := sel.X.(*ast.Ident)
	return ok && p.Name == pkg && sel.Sel.Name == name
}

func TestFrozenTablesRejectWrites(t *testing.T) {
	hx := smallHX(t)
	tb, err := SSSP(hx.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Frozen() {
		t.Fatal("SSSP returned unfrozen tables")
	}
	sw := hx.Graph.Switches()[0]
	term := hx.Graph.Terminals()[0]
	mustPanic(t, "SetNextHop", func() { tb.SetNextHop(sw, 1, NoChannel) })
	mustPanic(t, "SetSL", func() { tb.SetSL(term, 1, 0) })

	// A mutable clone accepts writes again without touching the original.
	before := tb.NextHop(sw, tb.BaseLID[0])
	mc := tb.MutableClone()
	mc.SetNextHop(sw, tb.BaseLID[0], NoChannel)
	if got := tb.NextHop(sw, tb.BaseLID[0]); got != before {
		t.Errorf("mutating a clone changed the frozen original: %d -> %d", before, got)
	}
}

func TestAllEnginesFreeze(t *testing.T) {
	hx := smallHX(t)
	builds := map[string]func() (*Tables, error){
		"sssp":   func() (*Tables, error) { return SSSP(hx.Graph, 0) },
		"dfsssp": func() (*Tables, error) { return DFSSSP(hx.Graph, 0, 8) },
		"updown": func() (*Tables, error) { return UpDown(hx.Graph, 0) },
		"lash":   func() (*Tables, error) { return LASH(hx.Graph, 0, 8) },
		"nue":    func() (*Tables, error) { return Nue(hx.Graph, 0, 2) },
		"hxmin":  func() (*Tables, error) { return HXMin(hx, 0) },
		"hxnm":   func() (*Tables, error) { return HXNonMin(hx, 0, 8) },
	}
	for name, build := range builds {
		tb, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !tb.Frozen() {
			t.Errorf("%s returned unfrozen tables", name)
		}
	}
}

func TestRebind(t *testing.T) {
	a := smallHX(t)
	b := smallHX(t)
	tb, err := SSSP(a.Graph, 0)
	if err != nil {
		t.Fatal(err)
	}
	rb := tb.Rebind(b.Graph)
	if rb.G != b.Graph {
		t.Fatal("Rebind did not swap the graph")
	}
	if !rb.Frozen() {
		t.Fatal("rebound tables lost the freeze")
	}
	// Forwarding state is shared: same next hops through either binding.
	for _, sw := range a.Graph.Switches() {
		for _, lid := range []LID{tb.BaseLID[0], tb.BaseLID[len(tb.BaseLID)-1]} {
			if tb.NextHop(sw, lid) != rb.NextHop(sw, lid) {
				t.Fatalf("rebound tables disagree at switch %d lid %d", sw, lid)
			}
		}
	}

	mustPanic(t, "Rebind unfrozen", func() { tb.MutableClone().Rebind(b.Graph) })
	tiny := topo.NewHyperX(topo.HyperXConfig{S: []int{2, 2}, T: 2, Bandwidth: 1e9, Latency: 1e-7})
	mustPanic(t, "Rebind different shape", func() { tb.Rebind(tiny.Graph) })
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}
