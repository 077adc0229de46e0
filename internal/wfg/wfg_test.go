package wfg

import (
	"testing"
	"testing/quick"

	"repro/internal/ids"
)

func TestNoCycleOnChain(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	for _, n := range []ids.Txn{1, 2, 3, 4} {
		if c := g.CycleThrough(n); c != nil {
			t.Fatalf("false cycle %v through %v", c, n)
		}
	}
	if g.HasCycle() {
		t.Fatal("HasCycle on a chain")
	}
}

func TestTwoCycle(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	c := g.CycleThrough(1)
	if len(c) != 2 || c[0] != 1 || c[1] != 2 {
		t.Fatalf("cycle = %v", c)
	}
	if !g.HasCycle() {
		t.Fatal("HasCycle missed 2-cycle")
	}
}

func TestLongCycleThroughStartOnly(t *testing.T) {
	g := New()
	// Cycle 2->3->4->2, plus 1 -> 2 (1 not on the cycle).
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 2)
	g.AddEdge(1, 2)
	if c := g.CycleThrough(1); c != nil {
		t.Fatalf("CycleThrough(1) = %v, but 1 is not on a cycle", c)
	}
	if c := g.CycleThrough(2); len(c) != 3 {
		t.Fatalf("CycleThrough(2) = %v", c)
	}
	if !g.HasCycle() {
		t.Fatal("HasCycle missed 3-cycle")
	}
}

func TestSelfEdgeIgnored(t *testing.T) {
	g := New()
	g.AddEdge(1, 1)
	if g.Edges() != 0 {
		t.Fatal("self edge stored")
	}
	if g.CycleThrough(1) != nil {
		t.Fatal("self edge made a cycle")
	}
}

func TestRemoveEdgeBreaksCycle(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.RemoveEdge(2, 1)
	if g.CycleThrough(1) != nil || g.HasCycle() {
		t.Fatal("cycle survived edge removal")
	}
	if g.Edges() != 1 {
		t.Fatalf("edges = %d", g.Edges())
	}
}

func TestRemoveTxn(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	g.RemoveTxn(2)
	if g.HasCycle() {
		t.Fatal("cycle survived RemoveTxn")
	}
	if g.Edges() != 1 { // only 3 -> 1 remains
		t.Fatalf("edges = %d, want 1", g.Edges())
	}
	if w := g.WaitsOf(2); len(w) != 0 {
		t.Fatalf("removed txn still waits: %v", w)
	}
}

func TestCountedEdges(t *testing.T) {
	g := New()
	g.AddEdge(1, 2) // reason one (e.g. pending request on x)
	g.AddEdge(1, 2) // reason two (e.g. FL precedence on y)
	if g.Edges() != 1 {
		t.Fatalf("distinct edges = %d", g.Edges())
	}
	g.RemoveEdge(1, 2)
	if w := g.WaitsOf(1); len(w) != 1 {
		t.Fatalf("edge vanished with one reason left: %v", w)
	}
	g.RemoveEdge(1, 2)
	if w := g.WaitsOf(1); len(w) != 0 {
		t.Fatalf("edge survived removing both reasons: %v", w)
	}
	// Removing an absent edge is a no-op, not a negative count.
	g.RemoveEdge(1, 2)
	g.AddEdge(1, 2)
	if w := g.WaitsOf(1); len(w) != 1 {
		t.Fatalf("negative count corrupted edge: %v", w)
	}
}

func TestRemoveTxnClearsAllCounts(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(1, 2)
	g.AddEdge(3, 1)
	g.AddEdge(3, 1)
	g.RemoveTxn(1)
	if g.Edges() != 0 {
		t.Fatalf("edges after RemoveTxn = %d", g.Edges())
	}
	// Re-adding must start from a clean slate.
	g.AddEdge(3, 1)
	g.RemoveEdge(3, 1)
	if g.Edges() != 0 {
		t.Fatal("stale counts survived RemoveTxn")
	}
}

func TestWaitsOfSorted(t *testing.T) {
	g := New()
	g.AddEdge(1, 9)
	g.AddEdge(1, 3)
	g.AddEdge(1, 7)
	w := g.WaitsOf(1)
	for i := 1; i < len(w); i++ {
		if w[i] < w[i-1] {
			t.Fatalf("WaitsOf unsorted: %v", w)
		}
	}
}

func TestCycleDeterministic(t *testing.T) {
	// Two cycles through 1; detection must return the same one every run.
	build := func() *Graph {
		g := New()
		g.AddEdge(1, 2)
		g.AddEdge(2, 1)
		g.AddEdge(1, 3)
		g.AddEdge(3, 1)
		return g
	}
	first := build().CycleThrough(1)
	for i := 0; i < 20; i++ {
		c := build().CycleThrough(1)
		if len(c) != len(first) {
			t.Fatalf("nondeterministic cycle: %v vs %v", c, first)
		}
		for j := range c {
			if c[j] != first[j] {
				t.Fatalf("nondeterministic cycle: %v vs %v", c, first)
			}
		}
	}
}

// Property: CycleThrough(n) returns a genuine cycle (consecutive edges
// exist and the last node points back to n), and agrees with HasCycle when
// checked over all nodes.
func TestCycleProperty(t *testing.T) {
	type edge struct{ A, B uint8 }
	f := func(edges []edge) bool {
		g := New()
		nodes := map[ids.Txn]bool{}
		for _, e := range edges {
			a, b := ids.Txn(e.A%12), ids.Txn(e.B%12)
			g.AddEdge(a, b)
			nodes[a] = true
			nodes[b] = true
		}
		any := false
		for n := range nodes {
			c := g.CycleThrough(n)
			if c == nil {
				continue
			}
			any = true
			if c[0] != n {
				return false
			}
			for i := 0; i < len(c); i++ {
				from, to := c[i], c[(i+1)%len(c)]
				if !waitsFor(g, from, to) {
					return false // claimed edge absent
				}
			}
		}
		return any == g.HasCycle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// waitsFor reports whether the pair from -> to is in g.
func waitsFor(g *Graph, from, to ids.Txn) bool {
	for _, w := range g.WaitsOf(from) {
		if w == to {
			return true
		}
	}
	return false
}

func BenchmarkCycleThrough(b *testing.B) {
	g := New()
	for i := ids.Txn(1); i < 100; i++ {
		g.AddEdge(i, i+1)
	}
	g.AddEdge(100, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.CycleThrough(1) == nil {
			b.Fatal("cycle not found")
		}
	}
}
