package wfg

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ids"
)

// diffTxns is the id space of the differential harness: small enough that
// random edges collide, stack counts and close cycles.
const diffTxns = 10

// pair drives the product and the reference model with the same
// operations and fails on the first observable difference.
type pair struct {
	t *testing.T
	g *Graph
	m *model
}

func newPair(t *testing.T) *pair { return &pair{t: t, g: New(), m: newModel()} }

// step applies one operation, decoded from three bytes, to both graphs.
// The queries compare their answers on the spot — the cycle slice element
// by element, since it is what ChooseVictim sees.
func (p *pair) step(op, x, y byte) {
	p.t.Helper()
	a, b := ids.Txn(x%diffTxns+1), ids.Txn(y%diffTxns+1)
	switch op % 6 {
	case 0, 1: // twice as likely as a removal, so graphs grow
		p.g.AddEdge(a, b)
		p.m.AddEdge(a, b)
	case 2:
		p.g.RemoveEdge(a, b)
		p.m.RemoveEdge(a, b)
	case 3:
		p.g.RemoveTxn(a)
		p.m.RemoveTxn(a)
	case 4:
		want := p.m.CycleThrough(a)
		if got := p.g.CycleThrough(a); !reflect.DeepEqual(got, want) {
			p.t.Fatalf("CycleThrough(%v) = %v, model %v", a, got, want)
		}
		// AppendCycle extends a non-empty scratch in place of a fresh slice.
		dst := append(make([]ids.Txn, 0, 2), b)
		if got := p.g.AppendCycle(dst, a); !reflect.DeepEqual(got, append([]ids.Txn{b}, want...)) {
			p.t.Fatalf("AppendCycle([%v], %v) = %v, model cycle %v", b, a, got, want)
		}
	case 5:
		if got, want := p.g.WaitsOf(a), p.m.WaitsOf(a); !reflect.DeepEqual(got, want) {
			p.t.Fatalf("WaitsOf(%v) = %v, model %v", a, got, want)
		}
	}
	if got, want := p.g.Edges(), p.m.Edges(); got != want {
		p.t.Fatalf("Edges() = %d, model %d", got, want)
	}
}

// compare checks every observable of the two graphs and the product's own
// structural invariants.
func (p *pair) compare() {
	p.t.Helper()
	for id := ids.Txn(1); id <= diffTxns; id++ {
		if got, want := p.g.WaitsOf(id), p.m.WaitsOf(id); !reflect.DeepEqual(got, want) {
			p.t.Fatalf("WaitsOf(%v) = %v, model %v", id, got, want)
		}
		if got, want := p.g.CycleThrough(id), p.m.CycleThrough(id); !reflect.DeepEqual(got, want) {
			p.t.Fatalf("CycleThrough(%v) = %v, model %v", id, got, want)
		}
	}
	if got, want := p.g.HasCycle(), p.m.HasCycle(); got != want {
		p.t.Fatalf("HasCycle() = %v, model %v", got, want)
	}
	checkInvariants(p.t, p.g)
}

// run interprets data as a sequence of three-byte operations.
func (p *pair) run(data []byte) {
	p.t.Helper()
	for i := 0; i+2 < len(data); i += 3 {
		p.step(data[i], data[i+1], data[i+2])
	}
	p.compare()
}

// checkInvariants verifies what the representation promises: the node map
// holds exactly the transactions with an edge, out is ascending with
// positive counts and mirrored by in, the pair count is right, and a node
// on the free list carries no edge, count or stamp into its next life.
func checkInvariants(t *testing.T, g *Graph) {
	t.Helper()
	pairs := 0
	for id, n := range g.nodes {
		if n.id != id {
			t.Fatalf("node filed under %v says it is %v", id, n.id)
		}
		if len(n.out) == 0 && len(n.in) == 0 {
			t.Fatalf("node %v has no edge but is still in the graph", id)
		}
		if n.stamp > g.gen {
			t.Fatalf("node %v stamped %d, ahead of generation %d", id, n.stamp, g.gen)
		}
		pairs += len(n.out)
		for i, e := range n.out {
			if e.n <= 0 || g.nodes[e.to.id] != e.to {
				t.Fatalf("edge %v -> %v: count %d, live target %v", id, e.to.id, e.n, g.nodes[e.to.id] == e.to)
			}
			if i > 0 && n.out[i-1].to.id >= e.to.id {
				t.Fatalf("node %v: successors not ascending", id)
			}
			sources := 0
			for _, src := range e.to.in {
				if src == n {
					sources++
				}
			}
			if sources != 1 {
				t.Fatalf("edge %v -> %v listed %d times among the target's sources", id, e.to.id, sources)
			}
		}
		for _, src := range n.in {
			if _, ok := src.find(id); !ok {
				t.Fatalf("node %v lists source %v, which has no edge to it", id, src.id)
			}
		}
	}
	if pairs != g.edges {
		t.Fatalf("edge counter %d, graph holds %d pairs", g.edges, pairs)
	}
	for _, n := range g.free {
		if len(n.out) != 0 || len(n.in) != 0 || n.stamp != 0 {
			t.Fatalf("recycled node (last %v) keeps %d out, %d in, stamp %d", n.id, len(n.out), len(n.in), n.stamp)
		}
	}
}

// TestMatchesModel drives product and model with the same random
// operation sequences.
func TestMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 200; round++ {
		data := make([]byte, 3*(20+rng.Intn(200)))
		rng.Read(data)
		newPair(t).run(data)
	}
}

// FuzzWFGModel lets the fuzzer choose the operation sequence.
func FuzzWFGModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 0, 4, 0, 0})                   // two-cycle, then search
	f.Add([]byte{0, 0, 1, 0, 0, 1, 2, 0, 1, 5, 0, 0, 3, 1, 0}) // counted edge, one removal, RemoveTxn
	f.Add([]byte{0, 0, 1, 0, 1, 2, 0, 2, 0, 0, 0, 2, 4, 0, 0}) // two cycles through T1: ascending successor wins
	f.Fuzz(func(t *testing.T, data []byte) { newPair(t).run(data) })
}

// TestRecycledNodeIsClean removes a transaction in the middle of a graph
// that has been searched, then re-adds its id and a fresh one: both get
// recycled nodes, which must behave like new ones.
func TestRecycledNodeIsClean(t *testing.T) {
	p := newPair(t)
	for _, e := range [][2]ids.Txn{{1, 2}, {2, 3}, {3, 1}, {2, 3}, {4, 2}, {2, 5}} {
		p.g.AddEdge(e[0], e[1])
		p.m.AddEdge(e[0], e[1])
	}
	p.compare() // stamps every node on the cycle
	p.g.RemoveTxn(2)
	p.m.RemoveTxn(2)
	if len(p.g.free) == 0 {
		t.Fatal("RemoveTxn recycled no node")
	}
	p.compare()
	for _, e := range [][2]ids.Txn{{2, 1}, {9, 2}, {1, 9}} {
		p.g.AddEdge(e[0], e[1])
		p.m.AddEdge(e[0], e[1])
	}
	if got, want := p.g.WaitsOf(2), []ids.Txn{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("re-added T2 waits for %v, want %v: a stale edge survived", got, want)
	}
	p.compare()
	// T2 -> T3 had count 2 before; a fresh pair must vanish at one removal.
	p.g.AddEdge(2, 3)
	p.g.RemoveEdge(2, 3)
	if got, want := p.g.WaitsOf(2), []ids.Txn{1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after add+remove T2 waits for %v, want %v: a stale count survived", got, want)
	}
}

// TestGenerationWraparound forces the search stamp through its wrap: the
// answers must not change, and no node may keep a stamp from before it.
func TestGenerationWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 3*120)
	rng.Read(data)
	p := newPair(t)
	p.run(data)
	p.g.gen = math.MaxUint32 - 1
	for _, n := range p.g.nodes {
		n.stamp = p.g.gen // the worst case: every node marked by the last search
	}
	for round := 0; round < 4; round++ {
		p.compare()
	}
	if p.g.gen >= math.MaxUint32-1 || p.g.gen == 0 {
		t.Fatalf("generation %d after the wrap", p.g.gen)
	}
}

// TestSteadyStateAllocatesNothing pins the point of the representation:
// once the graph has seen its working set, only CycleThrough's fresh
// cycle and WaitsOf's copy allocate.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	// The benchmark's graph: T1 heads a chain of 8 with a sink beside each
	// link, and 34 outsiders wait on the chain (T24, T32, ... on T1 itself,
	// so the miss below has to walk the chain to learn there is no cycle).
	g := New()
	for id := ids.Txn(1); id < 8; id++ {
		g.AddEdge(id, id+1)
	}
	for id := ids.Txn(1); id <= 8; id++ {
		g.AddEdge(id, 8+id)
	}
	for id := ids.Txn(17); id <= 50; id++ {
		g.AddEdge(id, 1+id%8)
	}
	var scratch []ids.Txn
	cases := []struct {
		name string
		op   func()
	}{
		{"CycleThrough miss", func() {
			if g.CycleThrough(1) != nil {
				t.Fatal("unexpected cycle")
			}
		}},
		{"AppendCycle hit into a scratch", func() {
			g.AddEdge(8, 1) // closes the chain into an 8-cycle
			if scratch = g.AppendCycle(scratch[:0], 1); len(scratch) != 8 {
				t.Fatalf("cycle %v, want the 8-chain", scratch)
			}
			g.RemoveEdge(8, 1)
		}},
		{"AddEdge+RemoveEdge, new pair on old nodes", func() { g.AddEdge(8, 1); g.RemoveEdge(8, 1) }},
		{"AddEdge+RemoveEdge, counted pair", func() { g.AddEdge(1, 2); g.RemoveEdge(1, 2) }},
		{"AddEdge+RemoveEdge, nodes come and go", func() { g.AddEdge(60, 61); g.RemoveEdge(60, 61) }},
		{"RemoveTxn and rebuild", func() {
			g.RemoveTxn(4)
			g.AddEdge(3, 4)
			g.AddEdge(4, 5)
			g.AddEdge(4, 12)
			for _, id := range [...]ids.Txn{19, 27, 35, 43} {
				g.AddEdge(id, 4)
			}
		}},
	}
	for _, c := range cases {
		c.op() // warm: grow slices and the free list once
		if n := testing.AllocsPerRun(100, c.op); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, n)
		}
	}
	checkInvariants(t, g)
}
