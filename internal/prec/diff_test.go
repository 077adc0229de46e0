package prec

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ids"
)

// diffTxns is the id space of the differential harness: small enough that
// random constraints chain, collide and get refused.
const diffTxns = 10

// pair drives the product and the reference model with the same
// operations and fails on the first observable difference.
type pair struct {
	t *testing.T
	g *Graph
	m *model
}

func newPair(t *testing.T) *pair { return &pair{t: t, g: New(), m: newModel()} }

// window decodes a pending list from two bytes: x chooses which of the ten
// transactions are in it, y rotates the arrival order and marks the
// writers.
func window(x, y byte) (pending []ids.Txn, write []bool) {
	members := uint(x) | uint(y&3)<<8
	for i := 0; i < diffTxns; i++ {
		k := (i + int(y>>2)) % diffTxns
		if members&(1<<uint(k)) != 0 {
			pending = append(pending, ids.Txn(k+1))
			write = append(write, (uint(y)*7+uint(k))%3 == 0)
		}
	}
	return pending, write
}

// step applies one operation, decoded from three bytes, to both graphs,
// comparing every answer on the spot.
func (p *pair) step(op, x, y byte) {
	p.t.Helper()
	a, b := ids.Txn(x%diffTxns+1), ids.Txn(y%diffTxns+1)
	switch op % 7 {
	case 0, 1: // twice as likely as a removal, so graphs grow
		if got, want := p.g.Constrain(a, b), p.m.Constrain(a, b); got != want {
			p.t.Fatalf("Constrain(%v, %v) = %v, model %v", a, b, got, want)
		}
	case 2:
		p.g.Remove(a)
		p.m.Remove(a)
	case 3:
		if got, want := p.g.Reaches(a, b), p.m.Reaches(a, b); got != want {
			p.t.Fatalf("Reaches(%v, %v) = %v, model %v", a, b, got, want)
		}
	case 4:
		pending, _ := window(x, y)
		if got, want := p.g.Order(pending), p.m.Order(pending); !reflect.DeepEqual(got, want) {
			p.t.Fatalf("Order(%v) = %v, model %v", pending, got, want)
		}
	case 5:
		// A pending list may name a transaction twice; the model treats
		// the copies as unrelated to each other, and so must the product.
		pending, write := window(x, y)
		pending, write = append(pending, a), append(write, x&1 == 0)
		if got, want := p.g.OrderGrouped(pending, write), p.m.OrderGrouped(pending, write); !reflect.DeepEqual(got, want) {
			p.t.Fatalf("OrderGrouped(%v, %v) = %v, model %v", pending, write, got, want)
		}
	case 6:
		// Dispatch a window as PlanWindow does: order it, record the order.
		pending, write := window(x, y)
		order := p.g.OrderGrouped(pending, write)
		if want := p.m.OrderGrouped(pending, write); !reflect.DeepEqual(order, want) {
			p.t.Fatalf("OrderGrouped(%v, %v) = %v, model %v", pending, write, order, want)
		}
		p.g.Record(order)
		p.m.Record(order)
	}
	if got, want := p.g.Size(), p.m.Size(); got != want {
		p.t.Fatalf("Size() = %d, model %d", got, want)
	}
}

// compare checks every observable of the two graphs and the product's own
// structural invariants.
func (p *pair) compare() {
	p.t.Helper()
	all := make([]ids.Txn, diffTxns)
	for i := range all {
		all[i] = ids.Txn(diffTxns - i) // against the grain of most constraints
	}
	for _, a := range all {
		for _, b := range all {
			if got, want := p.g.Reaches(a, b), p.m.Reaches(a, b); got != want {
				p.t.Fatalf("Reaches(%v, %v) = %v, model %v", a, b, got, want)
			}
		}
	}
	if got, want := p.g.Order(all), p.m.Order(all); !reflect.DeepEqual(got, want) {
		p.t.Fatalf("Order(%v) = %v, model %v", all, got, want)
	}
	if p.g.HasCycle() {
		p.t.Fatal("precedence graph acquired a cycle")
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
// holds exactly the transactions with a constraint, out and in are sets
// that mirror each other, and a node on the free list carries no edge or
// stamp into its next life.
func checkInvariants(t *testing.T, g *Graph) {
	t.Helper()
	count := func(s []*node, n *node) (c int) {
		for _, m := range s {
			if m == n {
				c++
			}
		}
		return c
	}
	for id, n := range g.nodes {
		if n.id != id {
			t.Fatalf("node filed under %v says it is %v", id, n.id)
		}
		if len(n.out) == 0 && len(n.in) == 0 {
			t.Fatalf("node %v has no constraint but is still in the graph", id)
		}
		if n.stamp > g.gen {
			t.Fatalf("node %v stamped %d, ahead of generation %d", id, n.stamp, g.gen)
		}
		for _, m := range n.out {
			if g.nodes[m.id] != m || count(n.out, m) != 1 || count(m.in, n) != 1 {
				t.Fatalf("edge %v -> %v: target live %v, %d times in out, %d times in the target's in",
					id, m.id, g.nodes[m.id] == m, count(n.out, m), count(m.in, n))
			}
		}
		for _, m := range n.in {
			if count(m.out, n) != 1 {
				t.Fatalf("node %v lists predecessor %v, which has no edge to it", id, m.id)
			}
		}
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

// FuzzPrecModel lets the fuzzer choose the operation sequence.
func FuzzPrecModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 1, 2, 3, 0, 2, 0, 2, 0})      // chain, transitive reach, refused reverse
	f.Add([]byte{6, 255, 3, 2, 4, 0, 4, 255, 43, 5, 7, 9}) // record a full window, remove, reorder
	f.Add([]byte{0, 3, 1, 0, 1, 7, 5, 138, 20, 6, 138, 20})
	f.Fuzz(func(t *testing.T, data []byte) { newPair(t).run(data) })
}

// TestRecycledNodeIsClean removes a transaction in the middle of a graph
// that has been traversed, then re-adds its id and a fresh one: both get
// recycled nodes, which must behave like new ones.
func TestRecycledNodeIsClean(t *testing.T) {
	p := newPair(t)
	for _, chain := range [][]ids.Txn{{1, 2, 3, 4}, {5, 2, 6}} {
		p.g.Record(chain)
		p.m.Record(chain)
	}
	p.compare() // stamps everything downstream of T1 and T5
	p.g.Remove(2)
	p.m.Remove(2)
	if len(p.g.free) == 0 {
		t.Fatal("Remove recycled no node")
	}
	p.compare()
	if p.g.Reaches(1, 3) || p.g.Reaches(5, 6) {
		t.Fatal("constraints through the removed T2 still bind")
	}
	for _, c := range [][2]ids.Txn{{4, 2}, {2, 9}, {9, 1}} {
		if got, want := p.g.Constrain(c[0], c[1]), p.m.Constrain(c[0], c[1]); got != want {
			t.Fatalf("Constrain(%v, %v) = %v, model %v", c[0], c[1], got, want)
		}
	}
	if p.g.Reaches(2, 3) || p.g.Reaches(2, 6) || p.g.Reaches(5, 2) {
		t.Fatal("re-added T2 inherited an edge from its node's last life")
	}
	p.compare()
}

// TestGenerationWraparound forces the traversal stamp through its wrap:
// the answers must not change, and no node may keep a stamp from before.
func TestGenerationWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 3*120)
	rng.Read(data)
	p := newPair(t)
	p.run(data)
	p.g.gen = math.MaxUint32 - 1
	for _, n := range p.g.nodes {
		n.stamp = p.g.gen // the worst case: every node marked by the last traversal
	}
	p.compare()
	if p.g.gen >= math.MaxUint32-1 || p.g.gen == 0 {
		t.Fatalf("generation %d after the wrap", p.g.gen)
	}
}

// TestSteadyStateAllocatesNothing pins the point of the representation:
// once the graph has seen its working set, only the order a call returns
// is allocated.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	// The benchmark's steady state: 8-request windows, each holding four
	// transactions of the previous one, over about 50 live transactions.
	g := New()
	pending := make([]ids.Txn, 8)
	write := make([]bool, 8)
	next := 0
	window := func() {
		first := ids.Txn(4*next + 1)
		for j := range pending {
			pending[j] = first + ids.Txn(j)
			write[j] = (next+j)%3 == 0
		}
		g.Record(g.OrderGrouped(pending, write))
		for id := first - 44; id < first-40; id++ {
			g.Remove(id)
		}
		next++
	}
	for i := 0; i < 64; i++ {
		window() // warm: grow the scratch, the adjacency slices and the free list
	}
	if n := testing.AllocsPerRun(100, window); n > 1 {
		t.Errorf("OrderGrouped+Record+Remove at window 8: %v allocs per run, want 1 (the returned order)", n)
	}
	// Two live transactions, one downstream of the other.
	var up, down ids.Txn
	for id := ids.Txn(4 * next); id > 0 && down == 0; id-- {
		for d := id + 1; d <= ids.Txn(4*next+4); d++ {
			if g.Reaches(id, d) {
				up, down = id, d
				break
			}
		}
	}
	if down == 0 {
		t.Fatal("no constrained pair left in the graph")
	}
	cases := []struct {
		name string
		op   func()
	}{
		{"Reaches hit", func() { g.Reaches(up, down) }},
		{"Reaches miss", func() { g.Reaches(down, up) }},
		{"Constrain refused", func() {
			if g.Constrain(down, up) {
				t.Fatal("reverse constraint accepted")
			}
		}},
		{"Constrain repeated", func() { g.Constrain(up, down) }},
		{"Constrain+Remove, nodes come and go", func() { g.Constrain(900, 901); g.Remove(900) }},
	}
	for _, c := range cases {
		c.op()
		if n := testing.AllocsPerRun(100, c.op); n != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, n)
		}
	}
	checkInvariants(t, g)
}
