package prec

import "repro/internal/ids"

// The map-of-maps precedence graph this package shipped before the
// pointer-linked representation, kept verbatim (n² Reaches calls per
// order included) as the reference model the differential tests and
// FuzzPrecModel compare the product against.

// model is a DAG of precedence constraints between active transactions.
// An edge a -> b means a is granted items before b wherever both appear.
// The zero value is not usable; call New.
type model struct {
	out map[ids.Txn]map[ids.Txn]bool
	in  map[ids.Txn]map[ids.Txn]bool
}

// newModel returns an empty precedence graph.
func newModel() *model {
	return &model{
		out: make(map[ids.Txn]map[ids.Txn]bool),
		in:  make(map[ids.Txn]map[ids.Txn]bool),
	}
}

// Record stores the precedence implied by a dispatched forward-list order:
// an edge between each consecutive pair. Recording a chain keeps the edge
// count linear while preserving reachability between all ordered pairs.
// Record panics if the order would create a cycle — callers must obtain
// the order from Order, which guarantees consistency.
func (g *model) Record(order []ids.Txn) {
	for i := 0; i+1 < len(order); i++ {
		a, b := order[i], order[i+1]
		if a == b {
			continue
		}
		if g.Reaches(b, a) {
			panic("prec: Record would create a cycle; order not obtained from Order?")
		}
		g.addEdge(a, b)
	}
}

func (g *model) addEdge(a, b ids.Txn) {
	s := g.out[a]
	if s == nil {
		s = make(map[ids.Txn]bool)
		g.out[a] = s
	}
	s[b] = true
	r := g.in[b]
	if r == nil {
		r = make(map[ids.Txn]bool)
		g.in[b] = r
	}
	r[a] = true
}

// Constrain records that a must precede b wherever both appear — used for
// granting-order facts: a transaction currently holding (or in flight to
// receive) an item precedes every request still pending on it, so future
// forward lists place the holder first and never invert an existing wait
// (paper §3.3: "the precedence graph is consistent with the lock granting
// order"). The edge is skipped, and false returned, when the reverse order
// is already established — that situation is a genuine cross-window
// deadlock, left to the wait-for-graph detector.
func (g *model) Constrain(a, b ids.Txn) bool {
	if a == b || g.Reaches(b, a) {
		return false
	}
	g.addEdge(a, b)
	return true
}

// Remove deletes a finished (committed or aborted) transaction and all its
// constraints. Constraints through a finished transaction no longer bind:
// its data hand-offs have already happened.
func (g *model) Remove(t ids.Txn) {
	//repolint:allow maprange -- commutative deletes, order-free
	for b := range g.out[t] {
		delete(g.in[b], t)
		if len(g.in[b]) == 0 {
			delete(g.in, b)
		}
	}
	delete(g.out, t)
	//repolint:allow maprange -- commutative deletes, order-free
	for a := range g.in[t] {
		delete(g.out[a], t)
		if len(g.out[a]) == 0 {
			delete(g.out, a)
		}
	}
	delete(g.in, t)
}

// Reaches reports whether b is reachable from a along precedence edges.
func (g *model) Reaches(a, b ids.Txn) bool {
	if a == b {
		return false
	}
	// Plain DFS; windows are small and the graph holds only active txns.
	seen := map[ids.Txn]bool{a: true}
	stack := []ids.Txn{a}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		//repolint:allow maprange -- boolean reachability, order-free
		for m := range g.out[n] {
			if m == b {
				return true
			}
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return false
}

// Order arranges pending so that every pair already related in the graph
// keeps its established order, breaking ties by position in pending (FIFO
// arrival, the paper's default rule — which also acts as the aging
// mechanism: old requests never migrate backwards on ties).
//
// The input is not modified. Order always succeeds because reachability in
// a DAG restricted to any subset is a partial order.
func (g *model) Order(pending []ids.Txn) []ids.Txn {
	return g.order(pending, nil)
}

// OrderGrouped is like Order but, where the constraints allow either
// order, schedules shared (read) requests ahead of exclusive ones so that
// maximal parallel read groups form at the head of the forward list —
// one of the paper's §3.2 "ordering rules to improve performance
// further", and the one that makes the shared-copy fan-out and the MR1W
// overlap actually fire. write[i] reports whether pending[i] requests
// exclusive access; remaining ties stay FIFO.
func (g *model) OrderGrouped(pending []ids.Txn, write []bool) []ids.Txn {
	if len(write) != len(pending) {
		panic("prec: OrderGrouped write slice length mismatch")
	}
	return g.order(pending, write)
}

func (g *model) order(pending []ids.Txn, write []bool) []ids.Txn {
	n := len(pending)
	if n <= 1 {
		return append([]ids.Txn(nil), pending...)
	}
	// Build the induced constraint edges by reachability.
	adj := make([][]int, n)
	indeg := make([]int, n)
	for i, a := range pending {
		for j, b := range pending {
			if i == j {
				continue
			}
			if g.Reaches(a, b) {
				adj[i] = append(adj[i], j)
				indeg[j]++
			}
		}
	}
	// Kahn's algorithm. Among available transactions prefer readers when
	// grouping is requested, then the smallest original index, keeping
	// the output deterministic and (within each class) FIFO.
	out := make([]ids.Txn, 0, n)
	used := make([]bool, n)
	for len(out) < n {
		pick := -1
		for i := 0; i < n; i++ {
			if used[i] || indeg[i] != 0 {
				continue
			}
			if pick < 0 {
				pick = i
				continue
			}
			if write != nil && write[pick] && !write[i] {
				pick = i // an available reader beats an earlier writer
			}
		}
		if pick < 0 {
			// Unreachable: induced reachability on a DAG cannot cycle.
			panic("prec: induced constraint cycle")
		}
		used[pick] = true
		out = append(out, pending[pick])
		for _, j := range adj[pick] {
			indeg[j]--
		}
	}
	return out
}

// Size returns the number of transactions with at least one constraint.
func (g *model) Size() int {
	seen := map[ids.Txn]bool{}
	//repolint:allow maprange -- counting distinct keys, order-free
	for a := range g.out {
		seen[a] = true
	}
	//repolint:allow maprange -- counting distinct keys, order-free
	for b := range g.in {
		seen[b] = true
	}
	return len(seen)
}

// HasCycle reports whether the graph contains a cycle. Record maintains
// acyclicity, so this is an invariant check for tests.
func (g *model) HasCycle() bool {
	color := map[ids.Txn]int{}
	var visit func(n ids.Txn) bool
	visit = func(n ids.Txn) bool {
		color[n] = 1
		//repolint:allow maprange -- boolean cycle test, order-free
		for m := range g.out[n] {
			switch color[m] {
			case 1:
				return true
			case 0:
				if visit(m) {
					return true
				}
			}
		}
		color[n] = 2
		return false
	}
	//repolint:allow maprange -- boolean cycle test, order-free
	for n := range g.out {
		if color[n] == 0 && visit(n) {
			return true
		}
	}
	return false
}
