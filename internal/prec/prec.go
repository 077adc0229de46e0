// Package prec implements the transaction precedence graph of the g-2PL
// deadlock-avoidance optimization (paper §3.3): a DAG recording the order
// in which dispatched forward lists grant data items to transactions. Two
// transactions must follow the same relative order in every forward list;
// the server achieves this by ordering each new window's requests
// consistently with the graph before dispatch, then recording the chosen
// order.
//
// Because the graph is kept acyclic by construction, a consistent order
// always exists for requests inside one window; the residual deadlocks of
// g-2PL come from waits that span windows and are handled by detection in
// the engine.
//
// A transaction with a constraint is a node reached through one map
// lookup per API call; adjacency is slices of node pointers (degrees are
// bounded by the client count, so sets are scanned), nodes are recycled,
// and reachability marks nodes with a generation stamp on a graph-owned
// stack, so in steady state nothing here allocates except the order a
// call returns. A Graph is not safe for concurrent use: the g-2PL server
// core owns one and runs single-threaded behind its site.
package prec

import "repro/internal/ids"

// Graph is a DAG of precedence constraints between active transactions.
// An edge a -> b means a is granted items before b wherever both appear.
// The zero value is not usable; call New.
type Graph struct {
	nodes map[ids.Txn]*node // exactly the transactions with a constraint
	free  []*node           // recycled nodes: no edges, stamp 0
	gen   uint32            // stamp of the latest traversal; node.stamp == gen means reached
	stack []*node           // the traversal's DFS stack

	// order's scratch, reused by every call.
	pend   []*node // pending[i]'s node, nil when unconstrained
	adj    []int   // induced successors of every pending position, concatenated
	adjEnd []int   // adj[adjEnd[i]:adjEnd[i+1]] are position i's
	indeg  []int   // unmet induced predecessors; -1 once placed
}

// node is one transaction's adjacency: two sets, unordered.
type node struct {
	id      ids.Txn
	out, in []*node
	stamp   uint32
}

// New returns an empty precedence graph.
func New() *Graph {
	return &Graph{nodes: make(map[ids.Txn]*node)}
}

// Record stores the precedence implied by a dispatched forward-list order:
// an edge between each consecutive pair. Recording a chain keeps the edge
// count linear while preserving reachability between all ordered pairs.
// Record panics if the order would create a cycle — callers must obtain
// the order from Order, which guarantees consistency.
func (g *Graph) Record(order []ids.Txn) {
	for i := 0; i+1 < len(order); i++ {
		if !g.Constrain(order[i], order[i+1]) && order[i] != order[i+1] {
			panic("prec: Record would create a cycle; order not obtained from Order?")
		}
	}
}

// Constrain records that a must precede b wherever both appear — used for
// granting-order facts: a transaction currently holding (or in flight to
// receive) an item precedes every request still pending on it, so future
// forward lists place the holder first and never invert an existing wait
// (paper §3.3: "the precedence graph is consistent with the lock granting
// order"). The edge is skipped, and false returned, when the reverse order
// is already established — that situation is a genuine cross-window
// deadlock, left to the wait-for-graph detector.
func (g *Graph) Constrain(a, b ids.Txn) bool {
	if a == b {
		return false
	}
	na, nb := g.nodes[a], g.nodes[b]
	if g.reaches(nb, na) {
		return false
	}
	if na == nil {
		na = g.node(a)
	}
	if nb == nil {
		nb = g.node(b)
	}
	for _, m := range na.out {
		if m == nb {
			return true
		}
	}
	na.out = append(na.out, nb)
	nb.in = append(nb.in, na)
	return true
}

// node files a node for t, which has none, taking it from the free list
// when it can.
func (g *Graph) node(t ids.Txn) *node {
	var n *node
	if last := len(g.free) - 1; last >= 0 {
		n, g.free = g.free[last], g.free[:last]
	} else {
		n = new(node)
	}
	n.id = t
	g.nodes[t] = n
	return n
}

// Remove deletes a finished (committed or aborted) transaction and all its
// constraints. Constraints through a finished transaction no longer bind:
// its data hand-offs have already happened.
func (g *Graph) Remove(t ids.Txn) {
	n := g.nodes[t]
	if n == nil {
		return
	}
	for _, m := range n.out {
		m.in = drop(m.in, n)
		g.retire(m)
	}
	for _, m := range n.in {
		m.out = drop(m.out, n)
		g.retire(m)
	}
	n.out, n.in = n.out[:0], n.in[:0]
	g.retire(n)
}

// drop removes n from the set s.
func drop(s []*node, n *node) []*node {
	for i, m := range s {
		if m == n {
			last := len(s) - 1
			s[i] = s[last]
			return s[:last]
		}
	}
	return s
}

// retire recycles n once its last constraint is gone.
func (g *Graph) retire(n *node) {
	if len(n.out) == 0 && len(n.in) == 0 {
		delete(g.nodes, n.id)
		n.stamp = 0
		g.free = append(g.free, n)
	}
}

// Reaches reports whether b is reachable from a along precedence edges.
func (g *Graph) Reaches(a, b ids.Txn) bool {
	return a != b && g.reaches(g.nodes[a], g.nodes[b])
}

// reaches is Reaches on nodes; a transaction without one has no edge.
func (g *Graph) reaches(a, b *node) bool {
	if a == nil || b == nil || len(a.out) == 0 || len(b.in) == 0 {
		return false // no path leaves a, or none enters b
	}
	g.mark(a)
	return b.stamp == g.gen
}

// mark stamps every node reachable from start with a fresh g.gen. start
// itself stays unstamped: the graph is acyclic.
func (g *Graph) mark(start *node) {
	if g.gen++; g.gen == 0 {
		// The stamp wrapped: forget every mark of the last 2^32-1 traversals.
		//repolint:allow maprange -- resets every node alike, order-free
		for _, n := range g.nodes {
			n.stamp = 0
		}
		g.gen = 1
	}
	// Plain DFS; windows are small and the graph holds only active txns.
	g.stack = append(g.stack[:0], start)
	for len(g.stack) > 0 {
		n := g.stack[len(g.stack)-1]
		g.stack = g.stack[:len(g.stack)-1]
		for _, m := range n.out {
			if m.stamp != g.gen {
				m.stamp = g.gen
				g.stack = append(g.stack, m)
			}
		}
	}
}

// Order arranges pending so that every pair already related in the graph
// keeps its established order, breaking ties by position in pending (FIFO
// arrival, the paper's default rule — which also acts as the aging
// mechanism: old requests never migrate backwards on ties).
//
// The input is not modified. Order always succeeds because reachability in
// a DAG restricted to any subset is a partial order.
func (g *Graph) Order(pending []ids.Txn) []ids.Txn {
	return g.order(pending, nil)
}

// OrderGrouped is like Order but, where the constraints allow either
// order, schedules shared (read) requests ahead of exclusive ones so that
// maximal parallel read groups form at the head of the forward list —
// one of the paper's §3.2 "ordering rules to improve performance
// further", and the one that makes the shared-copy fan-out and the MR1W
// overlap actually fire. write[i] reports whether pending[i] requests
// exclusive access; remaining ties stay FIFO.
func (g *Graph) OrderGrouped(pending []ids.Txn, write []bool) []ids.Txn {
	if len(write) != len(pending) {
		panic("prec: OrderGrouped write slice length mismatch")
	}
	return g.order(pending, write)
}

func (g *Graph) order(pending []ids.Txn, write []bool) []ids.Txn {
	n := len(pending)
	if n <= 1 {
		return append([]ids.Txn(nil), pending...)
	}
	// Build the induced constraint edges by reachability: one traversal
	// per constrained pending transaction, then a look at the others' stamps.
	g.pend, g.adj, g.adjEnd, g.indeg = g.pend[:0], g.adj[:0], append(g.adjEnd[:0], 0), g.indeg[:0]
	for _, t := range pending {
		g.pend = append(g.pend, g.nodes[t])
		g.indeg = append(g.indeg, 0)
	}
	for i, a := range g.pend {
		if a != nil && len(a.out) > 0 {
			g.mark(a)
			for j, b := range g.pend {
				if j != i && b != nil && b.stamp == g.gen {
					g.adj = append(g.adj, j)
					g.indeg[j]++
				}
			}
		}
		g.adjEnd = append(g.adjEnd, len(g.adj))
	}
	// Kahn's algorithm. Among available transactions prefer readers when
	// grouping is requested, then the smallest original index, keeping
	// the output deterministic and (within each class) FIFO.
	out := make([]ids.Txn, 0, n)
	for len(out) < n {
		pick := -1
		for i := 0; i < n; i++ {
			if g.indeg[i] != 0 {
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
		g.indeg[pick] = -1
		out = append(out, pending[pick])
		for _, j := range g.adj[g.adjEnd[pick]:g.adjEnd[pick+1]] {
			g.indeg[j]--
		}
	}
	return out
}

// Size returns the number of transactions with at least one constraint.
func (g *Graph) Size() int { return len(g.nodes) }

// HasCycle reports whether the graph contains a cycle. Constrain
// maintains acyclicity, so this is an invariant check for tests: an edge
// whose head reaches back to its tail.
func (g *Graph) HasCycle() bool {
	//repolint:allow maprange -- boolean cycle test, order-free
	for _, n := range g.nodes {
		for _, m := range n.out {
			if g.mark(m); n.stamp == g.gen {
				return true
			}
		}
	}
	return false
}
