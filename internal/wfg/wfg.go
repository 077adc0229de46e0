// Package wfg implements the wait-for graph used for deadlock detection.
//
// In the paper's s-2PL implementation "deadlocks are detected by computing
// wait-for-graphs and aborting the transactions necessary to remove the
// deadlocks", with detection initiated whenever a lock cannot be granted
// (paper §4). The g-2PL engine reuses the same structure for its residual
// cross-window deadlocks (paper §3.3).
//
// Edges are counted: the same logical pair (a waits for b) can arise from
// several items simultaneously (a pending request on one item plus
// forward-list precedence on another), and removing one cause must not
// erase the others. AddEdge increments, RemoveEdge decrements, and the
// pair disappears only at count zero.
//
// A transaction with an edge is a node reached through one map lookup per
// API call; adjacency is slices of node pointers, nodes are recycled, and
// the cycle search marks nodes with a generation stamp on a graph-owned
// stack, so in steady state nothing here allocates except a found cycle
// and WaitsOf's copy. A Graph is not safe for concurrent use: each
// protocol core owns one and runs single-threaded behind its site.
package wfg

import (
	"slices"

	"repro/internal/ids"
)

// Graph is a directed wait-for multigraph: an edge a -> b means
// transaction a waits for transaction b for at least one reason.
// The zero value is not usable; call New.
type Graph struct {
	nodes map[ids.Txn]*node // exactly the transactions with an edge
	free  []*node           // recycled nodes: no edges, stamp 0
	edges int               // distinct waiting pairs
	gen   uint32            // stamp of the latest search; node.stamp == gen means visited
	stack []frame           // the search's DFS stack, which is also its path
}

// node is one transaction's adjacency.
type node struct {
	id    ids.Txn
	out   []edge  // ascending by to.id: the order the cycle search walks
	in    []*node // distinct sources, unordered
	stamp uint32
}

// edge is one waiting pair with the number of reasons behind it.
type edge struct {
	to *node
	n  int
}

// frame is one DFS level: a node and its next unexplored successor.
type frame struct {
	n    *node
	next int
}

// New returns an empty wait-for graph.
func New() *Graph {
	return &Graph{nodes: make(map[ids.Txn]*node)}
}

// node returns t's node, taking one from the free list if t has none.
func (g *Graph) node(t ids.Txn) *node {
	n := g.nodes[t]
	if n == nil {
		if last := len(g.free) - 1; last >= 0 {
			n, g.free = g.free[last], g.free[:last]
		} else {
			n = new(node)
		}
		n.id = t
		g.nodes[t] = n
	}
	return n
}

// retire recycles n once its last edge is gone.
func (g *Graph) retire(n *node) {
	if len(n.out) == 0 && len(n.in) == 0 {
		delete(g.nodes, n.id)
		n.stamp = 0
		g.free = append(g.free, n)
	}
}

// find returns the position of the edge to b in n.out, or where it would
// be inserted.
func (n *node) find(b ids.Txn) (int, bool) {
	i := 0
	for i < len(n.out) && n.out[i].to.id < b {
		i++
	}
	return i, i < len(n.out) && n.out[i].to.id == b
}

// unlink drops the pair n -> n.out[i].to whatever its count, leaving both
// ends in the graph.
func (g *Graph) unlink(n *node, i int) *node {
	to := n.out[i].to
	n.out = slices.Delete(n.out, i, i+1)
	for j, src := range to.in {
		if src == n {
			last := len(to.in) - 1
			to.in[j] = to.in[last]
			to.in = to.in[:last]
			break
		}
	}
	g.edges--
	return to
}

// AddEdge records one more reason that a waits for b. Self-edges are
// ignored.
func (g *Graph) AddEdge(a, b ids.Txn) {
	if a == b {
		return
	}
	na := g.node(a)
	i, ok := na.find(b)
	if ok {
		na.out[i].n++
		return
	}
	nb := g.node(b)
	na.out = slices.Insert(na.out, i, edge{to: nb, n: 1})
	nb.in = append(nb.in, na)
	g.edges++
}

// RemoveEdge removes one reason that a waits for b; the edge disappears
// when its count reaches zero. Removing an absent edge is a no-op.
func (g *Graph) RemoveEdge(a, b ids.Txn) {
	na := g.nodes[a]
	if na == nil {
		return
	}
	i, ok := na.find(b)
	if !ok {
		return
	}
	if na.out[i].n--; na.out[i].n > 0 {
		return
	}
	g.retire(g.unlink(na, i))
	g.retire(na)
}

// RemoveTxn deletes every edge incident to t, regardless of count (the
// transaction committed or aborted).
func (g *Graph) RemoveTxn(t ids.Txn) {
	n := g.nodes[t]
	if n == nil {
		return
	}
	for len(n.out) > 0 {
		g.retire(g.unlink(n, len(n.out)-1))
	}
	for len(n.in) > 0 {
		src := n.in[0]
		i, _ := src.find(t)
		g.unlink(src, i)
		g.retire(src)
	}
	g.retire(n)
}

// Edges returns the number of distinct waiting pairs.
func (g *Graph) Edges() int { return g.edges }

// WaitsOf returns a sorted copy of a's current distinct wait set.
func (g *Graph) WaitsOf(a ids.Txn) []ids.Txn {
	var out []edge
	if n := g.nodes[a]; n != nil {
		out = n.out
	}
	waits := make([]ids.Txn, len(out))
	for i, e := range out {
		waits[i] = e.to.id
	}
	return waits
}

// CycleThrough returns a cycle containing start, if one exists, as a list
// of transactions [start, ..., last] where last waits for start. It
// returns nil when start is not on any cycle.
//
// Detection runs a DFS from start restricted to nodes reachable from it,
// which matches the paper's "detection initiated when a lock cannot be
// granted": only cycles through the newly blocked transaction can be new.
// Successors are tried in ascending transaction id, so the cycle found —
// and with it the victim a policy picks from it — is a function of the
// edge set alone.
func (g *Graph) CycleThrough(start ids.Txn) []ids.Txn { return g.AppendCycle(nil, start) }

// AppendCycle appends the cycle CycleThrough would return to dst and
// returns the extended slice; dst comes back unchanged when start is on
// no cycle. A caller that keeps a scratch slice finds deadlocks without
// allocating.
func (g *Graph) AppendCycle(dst []ids.Txn, start ids.Txn) []ids.Txn {
	n := g.nodes[start]
	if n == nil || !g.search(n) {
		return dst
	}
	dst = slices.Grow(dst, len(g.stack))
	for _, f := range g.stack {
		dst = append(dst, f.n.id)
	}
	return dst
}

// search runs the DFS and reports whether start is on a cycle; if so the
// path [start, ..., last] is left on g.stack.
func (g *Graph) search(start *node) bool {
	if len(start.in) == 0 || len(start.out) == 0 {
		return false // nothing waits for it, or it waits for nothing
	}
	if g.gen++; g.gen == 0 {
		// The stamp wrapped: forget every mark of the last 2^32-1 searches.
		//repolint:allow maprange -- resets every node alike, order-free
		for _, n := range g.nodes {
			n.stamp = 0
		}
		g.gen = 1
	}
	start.stamp = g.gen
	g.stack = append(g.stack[:0], frame{n: start})
	for len(g.stack) > 0 {
		top := &g.stack[len(g.stack)-1]
		if top.next == len(top.n.out) {
			g.stack = g.stack[:len(g.stack)-1]
			continue
		}
		n := top.n.out[top.next].to
		top.next++
		if n == start {
			return true
		}
		if n.stamp != g.gen {
			n.stamp = g.gen
			g.stack = append(g.stack, frame{n: n})
		}
	}
	return false
}

// HasCycle reports whether any cycle exists in the whole graph, used by
// tests: some node is on a cycle through itself.
func (g *Graph) HasCycle() bool {
	//repolint:allow maprange -- boolean cycle test, order-free
	for _, n := range g.nodes {
		if g.search(n) {
			return true
		}
	}
	return false
}
