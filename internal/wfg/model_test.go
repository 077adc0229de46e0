package wfg

import (
	"sort"

	"repro/internal/ids"
)

// The map-of-maps wait-for graph this package shipped before the
// pointer-linked representation, kept verbatim as the reference model the
// differential tests and FuzzWFGModel compare the product against.

// model is a directed wait-for multigraph: an edge a -> b means
// transaction a waits for transaction b for at least one reason.
// The zero value is not usable; call New.
type model struct {
	out map[ids.Txn]map[ids.Txn]int
	in  map[ids.Txn]map[ids.Txn]int
}

// newModel returns an empty wait-for graph.
func newModel() *model {
	return &model{
		out: make(map[ids.Txn]map[ids.Txn]int),
		in:  make(map[ids.Txn]map[ids.Txn]int),
	}
}

// AddEdge records one more reason that a waits for b. Self-edges are
// ignored.
func (g *model) AddEdge(a, b ids.Txn) {
	if a == b {
		return
	}
	modelBump(g.out, a, b, 1)
	modelBump(g.in, b, a, 1)
}

// RemoveEdge removes one reason that a waits for b; the edge disappears
// when its count reaches zero. Removing an absent edge is a no-op.
func (g *model) RemoveEdge(a, b ids.Txn) {
	if g.count(a, b) == 0 {
		return
	}
	modelBump(g.out, a, b, -1)
	modelBump(g.in, b, a, -1)
}

func modelBump(m map[ids.Txn]map[ids.Txn]int, k, v ids.Txn, d int) {
	s := m[k]
	if s == nil {
		s = make(map[ids.Txn]int)
		m[k] = s
	}
	s[v] += d
	if s[v] <= 0 {
		delete(s, v)
		if len(s) == 0 {
			delete(m, k)
		}
	}
}

func (g *model) count(a, b ids.Txn) int { return g.out[a][b] }

// RemoveTxn deletes every edge incident to t, regardless of count (the
// transaction committed or aborted).
func (g *model) RemoveTxn(t ids.Txn) {
	//repolint:allow maprange -- commutative deletes, order-free
	for b := range g.out[t] {
		modelBump(g.in, b, t, -g.in[b][t])
	}
	delete(g.out, t)
	//repolint:allow maprange -- commutative deletes, order-free
	for a := range g.in[t] {
		modelBump(g.out, a, t, -g.out[a][t])
	}
	delete(g.in, t)
}

// Edges returns the number of distinct waiting pairs.
func (g *model) Edges() int {
	n := 0
	//repolint:allow maprange -- summing counts, order-free
	for _, s := range g.out {
		n += len(s)
	}
	return n
}

// WaitsOf returns a sorted copy of a's current distinct wait set.
func (g *model) WaitsOf(a ids.Txn) []ids.Txn {
	s := g.out[a]
	out := make([]ids.Txn, 0, len(s))
	//repolint:allow maprange -- keys are sorted before use
	for b := range s {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CycleThrough returns a cycle containing start, if one exists, as a list
// of transactions [start, ..., last] where last waits for start. It
// returns nil when start is not on any cycle.
//
// Detection runs a DFS from start restricted to nodes reachable from it,
// which matches the paper's "detection initiated when a lock cannot be
// granted": only cycles through the newly blocked transaction can be new.
func (g *model) CycleThrough(start ids.Txn) []ids.Txn {
	type frame struct {
		node ids.Txn
		next []ids.Txn // unexplored successors, sorted for determinism
	}
	succ := func(n ids.Txn) []ids.Txn { return g.WaitsOf(n) }
	visited := map[ids.Txn]bool{start: true}
	stack := []frame{{start, succ(start)}}
	path := []ids.Txn{start}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if len(top.next) == 0 {
			stack = stack[:len(stack)-1]
			path = path[:len(path)-1]
			continue
		}
		n := top.next[0]
		top.next = top.next[1:]
		if n == start {
			out := make([]ids.Txn, len(path))
			copy(out, path)
			return out
		}
		if visited[n] {
			continue
		}
		visited[n] = true
		stack = append(stack, frame{n, succ(n)})
		path = append(path, n)
	}
	return nil
}

// HasCycle reports whether any cycle exists in the whole graph, used by
// tests and the live system's validator.
func (g *model) HasCycle() bool {
	color := map[ids.Txn]int{} // 0 white, 1 gray, 2 black
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
