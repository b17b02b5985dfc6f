//paralint:deterministic

// Package gap implements the GAP benchmark suite kernels (Beamer et al.)
// as real programs in the repo ISA over synthetic graphs: BFS, PageRank,
// SSSP (Bellman-Ford), Connected Components (label propagation), Triangle
// Counting and Betweenness Centrality (single-source Brandes). These are
// the actual algorithms actually executed in simulated memory, so the
// suite's memory-bound pointer-chasing behaviour — the reason "even a
// small number of checker cores can keep up" in fig. 9 — arises naturally
// rather than being parameterised.
package gap

import (
	"fmt"
	"math/rand"
	"sort"
)

// Graph is a directed graph in CSR form with sorted adjacency lists.
type Graph struct {
	N       int
	Offsets []int64 // length N+1
	Edges   []int64 // length M, sorted within each vertex
}

// M returns the edge count.
func (g *Graph) M() int { return len(g.Edges) }

// Degree returns vertex v's out-degree.
func (g *Graph) Degree(v int) int64 { return g.Offsets[v+1] - g.Offsets[v] }

// Neighbors returns v's adjacency slice.
func (g *Graph) Neighbors(v int) []int64 {
	return g.Edges[g.Offsets[v]:g.Offsets[v+1]]
}

// Validate checks CSR structural invariants.
func (g *Graph) Validate() error {
	if len(g.Offsets) != g.N+1 {
		return fmt.Errorf("gap: offsets length %d for %d vertices", len(g.Offsets), g.N)
	}
	if g.Offsets[0] != 0 || g.Offsets[g.N] != int64(len(g.Edges)) {
		return fmt.Errorf("gap: offset bounds broken")
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			return fmt.Errorf("gap: offsets not monotone at %d", v)
		}
		adj := g.Neighbors(v)
		for i, u := range adj {
			if u < 0 || u >= int64(g.N) {
				return fmt.Errorf("gap: edge %d->%d out of range", v, u)
			}
			if i > 0 && adj[i-1] > u {
				return fmt.Errorf("gap: adjacency of %d not sorted", v)
			}
		}
	}
	return nil
}

// build assembles a CSR graph from an adjacency map, deduplicating and
// sorting, and symmetrising when undirected.
func build(n int, adj [][]int64, undirected bool) *Graph {
	if undirected {
		sym := make([][]int64, n)
		for v := range adj {
			for _, u := range adj[v] {
				sym[v] = append(sym[v], u)
				sym[int(u)] = append(sym[int(u)], int64(v))
			}
		}
		adj = sym
	}
	g := &Graph{N: n, Offsets: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		lst := adj[v]
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		dedup := lst[:0]
		var prev int64 = -1
		for _, u := range lst {
			if u != prev && u != int64(v) {
				dedup = append(dedup, u)
				prev = u
			}
		}
		g.Edges = append(g.Edges, dedup...)
		g.Offsets[v+1] = int64(len(g.Edges))
	}
	return g
}

// Uniform generates an undirected graph with n vertices and roughly
// n*degree/2 distinct edges placed uniformly at random.
func Uniform(n, degree int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int64, n)
	for v := 0; v < n; v++ {
		for d := 0; d < degree/2+1; d++ {
			adj[v] = append(adj[v], int64(rng.Intn(n)))
		}
	}
	return build(n, adj, true)
}

// Kronecker generates a skewed, power-law-ish undirected graph in the
// style of the Graph500/GAP generator: edges are placed by recursively
// descending a 2x2 probability matrix, concentrating edges on low-ID
// hub vertices.
func Kronecker(scale, edgeFactor int, seed int64) *Graph {
	n := 1 << scale
	rng := rand.New(rand.NewSource(seed))
	adj := make([][]int64, n)
	const a, b, c = 0.57, 0.19, 0.19
	for e := 0; e < n*edgeFactor; e++ {
		var u, v int64
		for bit := 0; bit < scale; bit++ {
			r := rng.Float64()
			switch {
			case r < a: // upper-left
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		adj[u] = append(adj[u], v)
	}
	return build(n, adj, true)
}

// --- reference implementations (used by tests to verify the assembly
// kernels' results bit-for-bit) ---

// RefBFS returns the parent array of a BFS from src (-1 = unreached),
// visiting neighbours in adjacency order.
func RefBFS(g *Graph, src int) []int64 {
	parent := make([]int64, g.N)
	for i := range parent {
		parent[i] = -1
	}
	parent[src] = int64(src)
	queue := []int64{int64(src)}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(int(v)) {
			if parent[u] == -1 {
				parent[u] = v
				queue = append(queue, u)
			}
		}
	}
	return parent
}

// RefPageRank runs iters iterations of push-style PageRank with damping
// 0.85, in exactly the operation order the assembly kernel uses, so the
// float64 results match bit-for-bit.
func RefPageRank(g *Graph, iters int) []float64 {
	n := g.N
	score := make([]float64, n)
	next := make([]float64, n)
	initial := 1.0 / float64(n)
	for i := range score {
		score[i] = initial
	}
	base := 0.15 / float64(n)
	for it := 0; it < iters; it++ {
		for v := 0; v < n; v++ {
			deg := g.Degree(v)
			if deg == 0 {
				continue
			}
			contrib := score[v] / float64(deg)
			for _, u := range g.Neighbors(v) {
				next[u] += contrib
			}
		}
		for v := 0; v < n; v++ {
			score[v] = base + float64(0.85*next[v])
			next[v] = 0
		}
	}
	return score
}

// RefSSSP returns Bellman-Ford distances from src with the kernel's
// synthetic edge weights w(v,u) = ((v XOR u) AND 15) + 1.
func RefSSSP(g *Graph, src int) []int64 {
	const inf = int64(1) << 60
	dist := make([]int64, g.N)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for round := 0; round < g.N; round++ {
		changed := false
		for v := 0; v < g.N; v++ {
			if dist[v] == inf {
				continue
			}
			for _, u := range g.Neighbors(v) {
				w := (int64(v)^u)&15 + 1
				if dist[v]+w < dist[u] {
					dist[u] = dist[v] + w
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return dist
}

// RefCC returns connected-component labels by min-label propagation.
func RefCC(g *Graph) []int64 {
	comp := make([]int64, g.N)
	for i := range comp {
		comp[i] = int64(i)
	}
	for {
		changed := false
		for v := 0; v < g.N; v++ {
			for _, u := range g.Neighbors(v) {
				if comp[u] < comp[v] {
					comp[v] = comp[u]
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	return comp
}

// RefTC counts triangles: for each v, each neighbour u > v, the size of
// the sorted-intersection of their adjacency lists restricted to w > u.
func RefTC(g *Graph) int64 {
	var count int64
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if u <= int64(v) {
				continue
			}
			a, b := g.Neighbors(v), g.Neighbors(int(u))
			i, j := 0, 0
			for i < len(a) && j < len(b) {
				switch {
				case a[i] < b[j]:
					i++
				case a[i] > b[j]:
					j++
				default:
					if a[i] > u {
						count++
					}
					i++
					j++
				}
			}
		}
	}
	return count
}

// RefBC returns single-source Brandes betweenness contributions from src,
// in the kernel's operation order (BFS order forward, reverse order
// backward) so float64 results match exactly.
func RefBC(g *Graph, src int) []float64 {
	n := g.N
	dist := make([]int64, n)
	sigma := make([]float64, n)
	delta := make([]float64, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	sigma[src] = 1
	order := []int64{int64(src)}
	for head := 0; head < len(order); head++ {
		v := order[head]
		for _, u := range g.Neighbors(int(v)) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				order = append(order, u)
			}
			if dist[u] == dist[v]+1 {
				sigma[u] += sigma[v]
			}
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		w := order[i]
		for _, u := range g.Neighbors(int(w)) {
			if dist[u] == dist[w]+1 {
				delta[w] += float64(sigma[w] / sigma[u] * (1 + delta[u]))
			}
		}
	}
	return delta
}
