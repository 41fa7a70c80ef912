package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"indigo/internal/guard"
	"indigo/internal/par"
	"indigo/internal/trace"
)

// Builder accumulates undirected weighted edges and produces a Graph.
// Duplicate edges are collapsed (keeping the smallest weight) and
// self-loops are dropped, matching the conventions of the paper's input
// preparation: each undirected edge becomes two directed edges.
type Builder struct {
	name string
	n    int32
	src  []int32
	dst  []int32
	w    []int32
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(name string, n int32) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph.NewBuilder: negative vertex count %d", n))
	}
	return &Builder{name: name, n: n}
}

// AddEdge records the undirected edge {u, v} with the given weight.
// Self-loops are ignored. Vertices must be in range.
func (b *Builder) AddEdge(u, v, weight int32) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph.Builder.AddEdge: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
	b.w = append(b.w, weight)
}

// NumEdgesAdded returns the number of AddEdge calls retained so far
// (before dedup).
func (b *Builder) NumEdgesAdded() int { return len(b.src) }

// BuildOptions configures Build. The zero value means: counting-sort
// construction for inputs past a size cutoff, the serial reference
// build below it, with par.Threads() workers and no guard.
type BuildOptions struct {
	// Serial forces the comparison-sort reference build.
	Serial bool
	// Threads is the worker count for the counting-sort build; <= 0
	// means par.Threads().
	Threads int
	// Guard is polled at region checkpoints and charged for the
	// construction scratch and the graph's arrays; nil is free.
	Guard *guard.Token
	// Trace, when live, records the build as an ingest.build span; the
	// zero value is free.
	Trace trace.Ctx
}

// buildSerialCutoff is the edge count below which the counting-sort
// machinery (histogram, scatter buffer, pool dispatch) costs more than
// the comparison sort it replaces.
const buildSerialCutoff = 1 << 13

// Build produces the CSR+COO graph. The builder may be reused afterwards.
func (b *Builder) Build() *Graph { return b.BuildOpts(BuildOptions{}) }

// BuildOpts is Build with explicit options. The counting-sort and
// serial paths produce bit-identical graphs (proven by the differential
// tests in ingest_test.go): scatter order inside a vertex bucket is
// erased by the per-bucket sort on (neighbor, weight) keys, and
// dedup-keep-first after that sort keeps the minimum weight exactly as
// the serial sort+dedup does.
func (b *Builder) BuildOpts(o BuildOptions) *Graph {
	sp := o.Trace.Start("ingest.build")
	defer sp.End()
	if o.Serial || len(b.src) < buildSerialCutoff {
		return b.buildSerial()
	}
	t := o.Threads
	if t <= 0 {
		t = par.Threads()
	}
	return b.buildParallel(t, o.Guard)
}

// buildSerial is the reference build: symmetrize, comparison-sort,
// dedup. O(m log m) with a closure compare; kept verbatim as the
// semantic baseline the counting-sort path is tested against.
func (b *Builder) buildSerial() *Graph {
	type dedge struct {
		u, v, w int32
	}
	// Symmetrize: both directions of every undirected edge.
	edges := make([]dedge, 0, 2*len(b.src))
	for i := range b.src {
		edges = append(edges,
			dedge{b.src[i], b.dst[i], b.w[i]},
			dedge{b.dst[i], b.src[i], b.w[i]})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].u != edges[j].u {
			return edges[i].u < edges[j].u
		}
		if edges[i].v != edges[j].v {
			return edges[i].v < edges[j].v
		}
		return edges[i].w < edges[j].w
	})
	// Dedup, keeping the smallest weight per directed edge.
	out := edges[:0]
	for _, e := range edges {
		if len(out) > 0 && out[len(out)-1].u == e.u && out[len(out)-1].v == e.v {
			continue
		}
		out = append(out, e)
	}
	edges = out

	m := int64(len(edges))
	g := &Graph{
		Name:    b.name,
		N:       b.n,
		NbrIdx:  make([]int64, b.n+1),
		NbrList: make([]int32, m),
		Weights: make([]int32, m),
		Src:     make([]int32, m),
		Dst:     make([]int32, m),
	}
	for i, e := range edges {
		g.NbrIdx[e.u+1]++
		g.NbrList[i] = e.v
		g.Weights[i] = e.w
		g.Src[i] = e.u
		g.Dst[i] = e.v
	}
	for v := int32(0); v < b.n; v++ {
		g.NbrIdx[v+1] += g.NbrIdx[v]
	}
	return g
}

// packNbr packs a directed edge's (neighbor, weight) into one sortable
// key: neighbor ascending in the high half, weight in signed-ascending
// order in the low half (the sign-bit flip makes unsigned key order
// equal signed weight order).
func packNbr(v, w int32) uint64 {
	return uint64(uint32(v))<<32 | uint64(uint32(w)^0x80000000)
}

func unpackW(key uint64) int32 { return int32(uint32(key) ^ 0x80000000) }

// buildParallel is the counting-sort CSR construction: degree histogram
// (atomic adds), prefix sum, key scatter (atomic bucket cursors), then
// a per-vertex sort + dedup and a final parallel fill — O(m) work plus
// per-bucket sorts, no global comparison sort. Builder invariants
// guarantee src/dst contain no self-loops and all ids are in range.
func (b *Builder) buildParallel(t int, gd *guard.Token) *Graph {
	k := int64(len(b.src))
	n := int64(b.n)
	src, dst, ws := b.src, b.dst, b.w

	pool := par.AcquirePool(t)
	defer par.ReleasePool(pool)
	ex := pool.Guarded(gd)

	// Construction scratch: bucket cursors, offsets, and the packed-key
	// scatter buffer (16 bytes per directed edge — less than the serial
	// path's 12-byte dedge with both directions materialized the same way).
	gd.Charge(n*8 + (n+1)*8 + 2*k*8)
	cur := make([]int64, n)
	ex.For(k, par.Static, func(i int64) {
		atomic.AddInt64(&cur[src[i]], 1)
		atomic.AddInt64(&cur[dst[i]], 1)
	})
	off := make([]int64, n+1)
	for v := int64(0); v < n; v++ {
		off[v+1] = off[v] + cur[v]
		cur[v] = off[v] // becomes the scatter cursor
	}
	keys := make([]uint64, 2*k)
	ex.For(k, par.Static, func(i int64) {
		u, v, w := src[i], dst[i], ws[i]
		keys[atomic.AddInt64(&cur[u], 1)-1] = packNbr(v, w)
		keys[atomic.AddInt64(&cur[v], 1)-1] = packNbr(u, w)
	})

	// Per-vertex: sort the bucket (erasing scatter order), dedup by
	// neighbor keeping the first = smallest weight. cur[v] becomes the
	// deduped degree.
	ex.For(n, par.Static, func(v int64) {
		bkt := keys[off[v]:off[v+1]]
		slices.Sort(bkt)
		out := 0
		for j := range bkt {
			if out > 0 && bkt[out-1]>>32 == bkt[j]>>32 {
				continue
			}
			bkt[out] = bkt[j]
			out++
		}
		cur[v] = int64(out)
	})

	nbrIdx := make([]int64, n+1)
	for v := int64(0); v < n; v++ {
		nbrIdx[v+1] = nbrIdx[v] + cur[v]
	}
	m := nbrIdx[n]
	gd.Charge((n+1)*8 + m*16)
	g := &Graph{
		Name:    b.name,
		N:       b.n,
		NbrIdx:  nbrIdx,
		NbrList: make([]int32, m),
		Weights: make([]int32, m),
		Src:     make([]int32, m),
		Dst:     make([]int32, m),
	}
	ex.For(n, par.Static, func(v int64) {
		bkt := keys[off[v] : off[v]+cur[v]]
		base := nbrIdx[v]
		for j, key := range bkt {
			nbr := int32(key >> 32)
			g.NbrList[base+int64(j)] = nbr
			g.Weights[base+int64(j)] = unpackW(key)
			g.Src[base+int64(j)] = int32(v)
			g.Dst[base+int64(j)] = nbr
		}
	})
	return g
}

// FromEdges is a convenience constructor: it builds a graph from parallel
// u/v/weight slices.
func FromEdges(name string, n int32, u, v, w []int32) *Graph {
	return FromEdgesOpts(name, n, u, v, w, BuildOptions{})
}

// FromEdgesOpts is FromEdges with explicit build options. Edges are
// validated and self-loops dropped exactly as AddEdge does.
func FromEdgesOpts(name string, n int32, u, v, w []int32, o BuildOptions) *Graph {
	if len(u) != len(v) || len(u) != len(w) {
		panic("graph.FromEdges: slice lengths disagree")
	}
	b := NewBuilder(name, n)
	for i := range u {
		b.AddEdge(u[i], v[i], w[i])
	}
	return b.BuildOpts(o)
}
