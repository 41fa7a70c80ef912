package graph

import (
	"sync/atomic"

	"indigo/internal/guard"
	"indigo/internal/par"
	"indigo/internal/trace"
)

// statsPollStride is how many vertices (or BFS dequeues) each stats
// traversal processes between guard checkpoints: coarse enough to be
// free, fine enough that a canceled request stops within microseconds.
const statsPollStride = 4096

// statsParCutoff is the work size (n + m) below which the serial stats
// path is used outright; pool dispatch and worklist setup only pay for
// themselves on real graphs.
const statsParCutoff = 1 << 15

// Stats summarizes the degree and distance structure of an input graph.
// The fields mirror paper Tables 4 and 5: vertex/edge counts, size,
// average and maximum degree, the fraction of vertices with degree >= 32
// and >= 512, and an estimated diameter.
type Stats struct {
	Name      string
	Vertices  int32
	Edges     int64 // directed edges (2x undirected)
	SizeMB    float64
	AvgDegree float64
	MaxDegree int64
	PctDeg32  float64 // percent of vertices with degree >= 32
	PctDeg512 float64 // percent of vertices with degree >= 512
	Diameter  int32   // lower-bound estimate via double-sweep BFS
}

// StatsOptions configures ComputeStatsOpts. The zero value means: the
// parallel scan and BFS sweeps for graphs past a size cutoff, the
// serial reference path below it, with par.Threads() workers and no
// guard.
type StatsOptions struct {
	// Serial forces the serial reference path.
	Serial bool
	// Threads is the worker count for the parallel path; <= 0 means
	// par.Threads().
	Threads int
	// Guard is polled through the scan and both BFS sweeps; nil is free.
	Guard *guard.Token
	// Trace, when live, records the computation as an ingest.stats span;
	// the zero value is free.
	Trace trace.Ctx
}

// Stats returns the Table 4/5 summary of g, computed once and cached
// on the graph: the advisor, store cell signatures, and report tables
// all consume the same signature, and the diameter estimate inside it
// is two full BFS traversals.
func (g *Graph) Stats() Stats { return g.StatsGuarded(nil) }

// StatsGuarded is Stats under cooperative cancellation: gd (nil is
// free) is polled every few thousand vertices through the degree scan
// and both diameter BFS sweeps, so a request deadline or client
// disconnect stops the traversals mid-flight instead of after the
// fact. A completed computation is cached on the graph exactly like
// Stats; an aborted one caches nothing.
func (g *Graph) StatsGuarded(gd *guard.Token) Stats {
	if p := g.cachedStats.Load(); p != nil {
		return *p
	}
	s := ComputeStatsOpts(g, StatsOptions{Guard: gd})
	g.cachedStats.Store(&s)
	return s
}

// ComputeStats derives the Table 4/5 summary of g. It is the historical
// entry point; it now serves the cached copy (the graph is immutable).
func ComputeStats(g *Graph) Stats {
	return g.Stats()
}

// ComputeStatsOpts computes the summary with explicit options and
// without touching the graph's cache, so benchmarks and differential
// tests can compare the serial and parallel paths on one graph. Both
// paths produce identical Stats: the level-synchronous parallel BFS
// computes the same level array as the serial queue BFS, and both
// resolve the farthest vertex as the smallest id at the maximum level.
func ComputeStatsOpts(g *Graph, o StatsOptions) Stats {
	sp := startIngest(o.Trace, "ingest.stats", g.Name)
	defer sp.End()
	if o.Serial || int64(g.N)+g.M() < statsParCutoff {
		return computeStatsSerial(g, o.Guard)
	}
	t := o.Threads
	if t <= 0 {
		t = par.Threads()
	}
	return computeStatsPar(g, t, o.Guard)
}

func statsHeader(g *Graph) Stats {
	return Stats{
		Name:     g.Name,
		Vertices: g.N,
		Edges:    g.M(),
		SizeMB:   g.SizeMB(),
	}
}

func computeStatsSerial(g *Graph, gd *guard.Token) Stats {
	s := statsHeader(g)
	if g.N == 0 {
		return s
	}
	var ge32, ge512 int64
	start := int32(0) // argmax of degree, threaded into the diameter sweep
	for v := int32(0); v < g.N; v++ {
		if v%statsPollStride == 0 {
			gd.Poll()
		}
		d := g.Degree(v)
		if d > s.MaxDegree {
			s.MaxDegree = d
			start = v
		}
		if d >= 32 {
			ge32++
		}
		if d >= 512 {
			ge512++
		}
	}
	s.AvgDegree = float64(g.M()) / float64(g.N)
	s.PctDeg32 = 100 * float64(ge32) / float64(g.N)
	s.PctDeg512 = 100 * float64(ge512) / float64(g.N)
	s.Diameter = estimateDiameterFrom(g, start, nil, gd)
	return s
}

// degPartial is one worker's running (max degree, first argmax) over
// its contiguous Static range, padded off its neighbors' cache lines.
type degPartial struct {
	maxDeg int64
	argmax int32
	_      [52]byte
}

func computeStatsPar(g *Graph, t int, gd *guard.Token) Stats {
	s := statsHeader(g)
	if g.N == 0 {
		return s
	}
	pool := par.AcquirePool(t)
	defer par.ReleasePool(pool)
	ex := pool.Guarded(gd)
	n := int64(g.N)
	idx := g.NbrIdx

	// The >=32 / >=512 counts ride one clause reduction, packed into a
	// single int64 (counts are bounded by MaxReadVertices < 2^31, so the
	// halves cannot carry into each other).
	var red par.Reducer
	packed := red.Int64(ex, n, par.Static, par.RedClause, func(v int64) int64 {
		d := idx[v+1] - idx[v]
		var c int64
		if d >= 32 {
			c++
		}
		if d >= 512 {
			c += 1 << 32
		}
		return c
	})
	ge32 := packed & 0xffffffff
	ge512 := packed >> 32

	// Max degree and its first argmax: per-worker partials over Static's
	// contiguous ascending ranges, combined in tid order — which is
	// exactly the serial scan's first-max tie-break.
	partials := make([]degPartial, t)
	ex.ForTID(n, par.Static, func(tid int, v int64) {
		d := idx[v+1] - idx[v]
		if d > partials[tid].maxDeg {
			partials[tid].maxDeg = d
			partials[tid].argmax = int32(v)
		}
	})
	start := int32(0)
	for tid := range partials {
		if partials[tid].maxDeg > s.MaxDegree {
			s.MaxDegree = partials[tid].maxDeg
			start = partials[tid].argmax
		}
	}

	s.AvgDegree = float64(g.M()) / float64(g.N)
	s.PctDeg32 = 100 * float64(ge32) / float64(g.N)
	s.PctDeg512 = 100 * float64(ge512) / float64(g.N)
	s.Diameter = estimateDiameterFrom(g, start, ex, gd)
	return s
}

// EstimateDiameter returns a lower bound on the diameter of the largest
// connected component using the classic double-sweep heuristic: BFS from
// an arbitrary vertex, then BFS again from the farthest vertex found.
// For the paper's graph classes (grids, roads, scale-free) the double
// sweep is within a small factor of the true diameter.
func EstimateDiameter(g *Graph) int32 { return estimateDiameter(g, nil) }

func estimateDiameter(g *Graph, gd *guard.Token) int32 {
	if g.N == 0 {
		return 0
	}
	// Start from the highest-degree vertex so we land in the largest
	// component of disconnected inputs.
	start := int32(0)
	var maxDeg int64
	for v := int32(0); v < g.N; v++ {
		if v%statsPollStride == 0 {
			gd.Poll()
		}
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
			start = v
		}
	}
	return estimateDiameterFrom(g, start, nil, gd)
}

// estimateDiameterFrom runs the double sweep from the given start
// vertex (the degree argmax its callers have already computed — the
// scan is not repeated here). A nil executor selects the serial BFS.
func estimateDiameterFrom(g *Graph, start int32, ex par.Executor, gd *guard.Token) int32 {
	if g.N == 0 {
		return 0
	}
	level := make([]int32, g.N)
	if ex == nil {
		far, _ := bfsFarthestSerial(g, start, level, gd)
		_, ecc := bfsFarthestSerial(g, far, level, gd)
		return ecc
	}
	gd.Charge(3 * 4 * int64(g.N)) // level array + two frontier worklists
	t := ex.Width()
	cur := par.NewWorklistTID(int64(g.N), t)
	next := par.NewWorklistTID(int64(g.N), t)
	far, _ := bfsFarthestPar(g, start, level, cur, next, ex, gd)
	_, ecc := bfsFarthestPar(g, far, level, cur, next, ex, gd)
	return ecc
}

// bfsFarthestSerial fills level[] by BFS from src (head-index queue —
// no O(n) re-slicing of the front) and returns the farthest vertex.
func bfsFarthestSerial(g *Graph, src int32, level []int32, gd *guard.Token) (far int32, dist int32) {
	for i := range level {
		level[i] = -1
	}
	level[src] = 0
	queue := make([]int32, 1, g.N)
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		if head%statsPollStride == 0 {
			gd.Poll()
		}
		v := queue[head]
		lv := level[v] + 1
		for _, u := range g.Neighbors(v) {
			if level[u] < 0 {
				level[u] = lv
				queue = append(queue, u)
			}
		}
	}
	return farthestInLevels(level, src, gd)
}

// bfsFarthestPar is the level-synchronous parallel BFS: each round
// expands the current frontier, claiming vertices with a CAS on the
// level array (so every vertex is pushed exactly once) into per-worker
// worklist buffers. Levels are deterministic — identical to the serial
// BFS — because round d can only assign level d.
func bfsFarthestPar(g *Graph, src int32, level []int32, cur, next *par.Worklist, ex par.Executor, gd *guard.Token) (far int32, dist int32) {
	ex.For(int64(len(level)), par.Static, func(i int64) { level[i] = -1 })
	cur.Reset()
	next.Reset()
	level[src] = 0
	cur.Push(src)
	for depth := int32(1); cur.Size() > 0; depth++ {
		d := depth
		ex.ForTID(cur.Size(), par.Static, func(tid int, i int64) {
			v := cur.Get(i)
			for _, u := range g.Neighbors(v) {
				// Plain load before the CAS: only ~n of the ~2m neighbor
				// visits can win a vertex, so the check skips the locked
				// op on the vast majority. A stale -1 read just falls
				// through to the CAS, which decides correctness.
				if atomic.LoadInt32(&level[u]) == -1 &&
					atomic.CompareAndSwapInt32(&level[u], -1, d) {
					next.PushTID(tid, u)
				}
			}
		})
		next.Flush()
		cur.Swap(next)
		next.Reset()
	}
	return farthestInLevels(level, src, gd)
}

// farthestInLevels resolves the double sweep's "farthest vertex":
// the maximum level, tie-broken to the smallest vertex id (the
// ascending strictly-greater scan yields that automatically). Both
// BFS paths share it, so their (far, dist) results are identical.
func farthestInLevels(level []int32, src int32, gd *guard.Token) (far int32, dist int32) {
	far, dist = src, 0
	for v := range level {
		if v%statsPollStride == 0 {
			gd.Poll()
		}
		if level[v] > dist {
			dist = level[v]
			far = int32(v)
		}
	}
	return far, dist
}

// DegreeHistogram returns counts of vertices whose degree falls in
// power-of-two buckets: bucket k counts degrees in [2^k, 2^(k+1)), with
// bucket 0 counting degrees 0 and 1. Used by reports and generator tests.
func DegreeHistogram(g *Graph) []int64 {
	var hist []int64
	for v := int32(0); v < g.N; v++ {
		d := g.Degree(v)
		k := 0
		for d > 1 {
			d >>= 1
			k++
		}
		for len(hist) <= k {
			hist = append(hist, 0)
		}
		hist[k]++
	}
	return hist
}
