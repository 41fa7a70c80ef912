package store

import (
	"fmt"
	"math"
	"sort"

	"indigo/internal/graph"
	"indigo/internal/stats"
	"indigo/internal/styles"
)

// This file is the query side of the store: the paper's §5 pairwise
// ratios and the Fig. 14 best-style census as aggregations over stored
// cells. It is the one aggregation layer: the harness figures (over a
// session's in-memory store), the serve endpoints and the tuner all
// query it.

// Filter selects cells for a query; nil selects everything.
type Filter func(Cell) bool

// And combines filters.
func And(fs ...Filter) Filter {
	return func(c Cell) bool {
		for _, f := range fs {
			if f != nil && !f(c) {
				return false
			}
		}
		return true
	}
}

// ByModel selects cells of one programming model.
func ByModel(m styles.Model) Filter {
	return func(c Cell) bool { return c.Cfg.Model == m }
}

// ByAlgo selects cells of one algorithm.
func ByAlgo(a styles.Algorithm) Filter {
	return func(c Cell) bool { return c.Cfg.Algo == a }
}

// ClassicOnly excludes default-CudaAtomic cells, as the paper does for
// every result after §5.1.
func ClassicOnly(c Cell) bool { return c.Cfg.Atomics == styles.ClassicAtomic }

// valueIndex returns which alternative of dim the config holds.
func valueIndex(dim *styles.Dim, cfg styles.Config) int {
	for i := 0; i < dim.NumValues; i++ {
		if dim.Set(cfg, i) == cfg {
			return i
		}
	}
	return -1
}

// Ratios pairs cells that differ only in the given dimension and
// returns tput[aIdx]/tput[bIdx] per algorithm — the paper's §5 ratio
// methodology ("while keeping the other styles fixed"). Pairing is per
// input and device; pairs with a missing or non-positive side drop out.
func (s *Store) Ratios(dim *styles.Dim, aIdx, bIdx int, f Filter) map[styles.Algorithm][]float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	type pairKey struct {
		key    string
		input  string
		device string
	}
	groups := make(map[pairKey]map[int]float64)
	algoOf := make(map[pairKey]styles.Algorithm)
	for i := range s.cfg {
		c := s.cellAt(i)
		if f != nil && !f(c) {
			continue
		}
		if !dim.Applies(c.Cfg) {
			continue
		}
		pk := pairKey{c.Cfg.KeyWithout(dim), c.Input, c.Device}
		g := groups[pk]
		if g == nil {
			g = make(map[int]float64)
			groups[pk] = g
			algoOf[pk] = c.Cfg.Algo
		}
		g[valueIndex(dim, c.Cfg)] = c.Tput
	}
	out := make(map[styles.Algorithm][]float64)
	for pk, g := range groups {
		a, okA := g[aIdx]
		b, okB := g[bIdx]
		if okA && okB && a > 0 && b > 0 {
			out[algoOf[pk]] = append(out[algoOf[pk]], a/b)
		}
	}
	return out
}

// RatioLines renders per-algorithm ratio distributions as boxen lines
// in the report format ("  algo n=... med=..."), in paper order.
func RatioLines(ratios map[styles.Algorithm][]float64) []string {
	var lines []string
	for _, a := range styles.PaperOrder() {
		if xs := ratios[a]; len(xs) > 0 {
			lines = append(lines, fmt.Sprintf("  %-4s %s", a.String(), stats.NewBoxen(xs).String()))
		}
	}
	return lines
}

// CensusRow is the Fig. 14 census of one model: the percentage of each
// style among the best-performing cells.
type CensusRow struct {
	Model  styles.Model
	N      int // best-performing cells counted
	Vertex float64
	Topo   float64
	Dup    float64 // among data-driven best performers
	Push   float64
	RW     float64
	NonDet float64
}

// Census computes the Fig. 14 best-style census for one model over the
// stored corpus: the highest-throughput classic-atomics cell per
// (algorithm, input, device), ties broken to the lexicographically
// smaller variant name so the census is independent of row order. ok is
// false when the store holds no cells for the model.
func (s *Store) Census(model styles.Model) (CensusRow, bool) {
	type key struct {
		a      styles.Algorithm
		input  string
		device string
	}
	best := make(map[key]Cell)
	s.mu.RLock()
	for i := range s.cfg {
		c := s.cellAt(i)
		if c.Cfg.Model != model || !ClassicOnly(c) {
			continue
		}
		k := key{c.Cfg.Algo, c.Input, c.Device}
		cur, ok := best[k]
		if !ok || c.Tput > cur.Tput ||
			(c.Tput == cur.Tput && c.Cfg.Name() < cur.Cfg.Name()) {
			best[k] = c
		}
	}
	s.mu.RUnlock()
	if len(best) == 0 {
		return CensusRow{Model: model}, false
	}
	var vertex, topo, dup, push, rw, nondet, data int
	for _, c := range best {
		cfg := c.Cfg
		if cfg.Iterate == styles.VertexBased {
			vertex++
		}
		if cfg.Drive == styles.TopologyDriven {
			topo++
		} else {
			data++
			if cfg.Drive == styles.DataDrivenDup {
				dup++
			}
		}
		if cfg.Flow == styles.Push {
			push++
		}
		if cfg.Update == styles.ReadWrite {
			rw++
		}
		if cfg.Det == styles.NonDeterministic {
			nondet++
		}
	}
	n := len(best)
	pct := func(x, of int) float64 {
		if of == 0 {
			return 0
		}
		return 100 * float64(x) / float64(of)
	}
	return CensusRow{
		Model:  model,
		N:      n,
		Vertex: pct(vertex, n),
		Topo:   pct(topo, n),
		Dup:    pct(dup, data),
		Push:   pct(push, n),
		RW:     pct(rw, n),
		NonDet: pct(nondet, n),
	}, true
}

// CensusHeader is the census table header line, shared with Fig. 14.
const CensusHeader = "model\tvertex%\ttopo%\tdup%\tpush%\trw%\tnondet%"

// Line renders the row in the Fig. 14 report format.
func (r CensusRow) Line() string {
	return fmt.Sprintf("%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f",
		r.Model, r.Vertex, r.Topo, r.Dup, r.Push, r.RW, r.NonDet)
}

// Best returns the highest-throughput stored cell for one (algorithm,
// model, input, device) group — the measured best config for that cell,
// the tuner's warm-start source and the /v1/best answer. Ties break to
// the lexicographically smaller variant name, like the census. ok is
// false when the store holds no cell for the group.
func (s *Store) Best(a styles.Algorithm, m styles.Model, input, device string) (Cell, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var best Cell
	found := false
	for i := range s.cfg {
		c := s.cellAt(i)
		if c.Cfg.Algo != a || c.Cfg.Model != m || c.Input != input || c.Device != device {
			continue
		}
		if !found || c.Tput > best.Tput ||
			(c.Tput == best.Tput && c.Cfg.Name() < best.Cfg.Name()) {
			best = c
			found = true
		}
	}
	return best, found
}

// shapeDistance scores how alike two input shapes are on the properties
// the paper ties style performance to (§5.13): average degree, maximum
// degree, diameter, and size. Each term compares log-scale — a road
// graph at two scales is "nearer" than a road and a social graph of
// equal vertex count.
func shapeDistance(a, b graph.Stats) float64 {
	ld := func(x, y float64) float64 {
		if x < 1 {
			x = 1
		}
		if y < 1 {
			y = 1
		}
		d := math.Log2(x) - math.Log2(y)
		return d * d
	}
	return ld(a.AvgDegree, b.AvgDegree) +
		ld(float64(a.MaxDegree), float64(b.MaxDegree)) +
		ld(float64(a.Diameter), float64(b.Diameter)) +
		0.25*ld(float64(a.Vertices), float64(b.Vertices))
}

// BestForShape returns the measured best cells of (algorithm, model,
// device) groups whose input shape is nearest to shape, nearest first,
// at most k of them — the store-census warm start for tuning on an
// input the store has never seen. Groups are one per distinct input.
func (s *Store) BestForShape(a styles.Algorithm, m styles.Model, device string, shape graph.Stats, k int) []Cell {
	s.mu.RLock()
	inputs := map[string]bool{}
	for i := range s.cfg {
		if s.cfg[i].Algo == a && s.cfg[i].Model == m && s.device[i] == device {
			inputs[s.input[i]] = true
		}
	}
	s.mu.RUnlock()
	names := make([]string, 0, len(inputs))
	for in := range inputs {
		names = append(names, in)
	}
	sort.Strings(names)
	var best []Cell
	for _, in := range names {
		if c, ok := s.Best(a, m, in, device); ok {
			best = append(best, c)
		}
	}
	sort.SliceStable(best, func(i, j int) bool {
		di, dj := shapeDistance(best[i].Graph, shape), shapeDistance(best[j].Graph, shape)
		if di != dj {
			return di < dj
		}
		return best[i].Input < best[j].Input
	})
	if k >= 0 && len(best) > k {
		best = best[:k]
	}
	return best
}
