package harness

import (
	"sort"

	"indigo/internal/gen"
	"indigo/internal/stats"
	"indigo/internal/store"
	"indigo/internal/styles"
)

// byAlgos selects cells of any of the given algorithms.
func byAlgos(algos ...styles.Algorithm) store.Filter {
	return func(c store.Cell) bool {
		for _, a := range algos {
			if c.Cfg.Algo == a {
				return true
			}
		}
		return false
	}
}

func byDevice(name string) store.Filter {
	return func(c store.Cell) bool { return c.Device == name }
}

// cells returns the session's cells matching the filter, in row order.
func (s *Session) cells(f store.Filter) []store.Cell {
	var out []store.Cell
	for _, c := range s.results.Cells() {
		if f == nil || f(c) {
			out = append(out, c)
		}
	}
	return out
}

// ratioSection appends the label and one boxen line per algorithm with
// data.
func ratioSection(r *Report, label string, ratios map[styles.Algorithm][]float64) {
	r.Add("%s:", label)
	r.Lines = append(r.Lines, store.RatioLines(ratios)...)
}

// Fig1 regenerates Figure 1: throughput ratios of Atomic over
// CudaAtomic per GPU. PR is absent (no float CudaAtomic).
func (s *Session) Fig1() *Report {
	algos := []styles.Algorithm{styles.CC, styles.MIS, styles.TC, styles.BFS, styles.SSSP}
	s.Collect(algos, []styles.Model{styles.CUDA})
	r := &Report{ID: "fig1", Title: "Atomic over CudaAtomic throughput ratios (per GPU)"}
	for _, dev := range []string{"rtx-sim", "titan-sim"} {
		ratios := s.results.Ratios(styles.DimByKey("atomics"), int(styles.ClassicAtomic), int(styles.CudaAtomic),
			store.And(store.ByModel(styles.CUDA), byDevice(dev), byAlgos(algos...)))
		ratioSection(r, dev, ratios)
	}
	return s.annotate(r)
}

// Fig2 regenerates Figure 2: vertex- over edge-based ratios for (a)
// CUDA, (b) the CPU models, and (c) the thread-granularity TC subset.
func (s *Session) Fig2() *Report {
	algos := styles.PaperOrder()
	s.Collect(algos, []styles.Model{styles.CUDA, styles.OMP, styles.CPP})
	r := &Report{ID: "fig2", Title: "vertex-based over edge-based throughput ratios"}
	dim := styles.DimByKey("iterate")
	vertex, edge := int(styles.VertexBased), int(styles.EdgeBased)
	ratioSection(r, "CUDA", s.results.Ratios(dim, vertex, edge,
		store.And(store.ClassicOnly, store.ByModel(styles.CUDA))))
	cpu := func(c store.Cell) bool { return c.Cfg.Model != styles.CUDA }
	ratioSection(r, "OpenMP+C++", s.results.Ratios(dim, vertex, edge, cpu))
	threadTC := func(c store.Cell) bool {
		return c.Cfg.Model == styles.CUDA && c.Cfg.Algo == styles.TC &&
			c.Cfg.Gran == styles.ThreadGran && store.ClassicOnly(c)
	}
	ratioSection(r, "thread-gran TC (CUDA)", s.results.Ratios(dim, vertex, edge, threadTC))
	return s.annotate(r)
}

// driveFig is the shared driver of Figures 3 and 4: topology-driven
// over data-driven (with or without duplicates), per model.
func (s *Session) driveFig(id, title string, dataIdx int, algos []styles.Algorithm) *Report {
	s.Collect(algos, []styles.Model{styles.CUDA, styles.OMP, styles.CPP})
	r := &Report{ID: id, Title: title}
	for _, model := range []styles.Model{styles.CUDA, styles.OMP, styles.CPP} {
		ratios := s.results.Ratios(styles.DimByKey("drive"), int(styles.TopologyDriven), dataIdx,
			store.And(store.ClassicOnly, store.ByModel(model), byAlgos(algos...)))
		ratioSection(r, model.String(), ratios)
	}
	return s.annotate(r)
}

// Fig3 regenerates Figure 3: topology-driven over data-driven with
// duplicates (CC, BFS, SSSP).
func (s *Session) Fig3() *Report {
	return s.driveFig("fig3", "topology-driven over data-driven (dup worklist)",
		int(styles.DataDrivenDup), []styles.Algorithm{styles.CC, styles.BFS, styles.SSSP})
}

// Fig4 regenerates Figure 4: topology-driven over data-driven without
// duplicates (CC, MIS, BFS, SSSP).
func (s *Session) Fig4() *Report {
	return s.driveFig("fig4", "topology-driven over data-driven (no-dup worklist)",
		int(styles.DataDrivenNoDup), []styles.Algorithm{styles.CC, styles.MIS, styles.BFS, styles.SSSP})
}

// Fig5 regenerates Figure 5: push over pull (CC, MIS, PR, BFS, SSSP).
func (s *Session) Fig5() *Report {
	algos := []styles.Algorithm{styles.CC, styles.MIS, styles.PR, styles.BFS, styles.SSSP}
	s.Collect(algos, []styles.Model{styles.CUDA, styles.OMP, styles.CPP})
	r := &Report{ID: "fig5", Title: "push over pull throughput ratios"}
	for _, model := range []styles.Model{styles.CUDA, styles.OMP, styles.CPP} {
		ratios := s.results.Ratios(styles.DimByKey("flow"), int(styles.Push), int(styles.Pull),
			store.And(store.ClassicOnly, store.ByModel(model), byAlgos(algos...)))
		ratioSection(r, model.String(), ratios)
	}
	return s.annotate(r)
}

// Fig6 regenerates Figure 6: read-write over read-modify-write (CC,
// BFS, SSSP).
func (s *Session) Fig6() *Report {
	algos := []styles.Algorithm{styles.CC, styles.BFS, styles.SSSP}
	s.Collect(algos, []styles.Model{styles.CUDA, styles.OMP, styles.CPP})
	r := &Report{ID: "fig6", Title: "read-write over read-modify-write throughput ratios"}
	for _, model := range []styles.Model{styles.CUDA, styles.OMP, styles.CPP} {
		ratios := s.results.Ratios(styles.DimByKey("update"), int(styles.ReadWrite), int(styles.ReadModifyWrite),
			store.And(store.ClassicOnly, store.ByModel(model), byAlgos(algos...)))
		ratioSection(r, model.String(), ratios)
	}
	return s.annotate(r)
}

// Fig7 regenerates Figure 7: deterministic over non-deterministic (CC,
// MIS, PR, BFS, SSSP).
func (s *Session) Fig7() *Report {
	algos := []styles.Algorithm{styles.CC, styles.MIS, styles.PR, styles.BFS, styles.SSSP}
	s.Collect(algos, []styles.Model{styles.CUDA, styles.OMP, styles.CPP})
	r := &Report{ID: "fig7", Title: "deterministic over non-deterministic throughput ratios"}
	for _, model := range []styles.Model{styles.CUDA, styles.OMP, styles.CPP} {
		ratios := s.results.Ratios(styles.DimByKey("det"), int(styles.Deterministic), int(styles.NonDeterministic),
			store.And(store.ClassicOnly, store.ByModel(model), byAlgos(algos...)))
		ratioSection(r, model.String(), ratios)
	}
	return s.annotate(r)
}

// Fig8 regenerates Figure 8: persistent over non-persistent (CUDA).
func (s *Session) Fig8() *Report {
	s.Collect(styles.PaperOrder(), []styles.Model{styles.CUDA})
	r := &Report{ID: "fig8", Title: "persistent over non-persistent throughput ratios (CUDA)"}
	ratios := s.results.Ratios(styles.DimByKey("persist"), int(styles.Persistent), int(styles.NonPersistent),
		store.And(store.ClassicOnly, store.ByModel(styles.CUDA)))
	ratioSection(r, "CUDA", ratios)
	return s.annotate(r)
}

// Fig12 regenerates Figure 12: default over dynamic scheduling (OMP).
func (s *Session) Fig12() *Report {
	s.Collect(styles.PaperOrder(), []styles.Model{styles.OMP})
	r := &Report{ID: "fig12", Title: "default over dynamic scheduling throughput ratios (OpenMP)"}
	ratios := s.results.Ratios(styles.DimByKey("ompsched"), int(styles.DefaultSched), int(styles.DynamicSched),
		store.ByModel(styles.OMP))
	ratioSection(r, "OMP", ratios)
	return s.annotate(r)
}

// Fig13 regenerates Figure 13: blocked over cyclic scheduling (C++).
func (s *Session) Fig13() *Report {
	s.Collect(styles.PaperOrder(), []styles.Model{styles.CPP})
	r := &Report{ID: "fig13", Title: "blocked over cyclic scheduling throughput ratios (C++)"}
	ratios := s.results.Ratios(styles.DimByKey("cppsched"), int(styles.BlockedSched), int(styles.CyclicSched),
		store.ByModel(styles.CPP))
	ratioSection(r, "CPP", ratios)
	return s.annotate(r)
}

// tputSection renders a three-way style's throughput medians per
// algorithm, in the dimension's value order.
func tputSection(r *Report, label string, dim *styles.Dim, byAlgo map[styles.Algorithm]map[string][]float64) {
	r.Add("%s:", label)
	algos := make([]styles.Algorithm, 0, len(byAlgo))
	for a := range byAlgo {
		algos = append(algos, a)
	}
	sort.Slice(algos, func(i, j int) bool { return algos[i] < algos[j] })
	for _, a := range algos {
		for i := 0; i < dim.NumValues; i++ {
			v := dim.Value(dim.Set(styles.Config{}, i))
			if xs := byAlgo[a][v]; len(xs) > 0 {
				r.Add("  %-4s %-14s %s", a.String(), v, stats.NewBoxen(xs).String())
			}
		}
	}
}

// Fig9 regenerates Figure 9: thread/warp/block throughputs (GE/s) on
// the road map and social network inputs (RTX profile).
func (s *Session) Fig9() *Report {
	s.Collect(styles.PaperOrder(), []styles.Model{styles.CUDA})
	r := &Report{ID: "fig9", Title: "thread/warp/block throughputs on road and social inputs (rtx-sim)"}
	dim := styles.DimByKey("gran")
	for _, in := range []gen.Input{gen.InputRoad, gen.InputSocial} {
		cells := s.cells(store.And(store.ClassicOnly, store.ByModel(styles.CUDA), byDevice("rtx-sim"),
			func(c store.Cell) bool { return c.Input == in.String() }))
		tputSection(r, in.String(), dim, Throughputs(cells, dim))
	}
	return s.annotate(r)
}

// Fig10 regenerates Figure 10: global-add/block-add/reduction-add
// throughputs on the GPUs (TC and PR), plus the pairwise ratios the
// pooled dots imply.
func (s *Session) Fig10() *Report {
	algos := []styles.Algorithm{styles.TC, styles.PR}
	s.Collect(algos, []styles.Model{styles.CUDA})
	r := &Report{ID: "fig10", Title: "GPU reduction-style throughputs (TC, PR)"}
	dim := styles.DimByKey("gpured")
	f := store.And(store.ClassicOnly, store.ByModel(styles.CUDA), byAlgos(algos...))
	tputSection(r, "CUDA (both GPUs)", dim, Throughputs(s.cells(f), dim))
	ratioSection(r, "reduction-add over global-add (pairwise)",
		s.results.Ratios(dim, int(styles.ReductionAdd), int(styles.GlobalAdd), f))
	ratioSection(r, "reduction-add over block-add (pairwise)",
		s.results.Ratios(dim, int(styles.ReductionAdd), int(styles.BlockAdd), f))
	return s.annotate(r)
}

// Fig11 regenerates Figure 11: atomic/critical/clause reduction
// throughputs on the CPUs (TC and PR), plus pairwise ratios.
func (s *Session) Fig11() *Report {
	algos := []styles.Algorithm{styles.TC, styles.PR}
	s.Collect(algos, []styles.Model{styles.OMP, styles.CPP})
	r := &Report{ID: "fig11", Title: "CPU reduction-style throughputs (TC, PR)"}
	dim := styles.DimByKey("cpured")
	f := byAlgos(algos...)
	tputSection(r, "OMP+CPP", dim, Throughputs(s.cells(f), dim))
	ratioSection(r, "clause-red over critical-red (pairwise)",
		s.results.Ratios(dim, int(styles.ClauseRed), int(styles.CriticalRed), f))
	ratioSection(r, "atomic-red over critical-red (pairwise)",
		s.results.Ratios(dim, int(styles.AtomicRed), int(styles.CriticalRed), f))
	return s.annotate(r)
}
