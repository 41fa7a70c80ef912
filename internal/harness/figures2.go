package harness

import (
	"math"
	"strings"

	"indigo/internal/baseline"
	"indigo/internal/gen"
	"indigo/internal/gpusim"
	"indigo/internal/graph"
	"indigo/internal/runner"
	"indigo/internal/stats"
	"indigo/internal/store"
	"indigo/internal/styles"
)

// Table2 regenerates Table 2: the style applicability matrix, derived
// from the enumeration itself (a style is included for an algorithm if
// any valid variant uses it).
func (s *Session) Table2() *Report {
	r := &Report{ID: "table2", Title: "included implementation styles (derived from the variant space)"}
	type row struct {
		name string
		dim  string
		vals []int
	}
	rows := []row{
		{"vertex-based, edge-based", "iterate", []int{0, 1}},
		{"topology-driven, data-driven", "drive", []int{0, 1}},
		{"dup in WL, no dup in WL", "drive", []int{1, 2}},
		{"push, pull", "flow", []int{0, 1}},
		{"read-write, read-modify-write", "update", []int{0, 1}},
		{"non-deterministic, deterministic", "det", []int{0, 1}},
		{"persistent, non-persistent", "persist", []int{1, 0}},
		{"thread, warp, block", "gran", []int{0, 1, 2}},
		{"atomic, cudaAtomic", "atomics", []int{0, 1}},
		{"global-, block-, reduction-add", "gpured", []int{0, 1, 2}},
		{"atomic-, critical-, clause-red", "cpured", []int{0, 1, 2}},
		{"default, dynamic sched", "ompsched", []int{0, 1}},
		{"blocked, cyclic", "cppsched", []int{0, 1}},
	}
	header := "style"
	for _, a := range styles.PaperOrder() {
		header += "\t" + a.String()
	}
	r.Add("%s", header)
	for _, row := range rows {
		dim := styles.DimByKey(row.dim)
		line := row.name
		for _, a := range styles.PaperOrder() {
			marks := make([]string, 0, len(row.vals))
			for _, v := range row.vals {
				found := false
				for _, m := range []styles.Model{styles.CUDA, styles.OMP, styles.CPP} {
					for _, cfg := range styles.Enumerate(a, m) {
						if dim.Applies(cfg) && dim.Set(cfg, v) == cfg {
							found = true
							break
						}
					}
					if found {
						break
					}
				}
				if found {
					marks = append(marks, "+")
				} else {
					marks = append(marks, "-")
				}
			}
			line += "\t" + strings.Join(marks, ",")
		}
		r.Add("%s", line)
	}
	return s.annotate(r)
}

// Table3 regenerates Table 3: variant counts per model and algorithm.
func (s *Session) Table3() *Report {
	r := &Report{ID: "table3", Title: "number of code versions (32-bit data type)"}
	t := styles.CountTable()
	header := "model"
	for _, a := range styles.PaperOrder() {
		header += "\t" + a.String()
	}
	r.Add("%s\ttotal", header)
	grand := 0
	for m := styles.Model(0); m < styles.NumModels; m++ {
		line := m.String()
		total := 0
		for _, a := range styles.PaperOrder() {
			line += "\t" + itoa(t[m][a])
			total += t[m][a]
		}
		r.Add("%s\t%d", line, total)
		grand += total
	}
	r.Add("grand total\t%d (paper: 1106; see DESIGN.md divergences)", grand)
	return s.annotate(r)
}

// Table45 regenerates Tables 4 and 5: the generated inputs' shape
// signatures next to their paper counterparts.
func (s *Session) Table45() *Report {
	r := &Report{ID: "table4", Title: "graph and degree information (generated stand-ins)"}
	r.Add("name\tstands for\tvertices\tedges\tMB\tdavg\tdmax\td>=32%%\td>=512%%\tdiameter")
	for in := gen.Input(0); in < gen.NumInputs; in++ {
		st := s.GStats[in]
		r.Add("%s\t%s\t%d\t%d\t%.1f\t%.1f\t%d\t%.1f\t%.3f\t%d",
			st.Name, in.PaperName(), st.Vertices, st.Edges, st.SizeMB,
			st.AvgDegree, st.MaxDegree, st.PctDeg32, st.PctDeg512, st.Diameter)
	}
	return s.annotate(r)
}

// Correlation regenerates §5.13: Pearson correlation of throughput with
// the input graph properties, over every collected measurement.
func (s *Session) Correlation() *Report {
	s.Collect(styles.PaperOrder(), []styles.Model{styles.CUDA, styles.OMP, styles.CPP})
	r := &Report{ID: "correlation", Title: "throughput vs graph-property correlation (§5.13)"}
	props := []struct {
		name string
		val  func(st graph.Stats) float64
	}{
		{"size-mb", func(st graph.Stats) float64 { return st.SizeMB }},
		{"avg-degree", func(st graph.Stats) float64 { return st.AvgDegree }},
		{"max-degree", func(st graph.Stats) float64 { return float64(st.MaxDegree) }},
		{"pct-deg>=32", func(st graph.Stats) float64 { return st.PctDeg32 }},
		{"pct-deg>=512", func(st graph.Stats) float64 { return st.PctDeg512 }},
		{"diameter", func(st graph.Stats) float64 { return float64(st.Diameter) }},
	}
	cells := s.cells(store.ClassicOnly)
	for _, p := range props {
		var xs, ys []float64
		for _, c := range cells {
			xs = append(xs, p.val(c.Graph))
			ys = append(ys, c.Tput)
		}
		r.Add("all codes vs %-13s r=%+.2f", p.name, stats.Pearson(xs, ys))
	}
	// The paper's strongest signal: warp-granularity throughput
	// correlates with average degree.
	var xs, ys []float64
	for _, c := range cells {
		if c.Cfg.Model == styles.CUDA && c.Cfg.Gran == styles.WarpGran {
			xs = append(xs, c.Graph.AvgDegree)
			ys = append(ys, c.Tput)
		}
	}
	r.Add("warp-granularity vs avg-degree r=%+.2f", stats.Pearson(xs, ys))
	return s.annotate(r)
}

// Fig14 regenerates Figure 14: the percentage of each style among the
// best-performing code versions, per programming model.
func (s *Session) Fig14() *Report {
	s.Collect(styles.PaperOrder(), []styles.Model{styles.CUDA, styles.OMP, styles.CPP})
	r := &Report{ID: "fig14", Title: "percentage of each style in best-performing codes"}
	r.Add("%s", store.CensusHeader)
	for _, model := range []styles.Model{styles.CUDA, styles.OMP, styles.CPP} {
		if row, ok := s.results.Census(model); ok {
			r.Add("%s", row.Line())
		}
	}
	return s.annotate(r)
}

// Fig15 regenerates Figure 15: the CUDA style-combination matrix — the
// ratio of median throughputs of codes having style x with style y over
// codes having x without y.
func (s *Session) Fig15() *Report {
	s.Collect(styles.PaperOrder(), []styles.Model{styles.CUDA})
	r := &Report{ID: "fig15", Title: "CUDA style-combination median-ratio matrix (x=row with/without y=col)"}
	type tag struct {
		label   string
		has     func(styles.Config) bool
		applies func(styles.Config) bool
	}
	always := func(styles.Config) bool { return true }
	tags := []tag{
		{"vertex", func(c styles.Config) bool { return c.Iterate == styles.VertexBased }, always},
		{"edge", func(c styles.Config) bool { return c.Iterate == styles.EdgeBased }, always},
		{"topo", func(c styles.Config) bool { return c.Drive == styles.TopologyDriven }, always},
		{"data", func(c styles.Config) bool { return c.Drive.IsDataDriven() }, always},
		{"dup", func(c styles.Config) bool { return c.Drive == styles.DataDrivenDup }, func(c styles.Config) bool { return c.Drive.IsDataDriven() }},
		{"nodup", func(c styles.Config) bool { return c.Drive == styles.DataDrivenNoDup }, func(c styles.Config) bool { return c.Drive.IsDataDriven() }},
		{"push", func(c styles.Config) bool { return c.Flow == styles.Push }, always},
		{"pull", func(c styles.Config) bool { return c.Flow == styles.Pull }, always},
		{"rw", func(c styles.Config) bool { return c.Update == styles.ReadWrite }, always},
		{"rmw", func(c styles.Config) bool { return c.Update == styles.ReadModifyWrite }, always},
		{"nondet", func(c styles.Config) bool { return c.Det == styles.NonDeterministic }, always},
		{"det", func(c styles.Config) bool { return c.Det == styles.Deterministic }, always},
		{"thread", func(c styles.Config) bool { return c.Gran == styles.ThreadGran }, always},
		{"warp", func(c styles.Config) bool { return c.Gran == styles.WarpGran }, always},
		{"block", func(c styles.Config) bool { return c.Gran == styles.BlockGran }, always},
		{"npers", func(c styles.Config) bool { return c.Persist == styles.NonPersistent }, always},
		{"pers", func(c styles.Config) bool { return c.Persist == styles.Persistent }, always},
	}
	cells := s.cells(store.And(store.ByModel(styles.CUDA), store.ClassicOnly))
	header := "x\\y"
	for _, t := range tags {
		header += "\t" + t.label
	}
	r.Add("%s", header)
	for _, x := range tags {
		line := x.label
		for _, y := range tags {
			var with, without []float64
			for _, c := range cells {
				if !x.has(c.Cfg) || !x.applies(c.Cfg) || !y.applies(c.Cfg) {
					continue
				}
				if y.has(c.Cfg) {
					with = append(with, c.Tput)
				} else {
					without = append(without, c.Tput)
				}
			}
			if len(with) == 0 || len(without) == 0 {
				line += "\t-"
			} else {
				line += "\t" + ftoa(stats.Median(with)/stats.Median(without))
			}
		}
		r.Add("%s", line)
	}
	return s.annotate(r)
}

// Fig16 regenerates Figure 16 and Table 6: speedups of the
// best-performing style over the optimized baseline codes, per model
// and algorithm, with per-algorithm geomeans.
func (s *Session) Fig16() *Report {
	s.Collect(styles.PaperOrder(), []styles.Model{styles.CUDA, styles.OMP, styles.CPP})
	r := &Report{ID: "fig16", Title: "speedup of best-performing styles over optimized baselines (Table 6)"}
	r.Add("model\talgo\tspeedups per input\tgeomean")
	for _, model := range []styles.Model{styles.CUDA, styles.OMP, styles.CPP} {
		var modelGeos []float64
		modelCells := s.cells(store.ByModel(model))
		for _, a := range styles.PaperOrder() {
			if model == styles.CUDA && a == styles.MIS {
				r.Add("%s\t%s\tN/A (MIS not in Gardenia)", model, a)
				continue
			}
			cfg, ok := bestAverageConfig(modelCells, a)
			if !ok {
				continue
			}
			var speeds []float64
			var cells []string
			for in := gen.Input(0); in < gen.NumInputs; in++ {
				ours := tputOf(modelCells, cfg, in)
				base := s.baselineTput(a, model, in)
				if ours <= 0 || base <= 0 {
					continue
				}
				sp := ours / base
				speeds = append(speeds, sp)
				cells = append(cells, in.String()+"="+ftoa(sp))
			}
			if len(speeds) == 0 {
				continue
			}
			geo := stats.Geomean(speeds)
			modelGeos = append(modelGeos, geo)
			r.Add("%s\t%s\t%s\t%s", model, a, strings.Join(cells, " "), ftoa(geo))
		}
		if len(modelGeos) > 0 {
			r.Add("%s\tALL\tgeomean of geomeans\t%s", model, ftoa(stats.Geomean(modelGeos)))
		}
	}
	return s.annotate(r)
}

// bestAverageConfig returns the classic-atomics config of algorithm a
// with the highest geomean throughput across the cells (one model's),
// the paper's "best-performing style" selection for §5.17.
func bestAverageConfig(cells []store.Cell, a styles.Algorithm) (styles.Config, bool) {
	sums := make(map[styles.Config][]float64)
	for _, c := range cells {
		if c.Cfg.Algo == a && store.ClassicOnly(c) {
			sums[c.Cfg] = append(sums[c.Cfg], c.Tput)
		}
	}
	var best styles.Config
	bestGeo := math.Inf(-1)
	found := false
	for cfg, ts := range sums {
		if g := stats.Geomean(ts); !math.IsNaN(g) && g > bestGeo {
			best, bestGeo, found = cfg, g, true
		}
	}
	return best, found
}

// tputOf averages the measured throughput of cfg on the input over the
// cells (over devices for CUDA).
func tputOf(cells []store.Cell, cfg styles.Config, in gen.Input) float64 {
	var ts []float64
	for _, c := range cells {
		if c.Cfg == cfg && c.Input == in.String() {
			ts = append(ts, c.Tput)
		}
	}
	if len(ts) == 0 {
		return 0
	}
	return stats.Geomean(ts)
}

// baselineTput measures the optimized baseline for (algorithm, model)
// on the input, caching per session.
func (s *Session) baselineTput(a styles.Algorithm, model styles.Model, in gen.Input) float64 {
	if s.baseCache == nil {
		s.baseCache = make(map[baseKey]float64)
	}
	onGPU := model == styles.CUDA
	k := baseKey{a, onGPU, in}
	if t, ok := s.baseCache[k]; ok {
		return t
	}
	g := s.Graphs[in]
	threads := s.Opt.Defaults(g.N).Threads
	var tput float64
	if onGPU {
		// Geomean over both device profiles, like the variant side.
		var ts []float64
		for _, prof := range gpusim.Profiles() {
			d := gpusim.New(prof)
			defer d.Close()
			var st gpusim.Stats
			switch a {
			case styles.BFS:
				_, st = baseline.GPUBFS(d, g, 0)
			case styles.SSSP:
				_, st = baseline.GPUSSSP(d, g, 0)
			case styles.CC:
				_, st = baseline.GPUCC(d, g)
			case styles.PR:
				_, _, st = baseline.GPUPR(d, g, 0.85, 1e-4, g.N+8)
			case styles.TC:
				_, st = baseline.GPUTC(d, g)
			default:
				s.baseCache[k] = 0
				return 0
			}
			ts = append(ts, runner.Throughput(g, st.Seconds(prof)))
		}
		tput = stats.Geomean(ts)
	} else {
		tput = timeCPUBaseline(a, g, threads)
	}
	s.baseCache[k] = tput
	return tput
}

type baseKey struct {
	a     styles.Algorithm
	onGPU bool
	in    gen.Input
}

// All regenerates every table and figure in paper order, plus the
// spread headline and the cost-model ablation.
func (s *Session) All() []*Report {
	return []*Report{
		s.Table2(), s.Table3(), s.Table45(),
		s.Fig1(), s.Fig2(), s.Fig3(), s.Fig4(), s.Fig5(), s.Fig6(), s.Fig7(),
		s.Fig8(), s.Fig9(), s.Fig10(), s.Fig11(), s.Fig12(), s.Fig13(),
		s.Correlation(), s.Fig14(), s.Fig15(), s.Fig16(),
		s.Spread(), s.Ablation(),
	}
}
