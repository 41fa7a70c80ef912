// Package indigo_test is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (§4-§5). Each benchmark
// recomputes one table/figure from the shared measurement session and
// reports the paper-comparable headline numbers as custom metrics, so
//
//	go test -bench=. -benchmem
//
// prints the same rows/series the paper reports (shapes, not absolute
// numbers — see EXPERIMENTS.md).
package indigo_test

import (
	"sync"
	"testing"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/gpusim"
	"indigo/internal/graph"
	"indigo/internal/harness"
	"indigo/internal/par"
	"indigo/internal/runner"
	"indigo/internal/stats"
	"indigo/internal/store"
	"indigo/internal/styles"
)

var (
	sessOnce sync.Once
	sess     *harness.Session
)

// session lazily builds one shared measurement session at the tiny
// scale (collection covers 850 variants x 5 inputs, CUDA on 2 devices).
func session() *harness.Session {
	sessOnce.Do(func() {
		sess = harness.NewSession(gen.Tiny, 0)
	})
	return sess
}

// reportMedian attaches per-algorithm median ratios as bench metrics.
func reportMedian(b *testing.B, prefix string, ratios map[styles.Algorithm][]float64) {
	b.Helper()
	for a, xs := range ratios {
		if len(xs) > 0 {
			b.ReportMetric(stats.Median(xs), prefix+"-"+a.String()+"-medratio")
		}
	}
}

func BenchmarkTable2StyleMatrix(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Table2()
	}
	b.Logf("\n%s", r)
}

func BenchmarkTable3VariantCounts(b *testing.B) {
	s := session()
	var r *harness.Report
	total := 0
	for i := 0; i < b.N; i++ {
		r = s.Table3()
		total = len(styles.EnumerateAll())
	}
	b.ReportMetric(float64(total), "variants")
	b.Logf("\n%s", r)
}

func BenchmarkTable4GraphStats(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Table45()
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig01AtomicVsCudaAtomic(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig1()
	}
	for _, dev := range []string{"rtx-sim", "titan-sim"} {
		ratios := s.Results().Ratios(styles.DimByKey("atomics"), int(styles.ClassicAtomic), int(styles.CudaAtomic),
			func(c store.Cell) bool { return c.Device == dev && c.Cfg.Algo == styles.SSSP })
		reportMedian(b, dev, ratios)
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig02VertexVsEdge(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig2()
	}
	ratios := s.Results().Ratios(styles.DimByKey("iterate"), int(styles.VertexBased), int(styles.EdgeBased),
		store.And(store.ByModel(styles.CUDA), store.ClassicOnly))
	reportMedian(b, "cuda", ratios)
	b.Logf("\n%s", r)
}

func BenchmarkFig03TopoVsDataDup(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig3()
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig04TopoVsDataNoDup(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig4()
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig05PushVsPull(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig5()
	}
	ratios := s.Results().Ratios(styles.DimByKey("flow"), int(styles.Push), int(styles.Pull),
		store.And(store.ByModel(styles.CUDA), store.ClassicOnly))
	reportMedian(b, "cuda", ratios)
	b.Logf("\n%s", r)
}

func BenchmarkFig06RWvsRMW(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig6()
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig07DetVsNonDet(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig7()
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig08Persistence(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig8()
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig09Granularity(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig9()
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig10GPUReductions(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig10()
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig11CPUReductions(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig11()
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig12OMPScheduling(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig12()
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig13CPPScheduling(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig13()
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig14BestStyleCensus(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig14()
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig15CombinationMatrix(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig15()
	}
	b.Logf("\n%s", r)
}

func BenchmarkFig16Baselines(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Fig16()
	}
	b.Logf("\n%s", r)
}

func BenchmarkCorrelation(b *testing.B) {
	s := session()
	var r *harness.Report
	for i := 0; i < b.N; i++ {
		r = s.Correlation()
	}
	b.Logf("\n%s", r)
}

// --- Substrate microbenchmarks: the building blocks' raw costs. ---

func benchGraph() *graph.Graph {
	return gen.Generate(gen.InputSocial, gen.Small)
}

func BenchmarkSubstrateParForStatic(b *testing.B) {
	var sink par.Sync = par.CAS{}
	xs := make([]int32, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		par.For(0, int64(len(xs)), par.Static, func(j int64) {
			sink.Store(&xs[j], int32(j))
		})
	}
}

func BenchmarkSubstrateParForDynamic(b *testing.B) {
	var sink par.Sync = par.CAS{}
	xs := make([]int32, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		par.For(0, int64(len(xs)), par.Dynamic, func(j int64) {
			sink.Store(&xs[j], int32(j))
		})
	}
}

func BenchmarkSubstrateGPULaunch(b *testing.B) {
	d := gpusim.New(gpusim.RTXSim())
	a := d.AllocI32(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Launch(gpusim.LaunchCfg{Blocks: gpusim.GridSize(a.Len(), 256)}, func(w *gpusim.Warp) {
			base := w.Gidx(0)
			if base < a.Len() {
				cnt := 32
				if rem := a.Len() - base; rem < 32 {
					cnt = int(rem)
				}
				w.CoalLdI32(a, base, cnt)
			}
		})
	}
}

func BenchmarkVariantSSSPDataDrivenCPP(b *testing.B) {
	g := benchGraph()
	cfg := styles.Config{
		Algo: styles.SSSP, Model: styles.CPP, Drive: styles.DataDrivenNoDup,
		Flow: styles.Push, Update: styles.ReadModifyWrite,
	}
	opt := algo.Options{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.RunCPU(g, cfg, opt) //nolint:errcheck // benchmark body
	}
}

// BenchmarkVariantBFSRoad is the end-to-end case the pool runtime
// targets and the algorithm rung of the benchmark ladder (BENCH.txt): a
// road network's BFS runs hundreds of rounds with small frontiers, so
// per-region dispatch overhead dominates. One persistent pool serves the
// whole run, as in a sweep.
func BenchmarkVariantBFSRoad(b *testing.B) {
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	cfg := styles.Config{
		Algo: styles.BFS, Model: styles.CPP, Drive: styles.DataDrivenNoDup,
		Flow: styles.Push, Update: styles.ReadModifyWrite,
	}
	const threads = 4
	p := par.NewPool(threads)
	defer p.Close()
	opt := algo.Options{Threads: threads, Pool: p}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.RunCPU(g, cfg, opt) //nolint:errcheck // benchmark body
	}
}

func BenchmarkVariantBFSWarpGPU(b *testing.B) {
	g := benchGraph()
	cfg := styles.Config{
		Algo: styles.BFS, Model: styles.CUDA, Flow: styles.Push,
		Det: styles.NonDeterministic, Update: styles.ReadModifyWrite,
		Gran: styles.WarpGran,
	}
	opt := algo.Options{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner.RunGPU(gpusim.New(gpusim.RTXSim()), g, cfg, opt) //nolint:errcheck // benchmark body
	}
}
