package harness

import (
	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/gpusim"
	"indigo/internal/runner"
	"indigo/internal/stats"
	"indigo/internal/store"
	"indigo/internal/styles"
)

// Spread regenerates the paper's headline claim (§1, §6): the cost of
// choosing the wrong style — the best/worst throughput ratio per
// algorithm and model over all inputs, and the overall worst case
// ("the worst combinations of styles can cost 6 orders of magnitude").
func (s *Session) Spread() *Report {
	s.Collect(styles.PaperOrder(), []styles.Model{styles.CUDA, styles.OMP, styles.CPP})
	r := &Report{ID: "spread", Title: "best/worst style spread per algorithm and model (§1)"}
	r.Add("model\talgo\tmax spread (best tput / worst tput, worst input case)")
	overall := 1.0
	for _, model := range []styles.Model{styles.CUDA, styles.OMP, styles.CPP} {
		for _, a := range styles.PaperOrder() {
			type key struct{ input, device string }
			best := make(map[key]float64)
			worst := make(map[key]float64)
			for _, c := range s.cells(store.And(store.ByModel(model), store.ByAlgo(a))) {
				k := key{c.Input, c.Device}
				// The negated form also drops NaN (a filtered non-measurement),
				// which would otherwise pass a <= comparison.
				if !(c.Tput > 0) {
					continue
				}
				if b, ok := best[k]; !ok || c.Tput > b {
					best[k] = c.Tput
				}
				if w, ok := worst[k]; !ok || c.Tput < w {
					worst[k] = c.Tput
				}
			}
			maxSpread := 0.0
			for k, b := range best {
				if w := worst[k]; w > 0 && b/w > maxSpread {
					maxSpread = b / w
				}
			}
			if maxSpread == 0 {
				continue
			}
			if maxSpread > overall {
				overall = maxSpread
			}
			r.Add("%s\t%s\t%s", model, a, ftoa(maxSpread))
		}
	}
	r.Add("overall worst-case spread\t\t%s", ftoa(overall))
	return s.annotate(r)
}

// Ablation sweeps the simulator's CudaAtomicFactor knob and reports the
// resulting Fig. 1 median (SSSP, one input), demonstrating that the
// simulated Atomic-vs-CudaAtomic gap is driven by the modeled seq_cst
// system-scope penalty and scales with it — the design choice DESIGN.md
// calls out for the two device profiles.
func (s *Session) Ablation() *Report {
	r := &Report{ID: "ablation", Title: "cost-model ablation: Fig.1 median vs CudaAtomicFactor (SSSP on rmat)"}
	g := s.Graphs[gen.InputRMAT]
	dim := styles.DimByKey("atomics")
	for _, factor := range []int64{1, 3, 10, 30, 100} {
		prof := gpusim.RTXSim()
		prof.CudaAtomicFactor = factor
		st := store.NewMem()
		for _, cfg := range styles.Enumerate(styles.SSSP, styles.CUDA) {
			d := gpusim.New(prof)
			_, tput, err := runner.TimeGPU(d, g, cfg, algo.Options{Threads: s.Opt.Threads})
			d.Close()
			if err != nil {
				continue
			}
			st.Append(store.Cell{Cfg: cfg, Input: gen.InputRMAT.String(), Device: prof.Name, Tput: tput})
		}
		ratios := st.Ratios(dim, int(styles.ClassicAtomic), int(styles.CudaAtomic), nil)
		r.Add("factor=%-4d median atomic/cudaatomic = %s (n=%d)",
			factor, ftoa(stats.Median(ratios[styles.SSSP])), len(ratios[styles.SSSP]))
	}
	return s.annotate(r)
}
