package runner

import (
	"fmt"
	"math"

	"indigo/internal/algo"
	"indigo/internal/algo/bfs"
	"indigo/internal/algo/cc"
	"indigo/internal/algo/mis"
	"indigo/internal/algo/pr"
	"indigo/internal/algo/sssp"
	"indigo/internal/algo/tc"
	"indigo/internal/gpusim"
	"indigo/internal/graph"
	"indigo/internal/guard"
	"indigo/internal/styles"
	"indigo/internal/trace"
)

// RunGPU executes a CUDA-model variant on the given simulated device and
// returns the result and the simulated cost. Non-CUDA configurations
// and a nil device are recoverable caller mistakes and return an error.
//
// Like RunCPU, this is the guard boundary: opt.Guard is installed on the
// device for the run (launch-entry and per-cycle warp polls), and a
// cooperative abort surfaces as the token's sentinel error here.
func RunGPU(d *gpusim.Device, g *graph.Graph, cfg styles.Config, opt algo.Options) (res algo.Result, st gpusim.Stats, err error) {
	if cfg.Model != styles.CUDA {
		return algo.Result{}, gpusim.Stats{}, fmt.Errorf("runner.RunGPU: %s is not a CUDA variant", cfg.Name())
	}
	if d == nil {
		return algo.Result{}, gpusim.Stats{}, fmt.Errorf("runner.RunGPU: nil device for %s", cfg.Name())
	}
	sp := opt.Trace.Start("runner.run_gpu")
	if sp.Live() {
		sp = sp.Attr("variant", cfg.Name())
	}
	defer sp.End()
	d.SetGuard(opt.Guard)
	defer d.SetGuard(nil)
	d.SetTrace(sp)
	defer d.SetTrace(trace.Ctx{})
	defer guard.Recover(&err)
	switch cfg.Algo {
	case styles.BFS:
		res, st := bfs.RunGPU(d, g, cfg, opt)
		return res, st, nil
	case styles.SSSP:
		res, st := sssp.RunGPU(d, g, cfg, opt)
		return res, st, nil
	case styles.CC:
		res, st := cc.RunGPU(d, g, cfg, opt)
		return res, st, nil
	case styles.MIS:
		res, st := mis.RunGPU(d, g, cfg, opt)
		return res, st, nil
	case styles.PR:
		res, st := pr.RunGPU(d, g, cfg, opt)
		return res, st, nil
	case styles.TC:
		res, st := tc.RunGPU(d, g, cfg, opt)
		return res, st, nil
	}
	panic(fmt.Sprintf("runner.RunGPU: impossible algorithm enum %d", cfg.Algo))
}

// TimeGPU runs the variant and returns the result and the simulated
// throughput in giga-edges per second.
func TimeGPU(d *gpusim.Device, g *graph.Graph, cfg styles.Config, opt algo.Options) (algo.Result, float64, error) {
	res, tput, _, err := MeasureGPU(d, g, cfg, opt)
	return res, tput, err
}

// MeasureGPU is TimeGPU plus the raw simulated stats, for callers that
// persist cycle counts (the sweep supervisor and results store). The
// stats are deterministic — a pure function of (kernel, graph, profile)
// — so a recorded GPU cell is exact ground truth, not a sample.
func MeasureGPU(d *gpusim.Device, g *graph.Graph, cfg styles.Config, opt algo.Options) (algo.Result, float64, gpusim.Stats, error) {
	res, st, err := RunGPU(d, g, cfg, opt)
	if err != nil {
		return algo.Result{}, math.NaN(), gpusim.Stats{}, err
	}
	return res, Throughput(g, st.Seconds(d.Prof)), st, nil
}
