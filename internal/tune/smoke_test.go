package tune

import (
	"testing"
	"time"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/graph"
	"indigo/internal/styles"
	"indigo/internal/sweep"
	"indigo/internal/testutil"
)

// TestSmokeBeatsTheBar is the acceptance bar on real cells: tune each
// CUDA cell on a generated tiny graph through the production
// ProbeRunner, then exhaustively measure the same cell and assert the
// tuner landed within 5% of the sweep best using at most 25% of its
// measurements. The cells span three families and input shapes, and
// pr's space includes barrier kernels, so the leak check after each cell
// also pins that closing a ProbeRunner stops its devices' warp
// coroutines. The GPU simulator's timing model is deterministic, so the
// assertion is stable; Escalate is 1 because repeating a deterministic
// measurement buys nothing.
func TestSmokeBeatsTheBar(t *testing.T) {
	for _, c := range []struct {
		a  styles.Algorithm
		in gen.Input
	}{
		{styles.BFS, gen.InputRMAT},
		{styles.SSSP, gen.InputRoad},
		{styles.PR, gen.InputSocial},
	} {
		t.Run(c.a.String(), func(t *testing.T) {
			defer testutil.Snapshot(t).Check(t)
			smokeBeatsTheBar(t, c.a, gen.Generate(c.in, gen.Tiny))
		})
	}
}

func smokeBeatsTheBar(t *testing.T, a styles.Algorithm, g *graph.Graph) {
	ropt := algo.Options{Threads: 2}
	sopt := sweep.Options{Timeout: 10 * time.Second, Verify: true}

	pr := NewProbeRunner(g, "rtx-sim", ropt, sopt)
	opt := Options{
		Algo:     a,
		Model:    styles.CUDA,
		Device:   "rtx-sim",
		Shape:    g.Stats(),
		Seed:     1,
		Escalate: 1,
		Runner:   pr,
	}
	res, err := Run(opt)
	pr.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("partial result: %s", res.PartialReason)
	}

	space := styles.Enumerate(a, styles.CUDA)
	if res.Measurements*4 > len(space) {
		t.Fatalf("tuner spent %d measurements; the bar is 25%% of the %d-variant sweep",
			res.Measurements, len(space))
	}

	// Exhaustive reference: the full-cell sweep the tuner is meant to
	// approximate at a quarter of the cost.
	ref := NewProbeRunner(g, "rtx-sim", ropt, sopt)
	defer ref.Close()
	best := 0.0
	bestName := ""
	for _, cfg := range space {
		tput, err := ref.Measure(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name(), err)
		}
		if tput > best {
			best, bestName = tput, cfg.Name()
		}
	}
	regret := (best - res.Tput) / best
	t.Logf("tuned %s = %.3g in %d trials; sweep best %s = %.3g (%d trials); regret %.2f%%",
		res.Best.Name(), res.Tput, res.Measurements, bestName, best, len(space), 100*regret)
	if regret > 0.05 {
		t.Fatalf("regret %.2f%% exceeds the 5%% bar (tuned %.3g, sweep best %.3g)",
			100*regret, res.Tput, best)
	}
}

// TestSmokeCPUCell runs the tuner end to end on a CPU cell (omp) to
// cover the TimeCPU measurement path; wall-clock timing is noisy, so
// only structural properties are asserted.
func TestSmokeCPUCell(t *testing.T) {
	defer testutil.Snapshot(t).Check(t)
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	pr := NewProbeRunner(g, sweep.DeviceCPU, algo.Options{Threads: 2},
		sweep.Options{Timeout: 10 * time.Second, Verify: true})
	defer pr.Close()
	res, err := Run(Options{
		Algo:   styles.SSSP,
		Model:  styles.OMP,
		Device: sweep.DeviceCPU,
		Shape:  g.Stats(),
		Seed:   1,
		Runner: pr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("partial result: %s", res.PartialReason)
	}
	if res.Tput <= 0 {
		t.Fatalf("no throughput: %+v", res)
	}
	space := len(styles.Enumerate(styles.SSSP, styles.OMP))
	if res.Measurements > space {
		t.Fatalf("spent %d measurements on a %d-variant space", res.Measurements, space)
	}
}
