package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/gpusim"
	"indigo/internal/styles"
	"indigo/internal/verify"
)

// TestEveryGPUVariantVerifies runs all 518 CUDA-model variants on the
// tiny study inputs and checks every result against the serial
// references, mirroring §4.1 for the simulated GPUs. A device simulates
// serially on its launching goroutine, so the cells are split across
// GOMAXPROCS goroutines, each with its own device and reference per
// graph (a Reference is not safe for concurrent use).
func TestEveryGPUVariantVerifies(t *testing.T) {
	graphs := testGraphs(t)
	opt := algo.Options{Threads: 4}
	type cell struct {
		g   int
		cfg styles.Config
	}
	var cells []cell
	for gi := range graphs {
		for a := styles.Algorithm(0); a < styles.NumAlgorithms; a++ {
			for _, cfg := range styles.Enumerate(a, styles.CUDA) {
				cells = append(cells, cell{gi, cfg})
			}
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refs := make([]*verify.Reference, len(graphs))
			devs := make([]*gpusim.Device, len(graphs))
			for i := int(next.Add(1)) - 1; i < len(cells); i = int(next.Add(1)) - 1 {
				gi, cfg := cells[i].g, cells[i].cfg
				g := graphs[gi]
				if refs[gi] == nil {
					refs[gi] = verify.NewReference(g, opt)
					devs[gi] = gpusim.New(gpusim.RTXSim())
				}
				res, st, err := RunGPU(devs[gi], g, cfg, opt)
				if err == nil {
					err = refs[gi].Check(cfg, res)
				}
				if err != nil {
					t.Errorf("graph %s: %v", g.Name, err)
				}
				if st.Cycles <= 0 {
					t.Errorf("graph %s: %s reported %d cycles", g.Name, cfg.Name(), st.Cycles)
				}
			}
		}()
	}
	wg.Wait()
}

// TestGPUVariantsOnTitanProfile spot-checks the second device profile.
func TestGPUVariantsOnTitanProfile(t *testing.T) {
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	opt := algo.Options{}
	ref := verify.NewReference(g, opt)
	d := gpusim.New(gpusim.TitanSim())
	for a := styles.Algorithm(0); a < styles.NumAlgorithms; a++ {
		cfgs := styles.Enumerate(a, styles.CUDA)
		for _, cfg := range cfgs[:min(6, len(cfgs))] {
			res, _, err := RunGPU(d, g, cfg, opt)
			if err == nil {
				err = ref.Check(cfg, res)
			}
			if err != nil {
				t.Error(err)
			}
		}
	}
}

func TestTimeGPUPositiveThroughput(t *testing.T) {
	g := gen.Generate(gen.InputSocial, gen.Tiny)
	d := gpusim.New(gpusim.RTXSim())
	cfg := styles.Enumerate(styles.BFS, styles.CUDA)[0]
	res, tput, err := TimeGPU(d, g, cfg, algo.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tput <= 0 {
		t.Errorf("throughput = %v", tput)
	}
	if err := verify.NewReference(g, algo.Options{}).Check(cfg, res); err != nil {
		t.Error(err)
	}
}

// TestRunGPURejectsCPUConfig: dispatch mismatches and a nil device are
// recoverable caller errors, not panics.
func TestRunGPURejectsCPUConfig(t *testing.T) {
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	ompCfg := styles.Config{Algo: styles.BFS, Model: styles.OMP}
	if _, _, err := RunGPU(gpusim.New(gpusim.RTXSim()), g, ompCfg, algo.Options{}); err == nil {
		t.Fatal("RunGPU with OMP config did not return an error")
	}
	cudaCfg := styles.Config{Algo: styles.BFS, Model: styles.CUDA}
	if _, _, err := RunGPU(nil, g, cudaCfg, algo.Options{}); err == nil {
		t.Fatal("RunGPU with nil device did not return an error")
	}
}
