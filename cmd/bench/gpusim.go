package main

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/gpusim"
	"indigo/internal/runner"
	"indigo/internal/styles"
)

// GPUSimCase is one kernel family measured on the sharded cost model.
// One op is a full algorithm run (all of its launches) on a reused,
// Reset device — the sweep supervisor's steady state.
type GPUSimCase struct {
	Name   string  `json:"name"`
	Ns     float64 `json:"ns_per_op"`
	Allocs int64   `json:"allocs_per_op"`
	Bytes  int64   `json:"bytes_per_op"`
}

// GPUSimReport is the -gpusim document (source of BENCH_gpusim.json).
type GPUSimReport struct {
	GoVersion  string       `json:"go_version"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Quick      bool         `json:"quick"`
	Cases      []GPUSimCase `json:"cases"`
}

// gpusimCase is one measured kernel family.
type gpusimCase struct {
	name string
	cfg  styles.Config
	in   gen.Input
}

// gpusimCases covers both execution paths of the simulator: non-barrier
// kernels (blocks simulated sequentially; data-driven BFS is the
// many-small-launches extreme, where per-launch fixed costs dominate)
// and barrier kernels (reduction-add syncs per round; block-granularity
// MIS is the barrier extreme, three __syncthreads per work item).
// Variants come from the enumerated suite so every config is a valid
// style combination.
func gpusimCases() []gpusimCase {
	pick := func(a styles.Algorithm, want func(styles.Config) bool) styles.Config {
		for _, cfg := range styles.Enumerate(a, styles.CUDA) {
			if want(cfg) {
				return cfg
			}
		}
		panic(fmt.Sprintf("bench: no CUDA %v variant matches the predicate", a))
	}
	return []gpusimCase{
		{"bfs-dd-road", pick(styles.BFS, func(c styles.Config) bool {
			return c.Drive.IsDataDriven() && c.Flow == styles.Push
		}), gen.InputRoad},
		{"cc-topo-road", pick(styles.CC, func(c styles.Config) bool {
			return c.Drive == styles.TopologyDriven && c.Flow == styles.Push
		}), gen.InputRoad},
		{"pr-reduction-social", pick(styles.PR, func(c styles.Config) bool {
			return c.GPURed == styles.ReductionAdd
		}), gen.InputSocial},
		{"tc-reduction-rmat", pick(styles.TC, func(c styles.Config) bool {
			return c.GPURed == styles.ReductionAdd
		}), gen.InputRMAT},
		{"mis-block-road", pick(styles.MIS, func(c styles.Config) bool {
			return c.Gran == styles.BlockGran
		}), gen.InputRoad},
	}
}

// gpusimBench measures each case on one device reused across ops
// (Reset between), so the numbers isolate the cost model rather than
// device construction.
func gpusimBench(bt time.Duration, quick bool) GPUSimReport {
	rep := GPUSimReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      quick,
	}
	for _, c := range gpusimCases() {
		g := gen.Generate(c.in, gen.Tiny)
		cfg := c.cfg
		d := gpusim.New(gpusim.RTXSim())
		m := measure(bt, func(b *testing.B) {
			opt := algo.Options{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Reset()
				runner.RunGPU(d, g, cfg, opt) //nolint:errcheck // benchmark body
			}
		})
		rep.Cases = append(rep.Cases, GPUSimCase{Name: c.name, Ns: m.ns, Allocs: m.allocs, Bytes: m.bytes})
	}
	return rep
}

// gpusimAllocCheck pins the simulator's steady state: a warmed
// device's Launch — sequential or barrier — performs zero heap
// allocations. Returns the observed per-launch average and whether the
// budget held.
func gpusimAllocCheck() (float64, bool) {
	d := gpusim.New(gpusim.RTXSim())
	n := int64(1 << 14)
	a := d.AllocI32(n)
	out := d.AllocI64(1)
	seqKern := func(w *gpusim.Warp) {
		base := w.Gidx(0)
		if base < n {
			cnt := n - base
			if cnt > gpusim.WarpSize {
				cnt = gpusim.WarpSize
			}
			w.CoalLdI32(a, base, int(cnt))
		}
	}
	barKern := func(w *gpusim.Warp) {
		ctr := w.SharedI64(0, 1)
		for l := 0; l < gpusim.WarpSize; l++ {
			if i := w.Gidx(l); i < n {
				w.BlockAtomicAddI64(ctr, 0, 1)
			}
		}
		w.Sync()
		if w.WarpInBlock == 0 {
			w.AtomicAddI64(out, 0, w.SharedLdI64(ctr, 0))
		}
	}
	seqCfg := gpusim.LaunchCfg{Blocks: gpusim.GridSize(n, 256)}
	barCfg := gpusim.LaunchCfg{Blocks: gpusim.GridSize(n, 256), NeedsBarrier: true}
	both := func() {
		d.Launch(seqCfg, seqKern)
		d.Launch(barCfg, barKern)
	}
	for i := 0; i < 3; i++ {
		both()
	}
	avg := testing.AllocsPerRun(5, both)
	return avg, avg == 0
}
