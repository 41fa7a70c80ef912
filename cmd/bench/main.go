// Command bench gates the two overheads that a separate-window benchmark
// cannot resolve: what a live, never-tripping guard token costs
// (DESIGN.md §11, bar 2%) and what disabled tracing costs (DESIGN.md §15,
// bar 1%), both on the dispatch-bound road BFS, the shortest runs the
// suite produces and so the worst case for per-run overheads. It prints
// one line per gate in the Go benchmark format and exits 1 when a gate
// reaches its bar. Every other timing is a `go test -bench` benchmark;
// README.md gives the command that regenerates BENCH.txt from both.
//
// Usage:
//
//	go run ./cmd/bench
//	GOMAXPROCS=1 go run ./cmd/bench
package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/graph"
	"indigo/internal/guard"
	"indigo/internal/par"
	"indigo/internal/runner"
	"indigo/internal/scratch"
	"indigo/internal/stats"
	"indigo/internal/styles"
)

const (
	// threads is the road BFS's worker count.
	threads = 4
	// trials is the number of alternation windows; the gated number is
	// the median over them.
	trials = 9
	// window is the least time both sides of one trial run together.
	window = time.Second
	// warmups is the number of untimed runs of each side before the
	// first trial (pool, caches and branch state).
	warmups = 200
)

// gate is one overhead contract: the measured side against a baseline
// that differs from it only by the mechanism under test.
type gate struct {
	name     string
	barPct   float64
	baseline func()
	measured func()
}

func main() {
	if !run() {
		os.Exit(1)
	}
}

// run measures every gate, prints its line, and reports whether all
// stayed under their bars.
func run() bool {
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	p := par.NewPool(threads)
	defer p.Close()
	gd := guard.New().WithTimeout(time.Hour) // armed and live, never trips
	defer gd.Release()

	fmt.Printf("cores: %d\n", runtime.NumCPU())
	ok := true
	for _, gt := range []gate{guardGate(g, p, gd), traceGate(g, p)} {
		n, baseNs, measNs, pct := alternate(gt.baseline, gt.measured)
		fmt.Printf("Benchmark%s%s\t%d\t%.0f ns/op\t%.0f base-ns/op\t%.2f overhead-%%\t%.0f bar-%%\n",
			gt.name, procSuffix(), n, measNs, baseNs, pct, gt.barPct)
		if pct >= gt.barPct {
			fmt.Fprintf(os.Stderr, "bench: %s overhead %.2f%% reaches the %.0f%% bar\n", gt.name, pct, gt.barPct)
			ok = false
		}
	}
	return ok
}

// bfsCfg is the road BFS variant both gates run: data-driven with small
// frontiers, hundreds of rounds, so dispatch and per-run costs recur at
// the highest rate.
var bfsCfg = styles.Config{
	Algo: styles.BFS, Model: styles.CPP, Drive: styles.DataDrivenNoDup,
	Flow: styles.Push, Update: styles.ReadModifyWrite,
}

// guardGate compares the pooled road BFS with and without the live
// token gd (the checkpoints polled per region and per stride).
func guardGate(g *graph.Graph, p *par.Pool, gd *guard.Token) gate {
	optU := algo.Options{Threads: threads, Pool: p}
	optG := algo.Options{Threads: threads, Pool: p, Guard: gd}
	return gate{
		name:     "GuardOverhead/bfs-road/t4",
		barPct:   2,
		baseline: func() { runner.RunCPU(g, bfsCfg, optU) }, //nolint:errcheck // benchmark body
		measured: func() { runner.RunCPU(g, bfsCfg, optG) }, //nolint:errcheck // benchmark body
	}
}

// traceGate compares a timed run through runner.TimeCPU with the zero
// trace Ctx (tracing off, the default) against the same envelope with
// the span sites elided: with the pool and arena pinned, TimeCPU minus
// its span sites is RunCPU between two clock reads.
func traceGate(g *graph.Graph, p *par.Pool) gate {
	a := scratch.New()
	opt := algo.Options{Threads: threads, Pool: p, Scratch: a}
	return gate{
		name:   "TraceOverhead/disabled/bfs-road/t4",
		barPct: 1,
		baseline: func() {
			a.Reset()
			start := time.Now()
			runner.RunCPU(g, bfsCfg, opt) //nolint:errcheck // benchmark body
			_ = runner.Throughput(g, time.Since(start).Seconds())
		},
		measured: func() {
			a.Reset()
			runner.TimeCPU(g, bfsCfg, opt) //nolint:errcheck // benchmark body
		},
	}
}

// alternate runs the two sides in turn, run by run, for trials windows,
// so scheduler windows, GC cycles and load ramps land on both sides of
// each window's ratio and cancel; the median over windows then discards
// those where interference still landed on one side. (Timing each side
// in its own multi-second window instead reads several percent of pure
// window-to-window drift on a busy host.) It returns the measured side's
// run count, the best per-window mean ns/op of each side, for scale
// only, and the median per-window overhead in percent.
func alternate(baseline, measured func()) (n int, baseNs, measNs, overheadPct float64) {
	for i := 0; i < warmups; i++ {
		baseline()
		measured()
	}
	baseNs, measNs = math.Inf(1), math.Inf(1)
	ratios := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		var tb, tm time.Duration
		runs := 0
		for tb+tm < window {
			runs++
			s := time.Now()
			baseline()
			tb += time.Since(s)
			s = time.Now()
			measured()
			tm += time.Since(s)
		}
		n += runs
		b := float64(tb.Nanoseconds()) / float64(runs)
		m := float64(tm.Nanoseconds()) / float64(runs)
		baseNs, measNs = min(baseNs, b), min(measNs, m)
		ratios = append(ratios, m/b)
	}
	return n, baseNs, measNs, (stats.Median(ratios) - 1) * 100
}

// procSuffix is the -N GOMAXPROCS suffix `go test -bench` appends to a
// benchmark name when N is not 1.
func procSuffix() string {
	if n := runtime.GOMAXPROCS(0); n != 1 {
		return fmt.Sprintf("-%d", n)
	}
	return ""
}
