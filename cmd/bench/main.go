// Command bench measures the worker-pool runtime against the legacy
// spawn-per-region path and the scratch-arena runs against the
// allocate-per-run path, and emits the results as JSON. It is the source
// of the committed BENCH_pool.json, BENCH_scratch.json, and (with
// -guard / -ingest) BENCH_guard.json and BENCH_ingest.json: dispatch
// latency at small region sizes (where road-network frontiers live),
// worklist push styles, an end-to-end road-graph BFS, and a
// multi-variant road-graph sweep with and without arenas.
//
// Usage:
//
//	bench                  # full measurement, prints JSON to stdout
//	bench -quick           # short benchtime for CI smoke runs
//	bench -out pool.json   # write the JSON to a file
//	bench -alloccheck      # also assert the warmed-arena steady state
//	                       # allocates zero times per run (exit 1 if not)
//	bench -guard           # measure guard-checkpoint overhead on road BFS
//	                       # instead (source of BENCH_guard.json)
//	bench -ingest          # measure parallel vs serial graph ingest
//	                       # instead (source of BENCH_ingest.json); with
//	                       # -alloccheck also pins the parallel read's
//	                       # allocation ceiling
//	bench -tune            # race the autotuner against an exhaustive
//	                       # per-cell sweep (source of BENCH_tune.json);
//	                       # exits 1 past the regret/spend bars
//	bench -traceoverhead   # measure live-tracing overhead on road BFS
//	                       # (source of BENCH_trace.json); exits 1 at
//	                       # or past the 1% bar
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/guard"
	"indigo/internal/par"
	"indigo/internal/runner"
	"indigo/internal/scratch"
	"indigo/internal/styles"
)

// Comparison is one measurement pair: the optimized path ("pool": the
// persistent pool and/or warmed arena) against the legacy path ("spawn":
// spawn-per-region and/or allocate-per-run).
type Comparison struct {
	Name    string  `json:"name"`
	PoolNs  float64 `json:"pool_ns_per_op"`
	SpawnNs float64 `json:"spawn_ns_per_op"`
	// Speedup is SpawnNs / PoolNs: >1 means the optimized path wins.
	Speedup float64 `json:"speedup"`
	// Allocation profile of each side, from the benchmark driver's
	// MemStats accounting; GC pause is the total stop-the-world pause
	// accumulated over the whole measurement loop (not per op).
	PoolAllocs     int64 `json:"pool_allocs_per_op"`
	SpawnAllocs    int64 `json:"spawn_allocs_per_op"`
	PoolBytes      int64 `json:"pool_bytes_per_op"`
	SpawnBytes     int64 `json:"spawn_bytes_per_op"`
	PoolGCPauseNs  int64 `json:"pool_gc_pause_total_ns"`
	SpawnGCPauseNs int64 `json:"spawn_gc_pause_total_ns"`
}

// Report is the emitted document.
type Report struct {
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Quick       bool         `json:"quick"`
	Comparisons []Comparison `json:"comparisons"`
}

func main() {
	quick := flag.Bool("quick", false, "short benchtime (CI smoke runs)")
	out := flag.String("out", "", "output file (default stdout)")
	alloccheck := flag.Bool("alloccheck", false,
		"fail (exit 1) if a warmed-arena run allocates; pins the zero-alloc budget")
	guardBench := flag.Bool("guard", false,
		"measure guard-checkpoint overhead on the road BFS and emit that report instead")
	ingest := flag.Bool("ingest", false,
		"measure the chunked parallel graph ingest against the serial readers and emit that report instead (source of BENCH_ingest.json)")
	gpusimFlag := flag.Bool("gpusim", false,
		"measure the GPU simulator per kernel family and emit that report instead (source of BENCH_gpusim.json); with -alloccheck also pins the warmed Launch at zero allocations")
	tuneFlag := flag.Bool("tune", false,
		"race the autotuner against an exhaustive sweep per cell and emit that report instead (source of BENCH_tune.json); exits 1 if any cell misses the regret or spend bar")
	traceFlag := flag.Bool("traceoverhead", false,
		"measure live-tracing overhead on the road BFS and emit that report instead (source of BENCH_trace.json); exits 1 past the bar")
	flag.Parse()

	bt := 500 * time.Millisecond
	if *quick {
		bt = 20 * time.Millisecond
	}

	if *guardBench {
		trials := 9
		if *quick {
			trials = 2
		}
		emit(guardOverhead(bt, 4, trials, *quick), *out)
		return
	}

	if *traceFlag {
		trials := 9
		if *quick {
			trials = 2
		}
		rep := traceOverhead(bt, 4, trials, *quick)
		emit(rep, *out)
		if rep.DisabledOverheadPct >= traceOverheadBarPct {
			fmt.Fprintf(os.Stderr, "bench: disabled-tracing overhead %.2f%% on %s, bar is %.0f%%\n",
				rep.DisabledOverheadPct, rep.Benchmark, traceOverheadBarPct)
			os.Exit(1)
		}
		return
	}

	if *ingest {
		if *alloccheck {
			if allocs, ok := ingestAllocCheck(); !ok {
				fmt.Fprintf(os.Stderr, "bench: parallel ingest allocation budget exceeded: %d allocs per read, want <= %d\n", allocs, ingestAllocCeiling)
				os.Exit(1)
			}
		}
		emit(ingestBench(bt, *quick), *out)
		return
	}

	if *tuneFlag {
		rep := tuneBench(*quick)
		emit(rep, *out)
		if rep.MaxRegretPct > tuneRegretBarPct || rep.MaxSpendPct > tuneSpendBarPct {
			fmt.Fprintf(os.Stderr, "bench: tuner misses the bar: regret %.2f%% (max %.0f%%), spend %.2f%% (max %.0f%%)\n",
				rep.MaxRegretPct, tuneRegretBarPct, rep.MaxSpendPct, tuneSpendBarPct)
			os.Exit(1)
		}
		return
	}

	if *gpusimFlag {
		if *alloccheck {
			if avg, ok := gpusimAllocCheck(); !ok {
				fmt.Fprintf(os.Stderr, "bench: warmed gpusim Launch allocation budget exceeded: %.1f allocs per launch pair, want 0\n", avg)
				os.Exit(1)
			}
		}
		emit(gpusimBench(bt, *quick), *out)
		return
	}

	if *alloccheck {
		if n := steadyStateAllocs(); n != 0 {
			fmt.Fprintf(os.Stderr, "bench: steady-state allocation budget exceeded: %.1f allocs per warmed-arena run, want 0\n", n)
			os.Exit(1)
		}
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      *quick,
	}
	rep.Comparisons = append(rep.Comparisons,
		dispatch(bt, 4, 8),
		dispatch(bt, 4, 64),
		dispatch(bt, 8, 8),
		worklist(bt, 4),
		roadBFS(bt, 4),
		scratchSweep(bt, 4),
	)

	emit(rep, *out)
}

// emit marshals doc to out (stdout when empty).
func emit(doc any, out string) {
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func init() {
	// testing.Benchmark honors the -test.benchtime flag; register the
	// testing flags so measure can set it programmatically.
	testing.Init()
}

// metrics is one side's measurement.
type metrics struct {
	ns        float64
	allocs    int64
	bytes     int64
	gcPauseNs int64
}

// measure runs body under the testing benchmark driver at benchtime bt
// and returns time and allocation per operation plus the total GC pause
// accumulated while the loop ran.
func measure(bt time.Duration, body func(b *testing.B)) metrics {
	if err := flag.Set("test.benchtime", bt.String()); err != nil {
		fmt.Fprintln(os.Stderr, "bench: set benchtime:", err)
		os.Exit(1)
	}
	var before, after debug.GCStats
	debug.ReadGCStats(&before)
	r := testing.Benchmark(body)
	debug.ReadGCStats(&after)
	return metrics{
		ns:        float64(r.T.Nanoseconds()) / float64(r.N),
		allocs:    r.AllocsPerOp(),
		bytes:     r.AllocedBytesPerOp(),
		gcPauseNs: int64(after.PauseTotal - before.PauseTotal),
	}
}

// compare assembles the JSON record from the two sides.
func compare(name string, pool, spawn metrics) Comparison {
	return Comparison{
		Name:           name,
		PoolNs:         pool.ns,
		SpawnNs:        spawn.ns,
		Speedup:        spawn.ns / pool.ns,
		PoolAllocs:     pool.allocs,
		SpawnAllocs:    spawn.allocs,
		PoolBytes:      pool.bytes,
		SpawnBytes:     spawn.bytes,
		PoolGCPauseNs:  pool.gcPauseNs,
		SpawnGCPauseNs: spawn.gcPauseNs,
	}
}

// dispatch measures per-region fork/join cost at t workers and n
// iterations with an empty body: pure runtime overhead.
func dispatch(bt time.Duration, t int, n int64) Comparison {
	pool := measure(bt, func(b *testing.B) {
		p := par.NewPool(t)
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.For(n, par.Static, func(int64) {})
		}
	})
	spawn := measure(bt, func(b *testing.B) {
		defer par.SetPooling(true)
		par.SetPooling(false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			par.For(t, n, par.Static, func(int64) {})
		}
	})
	return compare(fmt.Sprintf("dispatch/t%d/n%d", t, n), pool, spawn)
}

// worklist measures a full region of pushes: the shared size counter
// against the per-worker reservation buffers.
func worklist(bt time.Duration, t int) Comparison {
	const n = 1 << 16
	spawn := measure(bt, func(b *testing.B) {
		w := par.NewWorklist(n + 64)
		p := par.NewPool(t)
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Reset()
			p.ForTID(n, par.Static, func(tid int, j int64) { w.Push(int32(j)) })
		}
	})
	pool := measure(bt, func(b *testing.B) {
		w := par.NewWorklistTID(n+64, t)
		p := par.NewPool(t)
		defer p.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.Reset()
			p.ForTID(n, par.Static, func(tid int, j int64) { w.PushTID(tid, int32(j)) })
			w.Flush()
		}
	})
	return compare(fmt.Sprintf("worklist-push/t%d/n%d", t, n), pool, spawn)
}

// roadBFS measures an end-to-end data-driven BFS on the road input:
// hundreds of small-frontier rounds, the case the pool runtime targets.
func roadBFS(bt time.Duration, threads int) Comparison {
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	cfg := styles.Config{
		Algo: styles.BFS, Model: styles.CPP, Drive: styles.DataDrivenNoDup,
		Flow: styles.Push, Update: styles.ReadModifyWrite,
	}
	pool := measure(bt, func(b *testing.B) {
		p := par.NewPool(threads)
		defer p.Close()
		opt := algo.Options{Threads: threads, Pool: p}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runner.RunCPU(g, cfg, opt) //nolint:errcheck // benchmark body
		}
	})
	spawn := measure(bt, func(b *testing.B) {
		defer par.SetPooling(true)
		par.SetPooling(false)
		opt := algo.Options{Threads: threads}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			runner.RunCPU(g, cfg, opt) //nolint:errcheck // benchmark body
		}
	})
	return compare(fmt.Sprintf("bfs-road/t%d", threads), pool, spawn)
}

// sweepVariants is the multi-variant road sweep measured by scratchSweep
// and asserted by -alloccheck: one representative per family covering
// every scratch checkout path (stamped and plain worklists, double
// buffering, OMP criticals, clause and atomic reductions).
func sweepVariants() []styles.Config {
	return []styles.Config{
		{Algo: styles.BFS, Model: styles.CPP, Drive: styles.DataDrivenNoDup,
			Flow: styles.Push, Update: styles.ReadModifyWrite},
		{Algo: styles.SSSP, Model: styles.CPP, Drive: styles.DataDrivenDup,
			Flow: styles.Push, Update: styles.ReadModifyWrite},
		{Algo: styles.CC, Model: styles.CPP, Drive: styles.TopologyDriven,
			Flow: styles.Pull, Update: styles.ReadModifyWrite, Det: styles.Deterministic},
		{Algo: styles.MIS, Model: styles.CPP, Drive: styles.DataDrivenNoDup,
			Flow: styles.Push, Update: styles.ReadModifyWrite},
		{Algo: styles.PR, Model: styles.OMP, Flow: styles.Pull,
			Det: styles.Deterministic, CPURed: styles.ClauseRed},
		{Algo: styles.TC, Model: styles.CPP, Update: styles.ReadModifyWrite,
			Det: styles.Deterministic, CPURed: styles.AtomicRed},
	}
}

// scratchSweep measures the arena's end-to-end effect: one op is a
// six-variant sweep over the road input on a pinned pool, with the
// "pool" side reusing one warmed arena (the sweep supervisor's steady
// state) and the "spawn" side allocating per run. The tiny scale keeps
// ops short enough for a stable iteration count and is the regime where
// per-run fixed costs matter most; at larger scales the allocation
// share of a run shrinks toward the noise floor (DESIGN.md §9).
func scratchSweep(bt time.Duration, threads int) Comparison {
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	cfgs := sweepVariants()
	pool := measure(bt, func(b *testing.B) {
		p := par.NewPool(threads)
		defer p.Close()
		a := scratch.New()
		opt := algo.Options{Threads: threads, Pool: p, Scratch: a}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				a.Reset()
				runner.RunCPU(g, cfg, opt) //nolint:errcheck // benchmark body
			}
		}
	})
	spawn := measure(bt, func(b *testing.B) {
		p := par.NewPool(threads)
		defer p.Close()
		opt := algo.Options{Threads: threads, Pool: p}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, cfg := range cfgs {
				runner.RunCPU(g, cfg, opt) //nolint:errcheck // benchmark body
			}
		}
	})
	return compare(fmt.Sprintf("sweep-scratch/t%d", threads), pool, spawn)
}

// steadyStateAllocs warms an arena over the sweep variants and returns
// the average allocation count of one further full sweep — the pinned
// budget is zero.
func steadyStateAllocs() float64 {
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	cfgs := sweepVariants()
	const threads = 4
	p := par.NewPool(threads)
	defer p.Close()
	a := scratch.New()
	opt := algo.Options{Threads: threads, Pool: p, Scratch: a}
	sweep := func() {
		for _, cfg := range cfgs {
			a.Reset()
			runner.RunCPU(g, cfg, opt) //nolint:errcheck // checked by verify tests
		}
	}
	for i := 0; i < 3; i++ {
		sweep()
	}
	return testing.AllocsPerRun(5, sweep)
}

// GuardReport is the -guard measurement: what arming a live guard token
// costs an end-to-end pooled road BFS — the paper-relevant hot path
// with the most dispatches per second, hence the worst case for
// checkpoint overhead. The budgeted contract is < 2% (DESIGN.md §11).
type GuardReport struct {
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Quick       bool    `json:"quick"`
	Benchmark   string  `json:"benchmark"`
	Trials      int     `json:"trials"`
	UnguardedNs float64 `json:"unguarded_ns_per_op"`
	GuardedNs   float64 `json:"guarded_ns_per_op"`
	// OverheadPct is the median over trials of the per-trial ratio
	// (guarded/unguarded - 1) * 100. Within a trial the two sides
	// alternate run by run, so scheduler windows, GC cycles, and load
	// ramps land on both sides of the ratio and cancel; the median over
	// trials then discards the ones where interference still landed
	// asymmetrically. (Measuring each side in its own multi-second window
	// instead reads several percent of pure window-to-window drift on a
	// busy host.) The ns fields are min-of-N, reported for scale only.
	OverheadPct float64 `json:"overhead_pct"`
}

// guardOverhead measures the pooled road BFS with and without a live
// (armed, never tripping) guard token, interleaving trials so machine
// drift hits both sides equally.
func guardOverhead(bt time.Duration, threads, trials int, quick bool) GuardReport {
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	cfg := styles.Config{
		Algo: styles.BFS, Model: styles.CPP, Drive: styles.DataDrivenNoDup,
		Flow: styles.Push, Update: styles.ReadModifyWrite,
	}
	p := par.NewPool(threads)
	defer p.Close()
	gd := guard.New().WithTimeout(time.Hour) // armed and live, never trips
	defer gd.Release()

	optU := algo.Options{Threads: threads, Pool: p}
	optG := algo.Options{Threads: threads, Pool: p, Guard: gd}
	for w := 0; w < 200; w++ { // warm the pool, caches, and branch state
		runner.RunCPU(g, cfg, optU) //nolint:errcheck // benchmark body
		runner.RunCPU(g, cfg, optG) //nolint:errcheck // benchmark body
	}
	unguarded, guarded := math.Inf(1), math.Inf(1)
	ratios := make([]float64, 0, trials)
	for i := 0; i < trials; i++ {
		var tu, tg time.Duration
		var n int
		for tu+tg < 2*bt {
			n++
			s := time.Now()
			runner.RunCPU(g, cfg, optU) //nolint:errcheck // benchmark body
			tu += time.Since(s)
			s = time.Now()
			runner.RunCPU(g, cfg, optG) //nolint:errcheck // benchmark body
			tg += time.Since(s)
		}
		u := float64(tu.Nanoseconds()) / float64(n)
		m := float64(tg.Nanoseconds()) / float64(n)
		unguarded = math.Min(unguarded, u)
		guarded = math.Min(guarded, m)
		ratios = append(ratios, m/u)
	}
	sort.Float64s(ratios)
	median := ratios[len(ratios)/2]
	if len(ratios)%2 == 0 {
		median = (median + ratios[len(ratios)/2-1]) / 2
	}
	return GuardReport{
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Quick:       quick,
		Benchmark:   fmt.Sprintf("bfs-road/t%d", threads),
		Trials:      trials,
		UnguardedNs: unguarded,
		GuardedNs:   guarded,
		OverheadPct: (median - 1) * 100,
	}
}
