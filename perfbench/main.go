// Command perfbench is the repository benchmark: it runs one seeded
// workload (cpu-study, gpu-study or serve-mix) against the program's
// packages for a fixed time, checks every output, and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced
// run). The last line of standard output is the result as one JSON
// object. See README.md for the workloads and the metric map.
//
//	perfbench --workload cpu-study --seed 1 --seconds 30 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"indigo/internal/sweep"
)

// setupRepeats is how many times an untraced run sets up; setup_s is
// the median. Each set-up starts after a garbage collection, so it does
// not pay for the previous one's garbage.
const setupRepeats = 3

func main() {
	workload := flag.String("workload", "", "cpu-study, gpu-study or serve-mix")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 30, "measured time of the run, seconds")
	traced := flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (cpu-study, gpu-study, serve-mix)\n", *workload)
		os.Exit(2)
	}
	// Scratch files live under the checkout, in a directory of their own
	// that is removed when the run ends.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	r := newResult()
	r.notef("perfbench workload=%s seed=%d seconds=%d trace=%d", *workload, *seed, *seconds, *traced)
	r.notef("gomaxprocs=%d nproc=%d threads=%d go=%s rev=%s", runtime.GOMAXPROCS(0), runtime.NumCPU(),
		threads, runtime.Version(), revision())
	err = run(r, *seed, time.Duration(*seconds)*time.Second, *traced == 1, dir)
	if err == nil {
		list := endToEnd
		if *traced == 1 {
			list = perLayer
			r.values["process.peak_rss_mb"] = peakRSSMB()
		}
		err = r.write(os.Stdout, list)
	}
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

var workloads = map[string]func(r *result, seed int64, d time.Duration, traced bool, dir string) error{
	"cpu-study": func(r *result, seed int64, d time.Duration, traced bool, dir string) error {
		return runSweep(newSweepStudy(false, seed, dir), r, d, traced)
	},
	"gpu-study": func(r *result, seed int64, d time.Duration, traced bool, dir string) error {
		return runSweep(newSweepStudy(true, seed, dir), r, d, traced)
	},
	"serve-mix": runServe,
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// revision names the code under test: PERFBENCH_REV, which run.sh sets
// from git when the checkout is a repository, or "unknown".
func revision() string {
	if rev := os.Getenv("PERFBENCH_REV"); rev != "" {
		return rev
	}
	return "unknown"
}

// runBudget caps one measured phase of a run sized for d, so that a much
// slower program still ends within the benchmark's time limit.
func runBudget(d time.Duration) time.Duration { return 3 * d }

// runSweep runs the cpu-study or gpu-study.
//
// Untraced: set up setupRepeats times (setup_s is the median), then run
// a plan sized for d in s.passes passes and report the end-to-end
// metrics.
//
// Traced: set up once, run a plan sized for 40% of d untraced (phase A),
// then run the same cells again under the tracer (phase B), and run the
// direct runner probes after each phase. The per-layer metrics come from
// phase B's spans and the probes; phase A is the baseline of
// trace.overhead_frac and of the determinism cross-check.
func runSweep(s *sweepStudy, r *result, d time.Duration, traced bool) error {
	if !traced {
		var setups []float64
		var ss *session
		for i := 0; i < setupRepeats; i++ {
			runtime.GC()
			start := time.Now()
			if err := s.setup(); err != nil {
				return err
			}
			var err error
			if ss, err = s.open("timed", zeroCtx); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
			if i < setupRepeats-1 {
				if err := ss.close(r); err != nil {
					return err
				}
			}
		}
		r.values["setup_s"] = median(setups)
		r.notef("setup_s is the median of %d set-ups", len(setups))
		plan := s.plan(s.rounds(d / time.Duration(s.passes)))
		var passes [][]sweep.Outcome
		var wall time.Duration
		for p := 0; p < s.passes; p++ {
			outs, w := s.run(ss, plan, runBudget(d/time.Duration(s.passes)))
			if len(outs) < len(plan) {
				r.notef("pass %d stopped after %d of %d planned cells at its budget", p+1, len(outs), len(plan))
			}
			passes = append(passes, outs)
			wall += w
			plan = plan[:len(outs)]
		}
		if err := ss.close(r); err != nil {
			return err
		}
		sweepEndToEnd(r, passes, wall)
		return nil
	}

	if err := s.setup(); err != nil {
		return err
	}
	r.values["gen.generate_ms"] = ms(s.genTime)
	r.values["graph.read_ms"] = ms(s.readTime) / float64(s.reads)
	r.values["graph.read_mb_per_s"] = float64(s.readBytes) / 1e6 / s.readTime.Seconds()
	r.values["graph.stats_ms"] = ms(s.statsTime) / float64(s.reads)
	ps := s.probes()

	ssA, err := s.open("untraced", zeroCtx)
	if err != nil {
		return err
	}
	plan := s.plan(s.rounds(d * 2 / 5))
	outsA, wallA := s.run(ssA, plan, runBudget(d))
	if err := ssA.close(r); err != nil {
		return err
	}
	probesA, err := runProbes(ps, zeroCtx)
	if err != nil {
		return err
	}

	tr, col := newTracer()
	win := tr.NewTrace("bench.window")
	col.window = win.SpanID()
	ssB, err := s.open("traced", win)
	if err != nil {
		return err
	}
	outsB, wallB := s.run(ssB, plan[:len(outsA)], runBudget(d))
	win.End()
	if err := ssB.close(r); err != nil {
		return err
	}
	pt := tr.NewTrace("bench.probes")
	probesB, err := runProbes(ps, pt)
	pt.End()
	if err != nil {
		return err
	}
	compareOutcomes(r, outsA, outsB)
	compareProbes(r, probesA, probesB)
	if len(outsA) != len(outsB) {
		r.incorrect("phase B ran %d cells, phase A %d", len(outsB), len(outsA))
	}
	tallyCells(r, outsA)
	tallyCells(r, outsB)

	var recs []spanRec
	for _, rec := range col.spans(r, tr) {
		if rec.trace == win.TraceID() {
			recs = append(recs, rec)
		}
	}
	sweepLayers(r, s, recs, outsB, probesB)
	r.values["trace.overhead_frac"] = wallB.Seconds()/wallA.Seconds() - 1
	var top time.Duration
	for _, rec := range recs {
		if rec.topLvl {
			top += rec.dur
		}
	}
	r.values["trace.unaccounted_frac"] = 1 - top.Seconds()/wallB.Seconds()
	r.values["par.dispatch_ns"] = dispatchNS(threads)
	allocs, err := allocProbe(ps)
	if err != nil {
		return err
	}
	r.values["runner.allocs_per_run"] = allocs
	r.notef("phase A %d cells in %.3f s untraced; phase B same cells in %.3f s traced; %d probes per phase",
		len(outsA), wallA.Seconds(), wallB.Seconds(), len(ps))
	return nil
}
