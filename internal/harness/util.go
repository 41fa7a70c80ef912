package harness

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"indigo/internal/baseline"
	"indigo/internal/graph"
	"indigo/internal/runner"
	"indigo/internal/styles"
)

func itoa(x int) string { return strconv.Itoa(x) }

func ftoa(x float64) string {
	if x >= 100 || x < 0.01 {
		return fmt.Sprintf("%.1e", x)
	}
	return fmt.Sprintf("%.2f", x)
}

// timeCPUBaseline times the Lonestar-style CPU baseline and returns its
// throughput in giga-edges per second. One untimed warm-up run pays the
// cold-start costs (page faults, and the region pool it leaves on the
// free list), then the best of three timed runs is kept, so a single
// host stall cannot move a Fig. 16 row.
func timeCPUBaseline(a styles.Algorithm, g *graph.Graph, threads int) float64 {
	var run func()
	switch a {
	case styles.BFS:
		run = func() { baseline.BFSDirOpt(g, 0, threads, nil) }
	case styles.SSSP:
		run = func() { baseline.SSSPDelta(g, 0, threads, 0, nil) }
	case styles.CC:
		run = func() { baseline.CCJump(g, threads, nil) }
	case styles.MIS:
		run = func() { baseline.MISLuby(g, threads, 42, nil) }
	case styles.PR:
		run = func() { baseline.PROpt(g, threads, 0.85, 1e-4, g.N+8, nil) }
	case styles.TC:
		run = func() { baseline.TCOrient(g, threads, nil) }
	default:
		return 0
	}
	run()
	best := time.Duration(math.MaxInt64)
	for i := 0; i < 3; i++ {
		start := time.Now()
		run()
		best = min(best, time.Since(start))
	}
	return runner.Throughput(g, best.Seconds())
}
