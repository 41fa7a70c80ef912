package harness

import (
	"fmt"
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

// timeCPUBaseline runs the Lonestar-style CPU baseline once and returns
// its throughput in giga-edges per second.
func timeCPUBaseline(a styles.Algorithm, g *graph.Graph, threads int) float64 {
	start := time.Now()
	switch a {
	case styles.BFS:
		baseline.BFSDirOpt(g, 0, threads, nil)
	case styles.SSSP:
		baseline.SSSPDelta(g, 0, threads, 0, nil)
	case styles.CC:
		baseline.CCJump(g, threads, nil)
	case styles.MIS:
		baseline.MISLuby(g, threads, 42, nil)
	case styles.PR:
		baseline.PROpt(g, threads, 0.85, 1e-4, g.N+8, nil)
	case styles.TC:
		baseline.TCOrient(g, threads, nil)
	default:
		return 0
	}
	return runner.Throughput(g, time.Since(start).Seconds())
}
