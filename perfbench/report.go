package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// The metric names and units below are the ones BENCHMARK.json lists;
// every run prints all of one list (end-to-end when untraced, per-layer
// when traced), reporting 0 for a layer the workload does not use.

// endToEnd lists the untraced run's metrics in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"verified_frac", "frac"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p99", "ms"},
}

// perLayer lists the traced run's metrics in print order.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	add("ms", "gen.generate_ms", "graph.read_ms")
	add("MB/s", "graph.read_mb_per_s")
	add("ms", "graph.stats_ms", "verify.check_ms")
	add("frac", "verify.share")
	add("ms", "runner.time_cpu_ms", "runner.overhead_ms")
	add("count", "runner.allocs_per_run")
	for _, a := range algoNames {
		add("ms", "algo.kernel_ms."+a)
	}
	for _, in := range inputNames {
		add("ms", "algo.kernel_ms."+in)
	}
	add("count", "algo.iterations.det")
	add("GTEPS", "algo.gteps_geomean")

	add("ns", "par.dispatch_ns")
	add("ms", "sweep.task_ms", "sweep.overhead_ms")
	add("count", "sweep.retries", "sweep.timeouts")
	add("us", "store.append_us")
	for _, q := range storeQueries {
		add("us", "store.query_us."+q)
	}
	add("count", "gpusim.cycles", "gpusim.instructions", "gpusim.transactions", "gpusim.atomics")
	add("frac", "gpusim.l2_hit_ratio")
	add("ns", "gpusim.host_ns_per_instr", "gpusim.host_ns_per_instr.barrier", "gpusim.host_ns_per_instr.flat")
	add("ms", "tune.session_ms")
	add("count", "tune.measurements")
	add("ms", "tune.ms_per_measurement")
	for _, r := range serveRoutes {
		add("ms", "serve.ms_p50."+r)
	}
	for _, r := range serveRoutes {
		add("ms", "serve.ms_p99."+r)
	}
	add("frac", "serve.cache_hit_ratio")
	add("count", "serve.shed")
	add("frac", "serve.server_ms_share", "trace.overhead_frac", "trace.unaccounted_frac")
	add("MB", "process.peak_rss_mb")
	return out
}()

var (
	algoNames    = []string{"cc", "mis", "pr", "tc", "bfs", "sssp"}
	inputNames   = []string{"grid2d", "copaper", "rmat", "social", "road"}
	storeQueries = []string{"cells", "census", "ratios", "best"}
	serveRoutes  = []string{"advise_stats", "advise_inline", "cells", "census", "ratios", "best", "tune"}
)

// result is what one run reports.
type result struct {
	// correct is false when a check found a wrong output the program
	// did not itself flag, or the determinism cross-check failed.
	correct   bool
	attempted int
	// failures counts failed operations by kind (sweep outcome kinds,
	// HTTP status classes, malformed bodies).
	failures map[string]int
	values   map[string]float64
	// notes are the report's stamp and sample-count lines.
	notes []string
}

func newResult() *result {
	return &result{correct: true, failures: map[string]int{}, values: map[string]float64{}}
}

func (r *result) failed() int {
	n := 0
	for _, c := range r.failures {
		n += c
	}
	return n
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// incorrect records a failed check and marks the run incorrect.
func (r *result) incorrect(format string, args ...any) {
	r.correct = false
	r.notef("CHECK FAILED: "+format, args...)
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the human-readable report, then the result object as the
// last line. Metrics missing from r.values print as 0: the layer did no
// work in this workload.
func (r *result) write(w io.Writer, list []struct{ name, unit string }) error {
	metrics := make(map[string]jsonMetric, len(list))
	for _, m := range list {
		v := r.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.incorrect("metric %s is not a finite number (%v)", m.name, v)
			v = 0
		}
		metrics[m.name] = jsonMetric{v, m.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	kinds := make([]string, 0, len(r.failures))
	for k := range r.failures {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var parts []string
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, r.failures[k]))
	}
	fmt.Fprintf(w, "# failed %d of %d attempted (%.6f) [%s]\n", r.failed(), r.attempted,
		float64(r.failed())/math.Max(1, float64(r.attempted)), strings.Join(parts, " "))
	for _, m := range list {
		fmt.Fprintf(w, "%-36s %16.6f %s\n", m.name, metrics[m.name].Value, m.unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed(), metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// quantile is the linearly interpolated q-quantile of xs (sorted in
// place); 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean is the geometric mean of the positive entries of xs.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hdQuantile is the Harrell–Davis estimate of the q-quantile of xs
// (sorted in place): the mean of all order statistics, weighted by a beta
// distribution centred on rank q·n. Near the tail it averages several
// order statistics instead of interpolating between two, so a percentile
// does not swing with the time of a single cell or request.
func hdQuantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n < 2 {
		return quantile(xs, q)
	}
	sort.Float64s(xs)
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	var sum, prev float64
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		sum += (cur - prev) * xs[i-1]
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of betaInc by Lentz's method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 1000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-14 {
			break
		}
	}
	return h
}
