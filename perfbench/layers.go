package main

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"indigo/internal/par"
	"indigo/internal/trace"
)

// spanRec is one completed span kept for the layer metrics, with the
// variant, input and device of the nearest enclosing span that names
// them (sweep.task carries all three; runner spans carry the variant).
type spanRec struct {
	name    string
	dur     time.Duration
	trace   uint64
	topLvl  bool // parent is the benchmark's window span
	variant string
	input   string
	device  string
	task    uint64 // span id of the enclosing sweep.task, if any
}

// keptSpans are the span names the layer metrics read. Everything else
// (per-launch gpu.launch spans, ingest chunk spans, tune rungs) is
// dropped, so a long traced sweep does not hold millions of records.

var keptSpans = map[string]bool{
	"sweep.task": true, "sweep.attempt": true, "sweep.verify": true,
	"runner.time_cpu": true, "runner.kernel": true, "runner.run_gpu": true,
	"tune.session": true, "tune.trial": true, "http.request": true,
	"store.append": true,
}

// collector is the trace.Sink of a traced run: it keeps the spans the
// layer metrics need and drops the rest.
type collector struct {
	mu     sync.Mutex
	window uint64 // span id whose direct children are top-level layers
	recs   []spanRec
}

func (c *collector) Close() error { return nil }

// Write resolves each kept span's variant and input through its
// ancestors in the same flush. Sweep tasks, tune trials and HTTP
// requests each flush on completion, so a span's task ancestor is
// always in the flush that carries it.
func (c *collector) Write(events []trace.Event) {
	byID := make(map[uint64]*trace.Event, len(events))
	for i := range events {
		byID[events[i].Span] = &events[i]
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range events {
		e := &events[i]
		if e.Point || !keptSpans[e.Name] {
			continue
		}
		r := spanRec{name: e.Name, dur: time.Duration(e.Dur), trace: e.Trace, topLvl: e.Parent != 0 && e.Parent == c.window}
		for a := e; a != nil; a = byID[a.Parent] {
			if a.Name == "sweep.task" && r.task == 0 {
				r.task = a.Span
			}
			for _, at := range a.Attrs {
				switch {
				case at.Key == "variant" && r.variant == "":
					r.variant = at.Val
				case at.Key == "input" && r.input == "":
					r.input = at.Val
				case at.Key == "device" && r.device == "":
					r.device = at.Val
				}
			}
		}
		c.recs = append(c.recs, r)
	}
}

// newTracer returns a tracer whose spans land in a fresh collector.
// Rings are sized so that no GPU cell's per-launch spans overflow
// between two flushes; spans checks that none did.
func newTracer() (*trace.Tracer, *collector) {
	c := &collector{}
	return trace.New(trace.Config{Sink: c, Capacity: 1 << 16}), c
}

// spans returns the kept records, after flushing the tracer. A span the
// tracer dropped on a full ring is missing from the layer sums, so any
// drop fails the run.
func (c *collector) spans(r *result, tr *trace.Tracer) []spanRec {
	tr.Flush()
	if n := tr.Counters().Dropped; n > 0 {
		r.incorrect("trace: %d spans dropped on full rings", n)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]spanRec(nil), c.recs...)
}

// spanAgg sums durations by span name.
type spanAgg struct {
	n   map[string]int
	sum map[string]time.Duration
}

func aggregate(recs []spanRec) spanAgg {
	a := spanAgg{n: map[string]int{}, sum: map[string]time.Duration{}}
	for _, r := range recs {
		a.n[r.name]++
		a.sum[r.name] += r.dur
	}
	return a
}

// meanMS is the mean duration of the named spans in milliseconds.
func (a spanAgg) meanMS(name string) float64 {
	return ratio(ms(a.sum[name]), float64(a.n[name]))
}

func (a spanAgg) sumMS(names ...string) float64 {
	var t time.Duration
	for _, n := range names {
		t += a.sum[n]
	}
	return ms(t)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// algoOf extracts the algorithm from a variant name ("bfs/cpp/...").
func algoOf(variant string) string {
	a, _, _ := strings.Cut(variant, "/")
	return a
}

// kernelMetrics fills algo.kernel_ms.<algo> and algo.kernel_ms.<input>
// with the mean duration of the kernel spans, keyed by the variant's
// algorithm and by the input resolved through inputOf.
func kernelMetrics(r *result, recs []spanRec, kernel string, inputOf func(spanRec) string) {
	type acc struct {
		n int
		t time.Duration
	}
	by := map[string]*acc{}
	add := func(k string, d time.Duration) {
		if by[k] == nil {
			by[k] = &acc{}
		}
		by[k].n++
		by[k].t += d
	}
	for _, s := range recs {
		if s.name != kernel {
			continue
		}
		add(algoOf(s.variant), s.dur)
		if in := inputOf(s); in != "" {
			add(in, s.dur)
		}
	}
	for k, v := range by {
		r.values["algo.kernel_ms."+k] = ms(v.t) / float64(v.n)
	}
}

// dispatchNS is the median cost of one empty-body Pool.For region at
// full width: n equals the pool width, so every worker takes one
// iteration and the region measures dispatch and join alone.
func dispatchNS(threads int) float64 {
	p := par.NewPool(threads)
	defer p.Close()
	body := func(int64) {}
	n := int64(p.Width())
	for i := 0; i < 2000; i++ {
		p.For(n, par.Static, body)
	}
	const regions = 20000
	var samples []float64
	for b := 0; b < 7; b++ {
		start := time.Now()
		for i := 0; i < regions; i++ {
			p.For(n, par.Static, body)
		}
		samples = append(samples, float64(time.Since(start).Nanoseconds())/regions)
	}
	return median(samples)
}

// allocsPerRun is the mean heap allocation count of run after three
// warm-up calls, the steady state a sweep worker reaches once its
// pinned pool and arena are warm.
func allocsPerRun(run func()) float64 {
	for i := 0; i < 3; i++ {
		run()
	}
	const n = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// percentileMS returns the p50 and p99 of durations in milliseconds.
func percentileMS(ds []time.Duration) (p50, p99 float64) {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	sort.Float64s(xs)
	return hdQuantile(xs, 0.5), hdQuantile(xs, 0.99)
}
