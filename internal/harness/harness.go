// Package harness drives the paper's evaluation (§4, §5): it runs the
// variant suite over the five study inputs on the two simulated GPUs
// and the CPU execution models, keeps the measurements as cells of an
// in-memory results store, and regenerates every table and figure of the
// paper as a text report from that store's queries (the pairwise ratios
// "keeping the other styles fixed" and the best-style census).
//
// Collection goes through the internal/sweep supervisor: every run has
// a deadline, panics are recovered, results are verified against the
// serial references, and failures are recorded instead of aborting the
// sweep. Reports built over partial data carry a missing-cells footnote
// (see annotate) rather than silently computing ratios as if the sweep
// were complete.
package harness

import (
	"fmt"
	"os"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/gpusim"
	"indigo/internal/graph"
	"indigo/internal/store"
	"indigo/internal/styles"
	"indigo/internal/sweep"
)

// Session holds the generated inputs and the measurements collected so
// far, as cells of an in-memory results store that every figure queries;
// figure drivers collect lazily so a single session can serve any subset
// of the experiments without redundant runs.
type Session struct {
	Scale  gen.Scale
	Opt    algo.Options
	Graphs []*graph.Graph
	GStats []graph.Stats

	// Sweep configures the supervised execution layer. NewSession fills
	// scale-aware defaults (deadline, verification); override fields
	// before the first Collect — or call InitSweep to surface journal
	// errors eagerly.
	Sweep sweep.Options

	results   *store.Store
	failures  []sweep.Failure
	super     *sweep.Supervisor
	collected map[collKey]bool
	baseCache map[baseKey]float64
	// Verbose, when set, prints progress during collection.
	Verbose bool
}

type collKey struct {
	a styles.Algorithm
	m styles.Model
}

// NewSession generates the five study inputs at the given scale.
// threads <= 0 selects the machine's parallelism.
func NewSession(scale gen.Scale, threads int) *Session {
	s := &Session{
		Scale: scale,
		Opt:   algo.Options{Threads: threads},
		Sweep: sweep.Options{
			Timeout: sweep.DefaultTimeout(scale),
			Verify:  true,
		},
		Graphs:    gen.Suite(scale),
		results:   store.NewMem(),
		collected: make(map[collKey]bool),
	}
	// Suite stats warm each graph's cached signature up front; past the
	// small-input cutoff this takes the parallel scan + level-synchronous
	// BFS path (DESIGN.md §12), and the cache makes every later
	// g.Stats() — report tables, store cell signatures — free.
	for _, g := range s.Graphs {
		s.GStats = append(s.GStats, graph.ComputeStats(g))
	}
	return s
}

// InitSweep creates the supervisor from s.Sweep. Callers configuring a
// journal should call it before the first Collect so open/parse errors
// surface as errors; otherwise Collect initializes it on demand.
func (s *Session) InitSweep() error {
	if s.super != nil {
		return fmt.Errorf("harness: sweep already initialized")
	}
	sup, err := sweep.New(s.Sweep)
	if err != nil {
		return err
	}
	s.super = sup
	return nil
}

// CloseSweep flushes and closes the supervisor's journal, if any.
func (s *Session) CloseSweep() error {
	if s.super == nil {
		return nil
	}
	return s.super.Close()
}

// supervisor returns the lazily initialized supervisor. Without a
// journal, sweep.New cannot fail; with one, use InitSweep first to
// handle errors instead of panicking here.
func (s *Session) supervisor() *sweep.Supervisor {
	if s.super == nil {
		if err := s.InitSweep(); err != nil {
			panic(fmt.Sprintf("harness: sweep init: %v (call InitSweep to handle this)", err))
		}
	}
	return s.super
}

// Collect ensures measurements exist for every (algorithm, model) pair
// requested: each variant runs once per input, and CUDA variants run on
// both device profiles (§4.3). Runs go through the sweep supervisor;
// failed runs contribute a Failure record instead of a measurement and
// never abort the collection.
func (s *Session) Collect(algos []styles.Algorithm, models []styles.Model) {
	var tasks []sweep.Task
	for _, m := range models {
		for _, a := range algos {
			key := collKey{a, m}
			if s.collected[key] {
				continue
			}
			s.collected[key] = true
			cfgs := styles.Enumerate(a, m)
			if s.Verbose {
				fmt.Printf("collecting %s/%s: %d variants x %d inputs\n", a, m, len(cfgs), len(s.Graphs))
			}
			for in := gen.Input(0); in < gen.NumInputs; in++ {
				if m == styles.CUDA {
					for _, prof := range gpusim.Profiles() {
						for _, cfg := range cfgs {
							tasks = append(tasks, sweep.Task{Cfg: cfg, Input: in, Device: prof.Name})
						}
					}
				} else {
					for _, cfg := range cfgs {
						tasks = append(tasks, sweep.Task{Cfg: cfg, Input: in, Device: sweep.DeviceCPU})
					}
				}
			}
		}
	}
	if len(tasks) == 0 {
		return
	}
	var cells []store.Cell
	for _, o := range s.supervisor().Run(s.Graphs, s.Opt, tasks) {
		if o.Kind == sweep.OK {
			cells = append(cells, store.OutcomeCell(o, s.GStats[o.Input]))
		} else {
			s.failures = append(s.failures, o.Failure())
			if s.Verbose {
				fmt.Fprintf(os.Stderr, "  FAIL %s: %s on %s (%s): %s\n",
					o.Kind, o.Cfg.Name(), o.Input, o.Device, o.Err)
			}
		}
	}
	s.results.Append(cells...) // in memory: cannot fail
}

// Results returns the session's results store: one cell per measurement
// collected or loaded so far.
func (s *Session) Results() *store.Store {
	return s.results
}

// Failures returns the classified failures of every collection so far.
func (s *Session) Failures() []sweep.Failure {
	return s.failures
}

// annotate appends a missing-cells footnote when any supervised run
// failed, so no report presents ratios over partial data as complete.
// Every figure/table driver returns through it.
func (s *Session) annotate(r *Report) *Report {
	if len(s.failures) == 0 {
		return r
	}
	counts := make(map[sweep.Kind]int)
	for _, f := range s.failures {
		counts[f.Kind]++
	}
	r.Add("missing cells: %d runs failed (%d timeout, %d panic, %d wrong-answer, %d error, %d quarantined)",
		len(s.failures), counts[sweep.Timeout], counts[sweep.Panic],
		counts[sweep.WrongAnswer], counts[sweep.Error], counts[sweep.Quarantined])
	return r
}

// Throughputs groups measured throughputs by the value of dim (keyed by
// its rendering, dim.Value), per algorithm: used by the figures that plot
// raw throughputs of three-way styles (Figs. 9-11). Non-finite
// throughputs are filtered.
func Throughputs(cells []store.Cell, dim *styles.Dim) map[styles.Algorithm]map[string][]float64 {
	out := make(map[styles.Algorithm]map[string][]float64)
	for _, c := range cells {
		if !dim.Applies(c.Cfg) || !(c.Tput > 0) {
			continue
		}
		byVal := out[c.Cfg.Algo]
		if byVal == nil {
			byVal = make(map[string][]float64)
			out[c.Cfg.Algo] = byVal
		}
		v := dim.Value(c.Cfg)
		byVal[v] = append(byVal[v], c.Tput)
	}
	return out
}
