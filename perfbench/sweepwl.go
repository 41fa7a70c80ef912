package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"sync/atomic"
	"time"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/gpusim"
	"indigo/internal/graph"
	"indigo/internal/par"
	"indigo/internal/runner"
	"indigo/internal/scratch"
	"indigo/internal/store"
	"indigo/internal/styles"
	"indigo/internal/sweep"
	"indigo/internal/trace"
)

// threads is the worker width of every run: each workload is one
// process with at most two worker threads.
const threads = 2

// suite generates the five study inputs at the shapes gen.Generate uses
// for scale, with generator seeds derived from the workload seed.
func suite(scale gen.Scale, seed int64) []*graph.Graph {
	s := func(i int64) int64 { return seed*1_000_003 + i }
	gs := make([]*graph.Graph, gen.NumInputs)
	side := []int32{20, 64}[scale]
	gs[gen.InputGrid] = gen.Grid2D(side, side, s(0))
	gs[gen.InputCoPaper] = copaper(scale, s(1))
	gs[gen.InputRMAT] = gen.RMAT([]uint{8, 12}[scale], 8, s(2))
	gs[gen.InputSocial] = gen.Social([]int32{400, 4000}[scale], 9, s(3))
	w := []int32{24, 80}[scale]
	gs[gen.InputRoad] = gen.Road(w, w/2, s(4))
	return gs
}

func copaper(scale gen.Scale, seed int64) *graph.Graph {
	n := []int32{300, 2000}[scale]
	return gen.CoPaper(n, int(n)*23/10, seed)
}

// ingest round-trips g through an edge-list file in dir, the way a
// study loads its downloaded inputs, and returns the graph as read, the
// file size, and the read and stats times.
func ingest(dir, name string, g *graph.Graph) (*graph.Graph, graph.Stats, int64, time.Duration, time.Duration, error) {
	path := filepath.Join(dir, name+".el")
	f, err := os.Create(path)
	if err != nil {
		return nil, graph.Stats{}, 0, 0, 0, err
	}
	if err := graph.WriteEdgeList(f, g); err != nil {
		f.Close()
		return nil, graph.Stats{}, 0, 0, 0, fmt.Errorf("write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return nil, graph.Stats{}, 0, 0, 0, err
	}
	start := time.Now()
	f, err = os.Open(path)
	if err != nil {
		return nil, graph.Stats{}, 0, 0, 0, err
	}
	defer f.Close()
	rg, err := graph.ReadEdgeListOpts(f, name, graph.ReadOptions{Threads: threads})
	if err != nil {
		return nil, graph.Stats{}, 0, 0, 0, fmt.Errorf("read %s: %w", path, err)
	}
	read := time.Since(start)
	fi, err := f.Stat()
	if err != nil {
		return nil, graph.Stats{}, 0, 0, 0, err
	}
	start = time.Now()
	st := graph.ComputeStatsOpts(rg, graph.StatsOptions{Threads: threads})
	return rg, st, fi.Size(), read, time.Since(start), nil
}

// planned is one cell of a sweep plan: a task and the graph set (an
// index into sweepStudy.sets) its input refers to.
type planned struct {
	set  int
	task sweep.Task
}

// sweepStudy is the cpu-study and gpu-study workload: a supervised
// sweep over a fixed, interleaved cell plan.
type sweepStudy struct {
	gpu  bool
	seed int64
	dir  string
	// passes is how many times an untraced run executes its plan: twice
	// on the CPU, whose short cells wait on two threads meeting at each
	// region's barrier, once on the simulator, which runs a cell on one
	// goroutine.
	passes int

	sets   [][]*graph.Graph
	gstats [][]graph.Stats

	// set-up timings of the last set-up, for the traced run.
	genTime, readTime, statsTime time.Duration
	readBytes                    int64
	reads                        int
}

func newSweepStudy(gpu bool, seed int64, dir string) *sweepStudy {
	passes := 2
	if gpu {
		passes = 1
	}
	return &sweepStudy{gpu: gpu, seed: seed, dir: dir, passes: passes}
}

// rounds sizes a run of about d as a whole number of plan rounds. The
// rates are those of a 2-core x86-64 host over the first dozen rounds: a
// cpu-study round of up to 60 small-input cells takes about 2.7 s; a
// gpu-study round of 60 tiny cells about 0.84 s, plus 7.5 s for the
// whole MIS slice. A run measures the same cells on every commit, so a
// faster program finishes sooner.
func (s *sweepStudy) rounds(d time.Duration) int {
	if s.gpu {
		return max(1, int((d.Seconds()-7.5)/0.84+0.5))
	}
	return max(1, int(d.Seconds()/2.7+0.5))
}

// plan lists the cells of n rounds. Each stratum (model or profile,
// algorithm, input) lists its variants in a fixed shuffled order, and
// a round takes the next cell of every stratum, so a run of n rounds
// sweeps the same cells on every seed, with every algorithm, input and
// model in it. Round r runs on instance r mod instances of the inputs.
// The gpu-study also runs every CUDA MIS variant on the small copaper
// input (a variant on the same instance on both profiles), spread over
// the rounds: that slice is where block and persistent MIS variants
// return wrong answers, so it always runs in full.

func (s *sweepStudy) plan(n int) []planned {
	rng := rand.New(rand.NewSource(1))
	var strata [][]planned
	var slice []planned
	if s.gpu {
		for _, prof := range gpusim.Profiles() {
			for i, cfg := range styles.Enumerate(styles.MIS, styles.CUDA) {
				slice = append(slice, planned{sliceSet + i%instances, sweep.Task{Cfg: cfg, Input: gen.InputCoPaper, Device: prof.Name}})
			}
		}
		for _, prof := range gpusim.Profiles() {
			for _, a := range allAlgos {
				for in := gen.Input(0); in < gen.NumInputs; in++ {
					strata = append(strata, stratum(rng, a, styles.CUDA, in, prof.Name))
				}
			}
		}
	} else {
		for _, m := range []styles.Model{styles.OMP, styles.CPP} {
			for _, a := range allAlgos {
				for in := gen.Input(0); in < gen.NumInputs; in++ {
					strata = append(strata, stratum(rng, a, m, in, sweep.DeviceCPU))
				}
			}
		}
	}
	// Consecutive slice cells share an instance, so a round's slice
	// cells go to the supervisor as one or two batches.
	sort.SliceStable(slice, func(i, j int) bool { return slice[i].set < slice[j].set })
	per := (len(slice) + n - 1) / n
	var plan []planned
	for r := 0; r < n; r++ {
		k := min(per, len(slice))
		plan = append(plan, slice[:k]...)
		slice = slice[k:]
		for i := range strata {
			if len(strata[i]) > 0 {
				p := strata[i][0]
				p.set = r % instances
				plan = append(plan, p)
				strata[i] = strata[i][1:]
			}
		}
	}
	return plan
}

var allAlgos = []styles.Algorithm{styles.CC, styles.MIS, styles.PR, styles.TC, styles.BFS, styles.SSSP}

func stratum(rng *rand.Rand, a styles.Algorithm, m styles.Model, in gen.Input, device string) []planned {
	cfgs := styles.Enumerate(a, m)
	out := make([]planned, len(cfgs))
	for i, j := range rng.Perm(len(cfgs)) {
		out[i] = planned{0, sweep.Task{Cfg: cfgs[j], Input: in, Device: device}}
	}
	return out
}

// instances is how many seeded instances of each input a sweep runs on
// (graph sets 0 to instances-1); the gpu-study's MIS slice runs on as
// many instances of the small copaper input (sets sliceSet onwards). A
// run thus averages over several draws of each generator, which keeps
// its figures from following one draw's diameter or convergence.
const (
	instances = 4
	sliceSet  = instances
)

// setup generates and loads the inputs. The cpu-study sweeps the five
// inputs at small-suite shapes; the gpu-study sweeps them at tiny
// shapes, plus the small copaper input for its MIS slice.
func (s *sweepStudy) setup() error {
	scale := gen.Small
	if s.gpu {
		scale = gen.Tiny
	}
	start := time.Now()
	raw := make([][]*graph.Graph, instances)
	for k := range raw {
		raw[k] = suite(scale, s.seed*instances+int64(k))
	}
	var extra []*graph.Graph
	if s.gpu {
		for k := range instances {
			extra = append(extra, copaper(gen.Small, (s.seed*instances+int64(k))*1_000_003+5))
		}
	}
	s.genTime = time.Since(start)
	s.readTime, s.statsTime, s.readBytes, s.reads = 0, 0, 0, 0
	load := func(name string, g *graph.Graph) (*graph.Graph, graph.Stats, error) {
		rg, st, size, rt, stt, err := ingest(s.dir, name, g)
		s.readTime += rt
		s.statsTime += stt
		s.readBytes += size
		s.reads++
		return rg, st, err
	}
	s.sets, s.gstats = nil, nil
	for k := range raw {
		set := make([]*graph.Graph, gen.NumInputs)
		sts := make([]graph.Stats, gen.NumInputs)
		for in := gen.Input(0); in < gen.NumInputs; in++ {
			var err error
			if set[in], sts[in], err = load(fmt.Sprintf("%s-%d", in, k), raw[k][in]); err != nil {
				return err
			}
		}
		s.sets = append(s.sets, set)
		s.gstats = append(s.gstats, sts)
	}
	for k, g := range extra {
		set := make([]*graph.Graph, gen.NumInputs)
		sts := make([]graph.Stats, gen.NumInputs)
		var err error
		if set[gen.InputCoPaper], sts[gen.InputCoPaper], err = load(fmt.Sprintf("copaper-small-%d", k), g); err != nil {
			return err
		}
		s.sets = append(s.sets, set)
		s.gstats = append(s.gstats, sts)
	}
	return nil
}

// session is one supervised sweep: the supervisor and, for the
// cpu-study, the file-backed store its observer appends to.
type session struct {
	sup *sweep.Supervisor
	st  *store.Store
	// appendErrs counts store appends that failed; the observer runs on
	// the sweep's worker goroutine.
	appendErrs atomic.Int64
	// set is the graph set of the batch in flight. run sets it before
	// each supervisor call; the observer reads it during the call.
	set int
}

// open starts a session with fresh journal and store files. The
// cpu-study is supervised the way cmd/experiments runs it: verification,
// the scale-aware deadline, one sweep worker, a JSONL journal and a
// store cell per verified run. The gpu-study keeps the harness defaults
// (no journal or store); its deadline is the small-scale one because
// the MIS slice runs a small input. When win is live, the sweep records
// under it and each store append is a store.append span.
func (s *sweepStudy) open(tag string, win trace.Ctx) (*session, error) {
	opt := sweep.Options{Timeout: sweep.DefaultTimeout(gen.Small), Verify: true, Workers: 1, Trace: win}
	ss := &session{}
	if !s.gpu {
		journal := filepath.Join(s.dir, tag+".jsonl")
		storePath := filepath.Join(s.dir, tag+".store")
		for _, p := range []string{journal, storePath} {
			if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
				return nil, err
			}
		}
		st, err := store.Open(storePath)
		if err != nil {
			return nil, err
		}
		ss.st = st
		opt.Journal = journal
		opt.Observer = func(o sweep.Outcome) {
			if o.Kind != sweep.OK {
				return
			}
			sp := win.Start("store.append")
			err := st.Append(store.Cell{
				Cfg: o.Cfg, Input: o.Input.String(), Device: o.Device,
				Graph: s.gstats[ss.set][o.Input], Tput: o.Tput, Attempts: o.Attempts,
				ElapsedMS: ms(o.Elapsed),
			})
			sp.End()
			if err != nil {
				ss.appendErrs.Add(1)
				fmt.Fprintf(os.Stderr, "perfbench: store append: %v\n", err)
			}
		}
	}
	sup, err := sweep.New(opt)
	if err != nil {
		if ss.st != nil {
			ss.st.Close()
		}
		return nil, err
	}
	ss.sup = sup
	return ss, nil
}

// close closes the journal and store, counting failed store appends
// into r.
func (ss *session) close(r *result) error {
	if n := ss.appendErrs.Load(); n > 0 {
		r.failures["store-append"] += int(n)
	}
	err := ss.sup.Close()
	if ss.st != nil {
		if cerr := ss.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// run executes the plan's cells in order. Consecutive cells on one
// graph set go to the supervisor as one batch, so that, as in a study
// run, one supervisor call covers many variants on one worker pool. A
// run that exceeds budget stops after the batch in flight.
func (s *sweepStudy) run(ss *session, plan []planned, budget time.Duration) ([]sweep.Outcome, time.Duration) {
	ropt := algo.Options{Threads: threads}
	var outs []sweep.Outcome
	start := time.Now()
	for i := 0; i < len(plan) && time.Since(start) < budget; {
		set := plan[i].set
		var tasks []sweep.Task
		for ; i < len(plan) && len(tasks) < 256 && plan[i].set == set; i++ {
			tasks = append(tasks, plan[i].task)
		}
		ss.set = set
		outs = append(outs, ss.sup.Run(s.sets[set], ropt, tasks)...)
	}
	return outs, time.Since(start)
}

// tallyCells counts outcomes into the result, failures by kind, and
// returns how many verified.
func tallyCells(r *result, outs []sweep.Outcome) (ok int) {
	for _, o := range outs {
		r.attempted++
		if o.Kind == sweep.OK {
			ok++
		} else {
			r.failures[o.Kind.String()]++
		}
	}
	return ok
}

// sweepEndToEnd fills the untraced run's metrics from the outcomes of
// its passes over one plan. ops_per_s and verified_frac count every
// execution. A cell's time is its shortest execution: a vCPU of a shared
// host stalled for a moment delays one execution of the short,
// dispatch-bound cells around the median many times over, and the pass
// it missed still measures the program.
func sweepEndToEnd(r *result, passes [][]sweep.Outcome, wall time.Duration) {
	ok, n := 0, 0
	best := map[int]time.Duration{}
	for _, outs := range passes {
		ok += tallyCells(r, outs)
		n += len(outs)
		for i, o := range outs {
			if o.Kind == sweep.Quarantined {
				continue
			}
			if t, seen := best[i]; !seen || o.Elapsed < t {
				best[i] = o.Elapsed
			}
		}
	}
	cellMS := make([]float64, 0, len(best))
	for _, t := range best {
		cellMS = append(cellMS, ms(t))
	}
	r.values["ops_per_s"] = float64(n) / wall.Seconds()
	r.values["verified_frac"] = ratio(float64(ok), float64(n))
	r.values["op_ms_p50"] = hdQuantile(cellMS, 0.5)
	r.values["op_ms_p99"] = hdQuantile(cellMS, 0.99)
	r.notef("%d cell executions, passes over the plan: %d, %.3f s; op_ms percentiles over the shortest execution of each of %d cells that ran",
		n, len(passes), wall.Seconds(), len(cellMS))
}

// probeOut is the exact result of one direct runner call.
type probeOut struct {
	name  string
	iters int32
	sim   gpusim.Stats
}

// probe is one direct runner call, outside the supervisor.
type probe struct {
	g      *graph.Graph
	input  string
	cfg    styles.Config
	device string
}

// probes is the fixed set of direct runner calls of the traced run: on
// the CPU, one schedule-independent deterministic OMP variant of each
// algorithm on each input; on the simulator, the first variant of each
// algorithm on each input and profile (the simulator is deterministic
// for every style).
func (s *sweepStudy) probes() []probe {
	var ps []probe
	g := s.sets[0]
	if s.gpu {
		for _, prof := range gpusim.Profiles() {
			for _, a := range allAlgos {
				cfg := styles.Enumerate(a, styles.CUDA)[0]
				for in := gen.Input(0); in < gen.NumInputs; in++ {
					ps = append(ps, probe{g[in], in.String(), cfg, prof.Name})
				}
			}
		}
		return ps
	}
	return cpuProbes(g)
}

// cpuProbes picks, per algorithm, the first OMP variant whose iteration
// count cannot depend on the thread schedule: the deterministic
// (double-buffered) update style and, for PageRank, a pull flow with a
// clause reduction over the static schedule. Push-flow PageRank adds
// float32 contributions atomically and atomic or critical reductions
// sum in arrival order, so their convergence round varies from run to
// run even in the deterministic style.
func cpuProbes(g []*graph.Graph) []probe {
	var ps []probe
	for _, a := range allAlgos {
		for _, cfg := range styles.Enumerate(a, styles.OMP) {
			if cfg.Det != styles.Deterministic || (a == styles.PR &&
				(cfg.Flow != styles.Pull || cfg.CPURed != styles.ClauseRed || cfg.OMPSched != styles.DefaultSched)) {
				continue
			}
			for in := gen.Input(0); in < gen.NumInputs; in++ {
				ps = append(ps, probe{g[in], in.String(), cfg, sweep.DeviceCPU})
			}
			break
		}
	}
	return ps
}

// runProbes runs each probe once with a pinned pool, arena and (for the
// simulator) reused device, the way a sweep worker runs cells, and
// records iteration counts and simulated counters.
func runProbes(ps []probe, tc trace.Ctx) ([]probeOut, error) {
	pool := par.NewPool(threads)
	defer pool.Close()
	arena := scratch.Acquire()
	defer scratch.Release(arena)
	devs := map[string]*gpusim.Device{}
	var outs []probeOut
	for _, p := range ps {
		arena.Reset()
		opt := algo.Options{Threads: threads, Pool: pool, Scratch: arena, Trace: tc}
		o := probeOut{name: p.cfg.Name() + "|" + p.input + "|" + p.device}
		if p.device == sweep.DeviceCPU {
			res, err := runner.RunCPU(p.g, p.cfg, opt)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", o.name, err)
			}
			o.iters = res.Iterations
		} else {
			d := devs[p.device]
			if d == nil {
				prof, _ := profileByName(p.device)
				d = gpusim.New(prof)
				devs[p.device] = d
			}
			d.Reset()
			res, st, err := runner.RunGPU(d, p.g, p.cfg, opt)
			if err != nil {
				return nil, fmt.Errorf("probe %s: %w", o.name, err)
			}
			o.iters, o.sim = res.Iterations, st
		}
		outs = append(outs, o)
		tc.Flush()
	}
	return outs, nil
}

func profileByName(name string) (gpusim.Profile, bool) {
	for _, p := range gpusim.Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return gpusim.Profile{}, false
}

// compareProbes is the determinism cross-check on direct runner calls:
// iteration counts and simulated counters must repeat exactly.
func compareProbes(r *result, a, b []probeOut) {
	if len(a) != len(b) {
		r.incorrect("determinism: %d probes untraced, %d traced", len(a), len(b))
		return
	}
	for i := range a {
		if a[i] != b[i] {
			r.incorrect("determinism: probe %s gave %+v untraced, %+v traced", a[i].name, a[i], b[i])
		}
	}
}

// compareOutcomes is the determinism cross-check on the sweep: the same
// cells ran untraced and traced, and every simulated cell must end the
// same way with identical counters.
func compareOutcomes(r *result, a, b []sweep.Outcome) {
	for i := range min(len(a), len(b)) {
		oa, ob := a[i], b[i]
		if oa.Task != ob.Task {
			r.incorrect("determinism: cell %d is %s untraced, %s traced", i, oa.Key(), ob.Key())
			return
		}
		if oa.Device == sweep.DeviceCPU {
			continue
		}
		if oa.Kind != ob.Kind || oa.SimCycles != ob.SimCycles ||
			oa.SimInstructions != ob.SimInstructions || oa.SimTransactions != ob.SimTransactions {
			r.incorrect("determinism: %s ended %s/%d/%d/%d untraced, %s/%d/%d/%d traced", oa.Key(),
				oa.Kind, oa.SimCycles, oa.SimInstructions, oa.SimTransactions,
				ob.Kind, ob.SimCycles, ob.SimInstructions, ob.SimTransactions)
		}
	}
}

// allocProbe measures heap allocations per warmed run of the first
// probe variant of each algorithm on the road input, with the pool,
// arena and device pinned as the sweep pins them.
func allocProbe(ps []probe) (float64, error) {
	pool := par.NewPool(threads)
	defer pool.Close()
	arena := scratch.Acquire()
	defer scratch.Release(arena)
	seen := map[styles.Algorithm]bool{}
	var total float64
	n := 0
	for _, p := range ps {
		if p.input != gen.InputRoad.String() || seen[p.cfg.Algo] {
			continue
		}
		seen[p.cfg.Algo] = true
		opt := algo.Options{Threads: threads, Pool: pool, Scratch: arena}
		var err error
		var run func()
		if p.device == sweep.DeviceCPU {
			run = func() {
				arena.Reset()
				if _, e := runner.RunCPU(p.g, p.cfg, opt); e != nil {
					err = e
				}
			}
		} else {
			prof, _ := profileByName(p.device)
			d := gpusim.New(prof)
			run = func() {
				arena.Reset()
				d.Reset()
				if _, _, e := runner.RunGPU(d, p.g, p.cfg, opt); e != nil {
					err = e
				}
			}
		}
		total += allocsPerRun(run)
		n++
		if err != nil {
			return 0, fmt.Errorf("alloc probe %s: %w", p.cfg.Name(), err)
		}
	}
	return ratio(total, float64(n)), nil
}

// barrierKernel reports whether a CUDA variant's kernels synchronize
// warps at block barriers: block granularity, or a block or warp
// reduction in PR and TC (the launches that set NeedsBarrier).
func barrierKernel(c styles.Config) bool {
	switch c.Algo {
	case styles.PR:
		return c.Gran == styles.BlockGran || c.GPURed != styles.GlobalAdd
	case styles.TC:
		return c.GPURed != styles.GlobalAdd
	case styles.MIS:
		return c.Gran == styles.BlockGran
	}
	return false
}

// zeroCtx is the disabled tracer.
var zeroCtx trace.Ctx

// sweepLayers fills the per-layer metrics of a traced sweep from phase
// B's spans and outcomes and the traced probes.
func sweepLayers(r *result, s *sweepStudy, recs []spanRec, outs []sweep.Outcome, probes []probeOut) {
	a := aggregate(recs)
	r.values["verify.check_ms"] = a.meanMS("sweep.verify")
	r.values["verify.share"] = ratio(a.sumMS("sweep.verify"), a.sumMS("sweep.task"))
	r.values["runner.time_cpu_ms"] = a.meanMS("runner.time_cpu")
	r.values["runner.overhead_ms"] = ratio(a.sumMS("runner.time_cpu")-a.sumMS("runner.kernel"), float64(a.n["runner.time_cpu"]))
	r.values["sweep.task_ms"] = a.meanMS("sweep.task")
	r.values["sweep.overhead_ms"] = ratio(a.sumMS("sweep.task")-a.sumMS("runner.time_cpu", "runner.run_gpu", "sweep.verify"),
		float64(a.n["sweep.task"]))
	r.values["store.append_us"] = 1000 * a.meanMS("store.append")
	kernel := "runner.kernel"
	if s.gpu {
		kernel = "runner.run_gpu"
	}
	kernelMetrics(r, recs, kernel, func(rec spanRec) string { return rec.input })

	var retries, timeouts float64
	var tputs []float64
	for _, o := range outs {
		retries += float64(max(0, o.Attempts-1))
		if o.Kind == sweep.Timeout {
			timeouts++
		}
		if o.Kind == sweep.OK {
			tputs = append(tputs, o.Tput)
		}
	}
	r.values["algo.gteps_geomean"] = geomean(tputs)
	r.notef("algo.gteps_geomean over %d verified cells", len(tputs))

	r.values["sweep.retries"] = retries
	r.values["sweep.timeouts"] = timeouts

	var iters float64
	var sim gpusim.Stats
	for _, p := range probes {
		iters += float64(p.iters)
		sim.Add(p.sim)
	}
	r.values["algo.iterations.det"] = iters
	if !s.gpu {
		return
	}
	r.values["gpusim.cycles"] = float64(sim.Cycles)
	r.values["gpusim.instructions"] = float64(sim.Instructions)
	r.values["gpusim.transactions"] = float64(sim.Transactions)
	r.values["gpusim.atomics"] = float64(sim.Atomics)
	r.values["gpusim.l2_hit_ratio"] = ratio(float64(sim.L2Hits), float64(sim.L2Hits+sim.L2Misses))

	// Host cost of the simulator: each executed task's runner.run_gpu
	// time over the simulated instructions its outcome reports, split
	// by whether the variant's kernels run barrier blocks. Outcomes are
	// matched to sweep.task spans by variant, input and device, in run
	// order among equal keys (a MIS variant runs copaper both in the
	// small slice and in the tiny rounds).
	gpuTime := map[uint64]time.Duration{}
	tasks := map[string][]uint64{}
	for _, rec := range recs {
		switch rec.name {
		case "sweep.task":
			k := rec.variant + "|" + rec.input + "|" + rec.device
			tasks[k] = append(tasks[k], rec.task)
		case "runner.run_gpu":
			gpuTime[rec.task] += rec.dur
		}
	}
	var ns, instr [2]float64 // [flat, barrier]
	for _, o := range outs {
		if o.Kind == sweep.Quarantined {
			continue // never started a sweep.task span
		}
		key := o.Cfg.Name() + "|" + o.Input.String() + "|" + o.Device
		if len(tasks[key]) == 0 {
			r.incorrect("trace: no sweep.task span for %s", key)
			continue
		}
		t := tasks[key][0]
		tasks[key] = tasks[key][1:]
		if o.Kind != sweep.OK {
			continue
		}
		k := 0
		if barrierKernel(o.Cfg) {
			k = 1
		}
		ns[k] += float64(gpuTime[t])
		instr[k] += float64(o.SimInstructions)
	}
	r.values["gpusim.host_ns_per_instr"] = ratio(ns[0]+ns[1], instr[0]+instr[1])
	r.values["gpusim.host_ns_per_instr.flat"] = ratio(ns[0], instr[0])
	r.values["gpusim.host_ns_per_instr.barrier"] = ratio(ns[1], instr[1])
}
