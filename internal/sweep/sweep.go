// Package sweep is the fault-tolerant supervisor for large variant
// sweeps. The paper's methodology stands on running every meaningful
// style combination to completion and verifying each result against a
// serial reference (§4.1, §4.5) — which makes a 1106-variant study only
// as robust as its most broken variant family. The supervisor wraps the
// runner behind a worker pool with per-run deadlines, panic isolation,
// bounded retry with backoff, quarantine of repeat offenders, result
// verification, and a JSONL journal that lets an interrupted sweep
// resume where it left off instead of starting over.
//
// Failure taxonomy (see DESIGN.md): a run either produces a verified
// measurement (OK) or a structured Failure classified as Timeout (no
// result within the deadline), Panic (the variant crashed and was
// recovered), WrongAnswer (the result disagrees with the serial
// reference), Error (the runner returned a dispatch error), or
// Quarantined (skipped because the variant already failed repeatedly).
package sweep

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
	"time"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/gpusim"
	"indigo/internal/graph"
	"indigo/internal/guard"
	"indigo/internal/par"
	"indigo/internal/runner"
	"indigo/internal/scratch"
	"indigo/internal/styles"
	"indigo/internal/trace"
	"indigo/internal/verify"
)

// DeviceCPU is the Task.Device value for OMP/CPP variants; CUDA tasks
// name a gpusim profile instead.
const DeviceCPU = "cpu"

// Kind classifies how a supervised run ended.
type Kind int

const (
	// OK: the run completed (and verified, when enabled) in time.
	OK Kind = iota
	// Timeout: the run missed its per-run deadline. Almost always the
	// guard token stopped it cooperatively and the worker pool was
	// reclaimed intact (Outcome.Reclaim == ReclaimCancel); a run that
	// never reached a checkpoint within the grace window was abandoned
	// and its pool replaced (ReclaimAbandon).
	Timeout
	// Panic: the variant panicked and the supervisor recovered it.
	Panic
	// WrongAnswer: the result failed the serial-reference check.
	WrongAnswer
	// Error: the runner returned an error (e.g. a dispatch mismatch).
	Error
	// Quarantined: skipped without running because the variant already
	// exhausted its failure budget on earlier tasks.
	Quarantined
)

func (k Kind) String() string {
	switch k {
	case OK:
		return "ok"
	case Timeout:
		return "timeout"
	case Panic:
		return "panic"
	case WrongAnswer:
		return "wrong-answer"
	case Error:
		return "error"
	case Quarantined:
		return "quarantined"
	}
	return "unknown"
}

func parseKind(s string) (Kind, bool) {
	for k := OK; k <= Quarantined; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return OK, false
}

// Task identifies one supervised run: a variant on one input, on one
// device ("cpu" or a gpusim profile name).
type Task struct {
	Cfg    styles.Config
	Input  gen.Input
	Device string
}

// Key is the task's stable journal identity.
func (t Task) Key() string {
	return t.Cfg.Name() + "|" + t.Input.String() + "|" + t.Device
}

// How a timed-out run's resources were recovered (Outcome.Reclaim).
const (
	// ReclaimCancel: the run observed its tripped guard token at a
	// checkpoint and returned cooperatively; the worker pool and arena
	// were reclaimed intact. The cell's partial work is simply lost —
	// nothing is poisoned, and resume may re-run it safely.
	ReclaimCancel = "cancel"
	// ReclaimAbandon: the run never reached a checkpoint within the
	// grace window (a wedged worker, a stall in foreign code); its pool
	// was closed and replaced and its arena retired. The runtime that
	// produced this record was poisoned, so resume re-runs the cell
	// rather than trusting the replay.
	ReclaimAbandon = "abandon"
)

// Outcome is the supervisor's record of one task: either a measurement
// (Kind == OK) or a classified failure.
type Outcome struct {
	Task
	Kind     Kind
	Tput     float64 // giga-edges per second; valid only when Kind == OK
	Err      string
	Attempts int
	Elapsed  time.Duration
	// Reclaim records how a Timeout's resources were recovered:
	// ReclaimCancel or ReclaimAbandon. Empty for every other kind.
	Reclaim string
	// CancelNS is the reclaim latency of a cooperative cancel: the time
	// from the deadline tripping the token to the run returning,
	// nanoseconds. Zero for abandons (there is no return to measure).
	CancelNS int64
	// Resumed marks outcomes replayed from the journal rather than run.
	Resumed bool
	// SimCycles, SimInstructions, and SimTransactions are the simulated
	// device counters of a successful GPU cell (zero for CPU cells and
	// failures). The simulator's sharded cost model makes them
	// deterministic — a pure function of (kernel, graph, profile) — so
	// they are exact, cacheable ground truth.
	SimCycles       int64
	SimInstructions int64
	SimTransactions int64
}

// Failure is the failure view of an outcome, the record figure drivers
// aggregate when annotating reports built over partial data.
type Failure struct {
	Cfg    styles.Config
	Input  gen.Input
	Device string
	Kind   Kind
	Err    string
}

// Failure converts a non-OK outcome.
func (o Outcome) Failure() Failure {
	return Failure{Cfg: o.Cfg, Input: o.Input, Device: o.Device, Kind: o.Kind, Err: o.Err}
}

// Options configures a Supervisor.
type Options struct {
	// Timeout is the per-run deadline; 0 disables deadlines. Use
	// DefaultTimeout for a scale-aware default. A run that misses it is
	// stopped cooperatively through its guard token; see ReclaimGrace.
	Timeout time.Duration
	// ReclaimGrace is how long after the deadline the supervisor waits
	// for the canceled run to observe its token and return before giving
	// up and abandoning it (closing its pool, retiring its arena).
	// 0 means one second.
	ReclaimGrace time.Duration
	// MemBudget, when positive, caps the bytes each attempt's scratch
	// arena may freshly allocate; an overdraw fails the run with
	// guard.ErrBudgetExceeded (a deterministic Error, never retried)
	// instead of OOMing the sweep.
	MemBudget int64
	// Outer, when non-nil, couples every attempt's per-run guard token
	// to this session-level token: when Outer trips (a tune-session
	// deadline or budget, an HTTP request cancel), the in-flight attempt
	// is canceled cooperatively at its next checkpoint instead of
	// running on to its own per-run deadline. The attempt then surfaces
	// as a Timeout (outer deadline) or Error (outer cancel); callers
	// that armed Outer inspect it to tell a session stop from a variant
	// failure.
	Outer *guard.Token
	// Workers caps how many host-timed (CPU) tasks run at once. The
	// default (<= 1) runs each one alone: variants are internally
	// parallel, and concurrent runs perturb each other's timing. Raise
	// it for verification sweeps where only correctness matters.
	// Simulated-GPU tasks are not capped by it: their measurement is
	// simulated cycles, so they run on up to GOMAXPROCS workers.
	Workers int
	// Retries is how many times a transiently failed run (timeout,
	// panic, wrong answer) is re-attempted before its failure is
	// recorded. Dispatch errors are deterministic and never retried.
	Retries int
	// Backoff is the pause before the first retry; it doubles per
	// subsequent attempt.
	Backoff time.Duration
	// QuarantineAfter quarantines a variant once this many of its tasks
	// have failed (post-retry): later tasks for that variant are skipped
	// as Quarantined instead of run. 0 means 2; negative disables.
	QuarantineAfter int
	// Verify checks every result against the cached serial reference
	// and classifies disagreements as WrongAnswer (§4.1).
	Verify bool
	// Journal is a JSONL path appended to after every completed task;
	// empty disables journaling.
	Journal string
	// Resume replays tasks already recorded in Journal instead of
	// re-running them, so an interrupted sweep continues where it died.
	Resume bool
	// Progress, when set, is called after every task (including resumed
	// and quarantined ones) with the running completion count, on Run's
	// goroutine, in task order.
	Progress func(done, total int, o Outcome)
	// Observer, when set, receives every completed outcome (including
	// resumed replays) right after it is journaled. It is how the
	// results store subscribes to a sweep without the supervisor
	// depending on internal/store: the wiring layer (harness, cmd)
	// passes an observer that appends OK outcomes as store cells.
	// Called on Run's goroutine, in task order.
	Observer func(Outcome)
	// Trace, when live, is the span the sweep records under: one
	// sweep.task span per executed task (with sweep.attempt children and
	// retry/quarantine/reclaim/discard points), flushed to the tracer's
	// sink as each task commits. The zero value disables tracing for free.
	Trace trace.Ctx
}

// DefaultTimeout is the scale-aware per-run deadline: generous enough
// that no healthy variant at that scale comes near it, tight enough
// that a hung sweep fails in minutes rather than silently forever.
func DefaultTimeout(s gen.Scale) time.Duration {
	switch s {
	case gen.Tiny:
		return 30 * time.Second
	case gen.Small:
		return 2 * time.Minute
	case gen.Medium:
		return 10 * time.Minute
	}
	return 30 * time.Minute
}

// Supervisor executes tasks under the configured failure policy. It is
// safe for use from one Run call at a time; the worker pool inside a
// Run call is concurrent.
type Supervisor struct {
	opt   Options
	jrnl  *journal
	prior map[string]Outcome // journaled outcomes, for resume

	mu          sync.Mutex
	failCount   map[string]int // exhausted-task failures per variant name
	quarantined map[string]bool
	done        int

	refMu sync.Mutex
	refs  map[*graph.Graph]*refEntry
}

type refEntry struct {
	mu  sync.Mutex
	ref *verify.Reference
}

// New creates a Supervisor, opening the journal (and loading it, when
// resuming) if one is configured.
func New(opt Options) (*Supervisor, error) {
	if opt.QuarantineAfter == 0 {
		opt.QuarantineAfter = 2
	}
	s := &Supervisor{
		opt:         opt,
		prior:       map[string]Outcome{},
		failCount:   map[string]int{},
		quarantined: map[string]bool{},
		refs:        map[*graph.Graph]*refEntry{},
	}
	if opt.Journal != "" {
		if opt.Resume {
			prior, err := ReadJournal(opt.Journal)
			if err != nil {
				return nil, err
			}
			s.prior = prior
		}
		j, err := openJournal(opt.Journal)
		if err != nil {
			return nil, err
		}
		s.jrnl = j
	}
	return s, nil
}

// Close flushes and closes the journal, if any.
func (s *Supervisor) Close() error {
	if s.jrnl == nil {
		return nil
	}
	return s.jrnl.close()
}

// Failures filters the non-OK outcomes.
func Failures(outcomes []Outcome) []Failure {
	var fs []Failure
	for _, o := range outcomes {
		if o.Kind != OK {
			fs = append(fs, o.Failure())
		}
	}
	return fs
}

// Run executes every task and returns an outcome per task, in task
// order. graphs must be indexed by gen.Input (entries for inputs no
// task names may be nil). The sweep never aborts: failures are
// classified, journaled, and returned alongside the measurements.
//
// Tasks run on a pool of workers, each with its own par pool, arena and
// simulated devices. A host-timed task (Device "cpu") is one whose
// measurement concurrent work would perturb, so at most Workers of them
// are in flight, and with Workers <= 1 one runs alone. A simulated task
// measures simulated cycles, which host concurrency cannot change, so
// simulated tasks fan out to GOMAXPROCS workers. Whatever the width,
// outcomes are committed in task order on the calling goroutine —
// journal, Observer, Progress, trace flush and quarantine bookkeeping —
// so every outcome, the journal and the quarantine set are those of a
// one-at-a-time run.
func (s *Supervisor) Run(graphs []*graph.Graph, ropt algo.Options, tasks []Task) []Outcome {
	host := max(s.opt.Workers, 1)
	width := host
	for _, t := range tasks {
		if !t.hostTimed() {
			width = max(width, runtime.GOMAXPROCS(0))
			break
		}
	}
	width = min(width, len(tasks))
	g := newGate(host)
	runs := make([]run, len(tasks))
	idx := make(chan int)
	fin := make(chan int, len(tasks))
	var wg sync.WaitGroup
	wg.Add(width)
	for w := 0; w < width; w++ {
		go func() {
			defer wg.Done()
			// Each sweep worker owns one persistent par pool, reused
			// across every variant it runs (the tentpole's cross-variant
			// amortization); a timed-out run wedges the pool, so it is
			// replaced before the next attempt touches it.
			h := newPoolHolder(ropt)
			defer h.close()
			for i := range idx {
				runs[i] = s.runTask(graphs, ropt, tasks[i], h)
				fin <- i
			}
		}()
	}
	// Dispatch in task order. A task holds its share of the gate from
	// before it takes a worker until its commit, so a host-timed task
	// that must run alone waits until every task ahead of it has been
	// committed, and holds back every task behind it until its own
	// commit: it runs exactly as in a one-at-a-time sweep.
	go func() {
		for i, t := range tasks {
			g.acquire(t.hostTimed())
			idx <- i
		}
		close(idx)
	}()
	out := make([]Outcome, len(tasks))
	ready := make([]bool, len(tasks))
	for next := 0; next < len(tasks); {
		i := <-fin
		ready[i] = true
		for ; next < len(tasks) && ready[next]; next++ {
			out[next] = s.commit(runs[next], len(tasks))
			g.release(tasks[next].hostTimed())
		}
	}
	wg.Wait()
	return out
}

// hostTimed reports whether the task's measurement is host time, which
// concurrent work on the host would perturb.
func (t Task) hostTimed() bool { return t.Device == DeviceCPU }

// gate admits tasks to the workers in dispatch order: host-timed tasks
// take the write side when they must run alone (Workers <= 1), else the
// read side plus one of the Workers host slots; simulated tasks take the
// read side.
type gate struct {
	rw        sync.RWMutex
	exclusive bool
	host      chan struct{}
}

func newGate(host int) *gate {
	return &gate{exclusive: host == 1, host: make(chan struct{}, host)}
}

func (g *gate) acquire(hostTimed bool) {
	switch {
	case !hostTimed:
		g.rw.RLock()
	case g.exclusive:
		g.rw.Lock()
	default:
		g.host <- struct{}{}
		g.rw.RLock()
	}
}

func (g *gate) release(hostTimed bool) {
	switch {
	case !hostTimed:
		g.rw.RUnlock()
	case g.exclusive:
		g.rw.Unlock()
	default:
		g.rw.RUnlock()
		<-g.host
	}
}

// run is one task's result on its way from its worker to the commit.
type run struct {
	o Outcome
	// ran marks an outcome of the attempt loop: its failure counts
	// towards quarantine, and commit discards it if the variant was
	// quarantined while it ran.
	ran bool
	// span is the task's sweep.task span, held until commit.
	span trace.Ctx
}

// commit settles a task's outcome in task order: it applies quarantine
// as a one-at-a-time sweep would have, then journals the outcome,
// notifies the observer, reports progress and flushes the task's spans.
func (s *Supervisor) commit(r run, total int) Outcome {
	o := r.o
	name := o.Cfg.Name()
	s.mu.Lock()
	switch {
	case o.Resumed:
		s.opt.Trace.PointAttr("sweep.resume", "task", o.Key())
	case s.quarantined[name]:
		// An earlier task's failure quarantined the variant after this
		// one was dispatched: a one-at-a-time sweep would have skipped
		// it, so its run is discarded.
		if r.ran {
			r.span.PointAttr("sweep.discard", "variant", name)
		}
		s.opt.Trace.PointAttr("sweep.quarantine", "variant", name)
		o = Outcome{Task: o.Task, Kind: Quarantined,
			Err: "variant quarantined after repeated failures"}
	case r.ran && o.Kind != OK && s.opt.QuarantineAfter > 0:
		s.failCount[name]++
		if s.failCount[name] >= s.opt.QuarantineAfter {
			s.quarantined[name] = true
		}
	}
	s.done++
	done := s.done
	s.mu.Unlock()
	r.span.Commit()

	if s.jrnl != nil && !o.Resumed {
		if err := s.jrnl.append(o); err != nil {
			fmt.Fprintf(os.Stderr, "sweep: journal append failed: %v\n", err)
		}
	}
	if s.opt.Observer != nil {
		s.opt.Observer(o)
	}
	if s.opt.Progress != nil {
		s.opt.Progress(done, total, o)
	}
	// Task end is a run boundary: push the task's completed spans to the
	// journal before the next task commits.
	s.opt.Trace.Flush()
	return o
}

// poolHolder owns one sweep worker's persistent par pool and scratch
// arena so consecutive variants reuse the same worker goroutines and the
// same slab memory instead of paying pool construction and per-run
// allocation per run.
type poolHolder struct {
	width int
	pool  *par.Pool
	arena *scratch.Arena
	// devs holds one simulated device per GPU profile, reused across the
	// worker's attempts (Reset between runs restores the post-New state,
	// so reuse cannot perturb the deterministic Stats) instead of paying
	// device construction — a few MB of cost-model tables — per attempt.
	devs map[string]*gpusim.Device
}

func newPoolHolder(ropt algo.Options) *poolHolder {
	w := ropt.Threads
	if w <= 0 {
		w = par.Threads()
	}
	return &poolHolder{width: w, pool: par.NewPool(w), arena: scratch.Acquire(),
		devs: make(map[string]*gpusim.Device)}
}

// device returns the worker's reusable device for prof, reset to its
// post-New state. Call from the supervisor goroutine before handing the
// device to an attempt.
func (h *poolHolder) device(prof gpusim.Profile) *gpusim.Device {
	d := h.devs[prof.Name]
	if d == nil {
		d = gpusim.New(prof)
		h.devs[prof.Name] = d
	} else {
		d.Reset()
	}
	return d
}

// replace retires the current pool and arena and builds fresh ones. It
// must be called after a timed-out attempt is abandoned: the abandoned
// run may still occupy the old pool's workers (e.g. a stalled region)
// and may still be scribbling on the old arena's slabs, so the pool is
// closed (late dispatches fall back to spawn-per-region) and the arena
// is retired (a late checkout or Reset panics inside the abandoned
// goroutine, where the attempt's recover contains it) while replacements
// serve subsequent attempts with clean state.
func (h *poolHolder) replace() {
	h.pool.Close()
	h.pool = par.NewPool(h.width)
	h.arena.Retire()
	h.arena = scratch.Acquire()
	// The abandoned run may still be scribbling on its device's arrays
	// and cost shards; abandon the devices with it, unclosed, since
	// Close must not race its in-flight launch.
	h.devs = make(map[string]*gpusim.Device)
}

func (h *poolHolder) close() {
	h.pool.Close()
	scratch.Release(h.arena)
	for _, d := range h.devs {
		d.Close()
	}
}

// runTask resolves resume and quarantine as far as the tasks committed
// so far decide them, then drives the retry loop. It runs on a worker;
// commit settles the outcome.
func (s *Supervisor) runTask(graphs []*graph.Graph, ropt algo.Options, t Task, h *poolHolder) run {
	if prior, ok := s.prior[t.Key()]; ok {
		// Abandoned timeouts are not replayed: the runtime that produced
		// them was poisoned (wedged pool, retired arena), so the record
		// describes the old process's distress, not the cell. Re-run it.
		// Cooperatively canceled timeouts replay fine — the cell really is
		// too slow for the deadline.
		if !(prior.Kind == Timeout && prior.Reclaim == ReclaimAbandon) {
			prior.Resumed = true
			return run{o: prior}
		}
	}
	name := t.Cfg.Name()
	s.mu.Lock()
	skip := s.quarantined[name]
	s.mu.Unlock()
	if skip {
		return run{o: Outcome{Task: t, Kind: Quarantined}}
	}

	if int(t.Input) < 0 || int(t.Input) >= len(graphs) || graphs[t.Input] == nil {
		return run{o: Outcome{Task: t, Kind: Error,
			Err: fmt.Sprintf("no graph for input %q", t.Input)}}
	}
	g := graphs[t.Input]

	sp := s.opt.Trace.Hold().Start("sweep.task")
	if sp.Live() {
		sp = sp.Attr("variant", name).Attr("input", t.Input.String()).Attr("device", t.Device)
	}
	defer sp.End()
	ropt.Trace = sp

	start := time.Now()
	var o Outcome
	for attempt := 1; ; attempt++ {
		kind, tput, sim, msg, reclaim, cancelNS := s.attempt(g, ropt, t.Cfg, t.Device, h)
		o = Outcome{Task: t, Kind: kind, Tput: tput, Err: msg, Attempts: attempt,
			Reclaim: reclaim, CancelNS: cancelNS,
			SimCycles: sim.Cycles, SimInstructions: sim.Instructions,
			SimTransactions: sim.Transactions}
		if kind == OK || kind == Error || attempt > s.opt.Retries {
			break
		}
		sp.PointAttr("sweep.retry", "kind", kind.String())
		if s.opt.Backoff > 0 {
			time.Sleep(s.opt.Backoff << (attempt - 1))
		}
	}
	o.Elapsed = time.Since(start)
	return run{o: o, ran: true, span: sp}
}

// reply carries one attempt's result out of the run goroutine.
type reply struct {
	res      algo.Result
	tput     float64
	sim      gpusim.Stats
	err      error
	panicked any
}

// attempt executes one run of cfg on g under deadline, budget, and panic
// isolation. The deadline is enforced cooperatively: the attempt's guard
// token is armed with the timeout and threaded through the run (pool
// regions, kernel rounds, arena charges), so a timed-out run normally
// cancels itself and hands the worker pool back intact. Only a run that
// never reaches a checkpoint within the reclaim grace window is
// abandoned the old way — pool closed and replaced, arena retired — and
// parks harmlessly on the buffered channel if it ever finishes.
//
// attempt is the shared core of the supervisor's retry loop and the
// exported Prober (the tuner's measurement primitive): it takes the
// graph directly rather than a gen.Input, so callers may probe graphs
// that are not part of the generated suite (e.g. a file-loaded input).
func (s *Supervisor) attempt(g *graph.Graph, ropt algo.Options, cfg styles.Config, device string, h *poolHolder) (kind Kind, tput float64, sim gpusim.Stats, msg, reclaim string, cancelNS int64) {
	asp := ropt.Trace.Start("sweep.attempt")
	if asp.Live() {
		asp = asp.Attr("variant", cfg.Name()).Attr("device", device)
	}
	defer asp.End()
	ropt.Trace = asp
	// Resolve the reusable device here, before the run goroutine starts,
	// so holder state is only ever touched from the supervisor goroutine.
	var dev *gpusim.Device
	if device != DeviceCPU {
		if prof, ok := profileByName(device); ok {
			dev = h.device(prof)
		}
	}
	ropt.Pool = h.pool // pin CPU regions to this worker's persistent pool
	if h.arena != nil {
		// Reuse the worker's warmed arena. The previous attempt's result
		// has been fully consumed (verified or discarded) by now, so its
		// aliased slabs are free to recycle.
		h.arena.Reset()
		ropt.Scratch = h.arena
	}

	gd := guard.New().WithTimeout(s.opt.Timeout).WithBudget(s.opt.MemBudget)
	defer gd.Release()
	stopProp := guard.Propagate(s.opt.Outer, gd)
	defer stopProp()
	ropt.Guard = gd
	// Charge the arena's fresh growth against this attempt's budget. The
	// goroutine start below orders the write for the run; the reply
	// receive orders the clearing write after it.
	h.arena.SetGuard(gd)

	grace := s.opt.ReclaimGrace
	if grace <= 0 {
		grace = time.Second
	}
	var graceC <-chan time.Time
	if s.opt.Timeout > 0 {
		timer := time.NewTimer(s.opt.Timeout + grace)
		defer timer.Stop()
		graceC = timer.C
	}
	armed := time.Now()

	ch := make(chan reply, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				if err, ok := guard.AbortError(p); ok {
					// A cooperative abort that escaped the runner boundary
					// (e.g. an arena charge outside RunCPU) is a
					// cancellation, not a crash.
					ch <- reply{err: err}
				} else {
					ch <- reply{panicked: p}
				}
			}
		}()
		var r reply
		if device == DeviceCPU {
			r.res, r.tput, r.err = runner.TimeCPU(g, cfg, ropt)
		} else if dev != nil {
			r.res, r.tput, r.sim, r.err = runner.MeasureGPU(dev, g, cfg, ropt)
		} else {
			r.err = fmt.Errorf("unknown device %q", device)
		}
		ch <- r
	}()

	select {
	case <-graceC:
		// The run blew through deadline AND grace without reaching a
		// checkpoint — it is wedged somewhere the token cannot see. Fall
		// back to abandonment: close the pool (late dispatches degrade to
		// spawn-per-region), retire the arena (late checkouts panic inside
		// the attempt's recover), and give later attempts clean state.
		h.replace()
		asp.PointAttr("sweep.reclaim", "mode", ReclaimAbandon)
		return Timeout, math.NaN(), gpusim.Stats{},
			fmt.Sprintf("no result within %v and no checkpoint within the %v grace window",
				s.opt.Timeout, grace), ReclaimAbandon, 0
	case r := <-ch:
		h.arena.SetGuard(nil)
		switch {
		case errors.Is(r.err, guard.ErrDeadlineExceeded):
			// The canceled run returned on its own: the pool and arena are
			// intact and will serve the next attempt as-is. Record how long
			// the cancel took to land.
			lat := time.Since(armed) - s.opt.Timeout
			if lat < 0 {
				lat = 0
			}
			asp.PointAttr("sweep.reclaim", "mode", ReclaimCancel)
			return Timeout, math.NaN(), gpusim.Stats{},
				fmt.Sprintf("canceled after %v deadline", s.opt.Timeout),
				ReclaimCancel, int64(lat)
		case errors.Is(r.err, guard.ErrBudgetExceeded):
			// Deterministic — the variant needs more memory than the budget
			// allows — so Error, which the retry loop never re-attempts.
			return Error, math.NaN(), gpusim.Stats{},
				fmt.Sprintf("memory budget of %d bytes exceeded", s.opt.MemBudget), "", 0
		case r.panicked != nil:
			return Panic, math.NaN(), gpusim.Stats{}, fmt.Sprint(r.panicked), "", 0
		case r.err != nil:
			return Error, math.NaN(), gpusim.Stats{}, r.err.Error(), "", 0
		case !(r.tput > 0): // catches NaN from zero/negative elapsed
			return Error, math.NaN(), gpusim.Stats{}, fmt.Sprintf("invalid throughput %v (non-positive elapsed time)", r.tput), "", 0
		}
		if s.opt.Verify {
			vsp := asp.Start("sweep.verify")
			err := s.check(g, ropt, cfg, r.res)
			vsp.End()
			if err != nil {
				return WrongAnswer, math.NaN(), gpusim.Stats{}, err.Error(), "", 0
			}
		}
		return OK, r.tput, r.sim, "", "", 0
	}
}

// check verifies res against the per-graph serial reference. References
// compute their serial solutions lazily and are not safe for concurrent
// use, so each is guarded by its own mutex.
func (s *Supervisor) check(g *graph.Graph, ropt algo.Options, cfg styles.Config, res algo.Result) error {
	s.refMu.Lock()
	e := s.refs[g]
	if e == nil {
		e = &refEntry{ref: verify.NewReference(g, ropt)}
		s.refs[g] = e
	}
	s.refMu.Unlock()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.ref.Check(cfg, res)
}

func profileByName(name string) (gpusim.Profile, bool) {
	for _, p := range gpusim.Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return gpusim.Profile{}, false
}
