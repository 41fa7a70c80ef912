package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"indigo/internal/guard"
)

// This file is the persistent worker-pool runtime behind the package's
// fork/join loops. The paper's throughput numbers come from tight
// per-round `parallel for` regions — road-network inputs run hundreds of
// small-frontier rounds per measurement — so spawning t fresh goroutines
// per region makes dispatch overhead, not the style under study,
// dominate exactly the measurements the reproduction exists to compare.
// A Pool keeps t-1 long-lived workers (the region's caller doubles as
// worker 0) and dispatches regions through a spin-then-park barrier:
// publishing a new region pointer is the epoch tick, spinning workers
// pick it up with two atomic loads, and parked workers are woken through
// a per-worker one-token channel, Go's closest analog to a futex wake.
//
// Regions are elastic: the t logical worker shares are tid slots claimed
// from a per-region counter by whichever goroutines arrive first — the
// caller claims remaining slots instead of idling at the join, so on a
// machine with fewer cores than t (the extreme being one core) a small
// region often completes entirely on the caller with zero context
// switches. Bodies that rendezvous across tids (the GPU simulator's
// barrier kernels) need one goroutine per tid and use ForConcurrent,
// which pins slot tid to worker goroutine tid.
//
// What the pool deliberately does NOT change: the iteration→worker
// assignment of every schedule is bit-identical to the spawn-per-region
// implementation (verified by TestPoolScheduleEquivalence), the dynamic
// schedule still takes every chunk from one shared atomic counter at
// dynChunk grain (that contention is the modeled phenomenon of §5.11),
// panics still surface on the region's caller, and the chaos hook still
// runs once per logical worker per region.

// Executor runs parallel regions with a fixed logical thread count. Both
// a *Pool and the package-level spawn-or-pooled front end (Fixed)
// implement it, so algorithm kernels can be handed either.
type Executor interface {
	// Width is the logical thread count t: ForTID passes tids in
	// [0, Width()) and clause reductions size their partials by it.
	Width() int
	// For executes body(i) for every i in [0, n) under schedule s.
	For(n int64, s Sched, body func(i int64))
	// ForTID is For with the worker id passed to the body.
	ForTID(n int64, s Sched, body func(tid int, i int64))
}

// region is one dispatched parallel region: the loop bounds, schedule,
// body, and the join state.
//
// Regions are recycled through a two-slot ring on the Pool (prev/spare)
// so steady-state dispatch allocates nothing. Recycling a region that a
// stale worker might still read would race its reinitialization, so the
// pool uses a publish-then-validate protocol: a worker first publishes
// the region pointer it is about to read (poolWorker.seen), then
// validates that the pool's current-region pointer still equals it
// before touching any field; the dispatcher recycles a spare region only
// if no worker has it published. If validation fails the region was
// superseded, which means its join already resolved without this worker
// (dispatch is serialized, so a new current region implies the old one
// joined) — skipping it is safe. Field writes during reinit are
// therefore always ordered against stale readers: either the dispatcher
// observed seen != region (the worker's prior reads happened before its
// last seen update, which the dispatcher's load synchronizes with), or
// the worker validates and only reads after observing the republished
// pointer, which the dispatcher stores after reinit completes.
type region struct {
	t       int
	n       int64
	sched   Sched
	body    func(i int64)
	bodyTID func(tid int, i int64)
	// elastic regions let any goroutine claim any tid slot; non-elastic
	// regions (ForConcurrent) pin slot tid to worker goroutine tid, which
	// rendezvousing bodies require.
	elastic bool
	// claim is the next unclaimed tid slot of an elastic region. It
	// starts at 1: the caller always runs slot 0.
	claim atomic.Int32
	// next is the dynamic schedule's shared chunk counter. It is shared
	// by design: OpenMP's dynamic runtime cost is one of the styles the
	// study measures (§5.11), so it must stay contended.
	next atomic.Int64
	// pending counts tid slots (including the caller's) not yet finished.
	pending atomic.Int32
	// join is the caller's parking state (cstSpinning/cstParked/cstDone),
	// the Dekker flag that decides whether the region's last finisher owes
	// the caller a wake token on the pool's done channel.
	join atomic.Int32
	tr   trap
	// gd, when non-nil, makes workers poll the token at guardStride-amortized
	// checkpoints. A tripped token aborts the worker's share via a typed
	// panic that rides tr to the region's caller like any other panic.
	gd *guard.Token
}

// reinit prepares a (fresh or recycled) region for dispatch. Atomics are
// reset field by field — a recycled region's previous dispatch has fully
// joined, and the recycle protocol guarantees no stale reader, so plain
// reinitialization is safe.
func (r *region) reinit(t int, n int64, s Sched, body func(i int64), bodyTID func(tid int, i int64), elastic bool, gd *guard.Token) {
	r.t, r.n, r.sched = t, n, s
	r.body, r.bodyTID = body, bodyTID
	r.elastic = elastic
	r.gd = gd
	r.claim.Store(1) // slot 0 is the caller's
	r.next.Store(0)
	r.pending.Store(int32(t))
	r.join.Store(cstSpinning)
	r.tr.reset()
}

// Caller join states.
const (
	cstSpinning int32 = iota // caller is polling pending
	cstParked                // caller committed to blocking on done
	cstDone                  // last worker finished while the caller spun
)

// finish retires one completed tid slot. The goroutine that retires the
// last slot resolves the Dekker handshake with the (possibly parked)
// caller; see Pool.join.
func (r *region) finish(p *Pool) {
	if r.pending.Add(-1) == 0 {
		if !r.join.CompareAndSwap(cstSpinning, cstDone) {
			p.done <- struct{}{} // the caller parked first: it awaits a token
		}
	}
}

// exec runs worker tid's share of the region, trapping panics and
// applying the chaos hook exactly like a spawned worker would. Guarded
// regions take the checkpointed twin instead; unguarded regions keep
// these branch-free loops, so a live token is the only thing that pays
// for guarding.
func (r *region) exec(tid int) {
	if r.gd != nil {
		r.execGuarded(tid)
		return
	}
	defer r.tr.capture()
	chaosEnter(tid)
	t := int64(r.t)
	switch r.sched {
	case Static, Blocked:
		beg := int64(tid) * r.n / t
		end := int64(tid+1) * r.n / t
		if r.body != nil {
			for i := beg; i < end; i++ {
				r.body(i)
			}
		} else {
			for i := beg; i < end; i++ {
				r.bodyTID(tid, i)
			}
		}
	case Cyclic:
		if r.body != nil {
			for i := int64(tid); i < r.n; i += t {
				r.body(i)
			}
		} else {
			for i := int64(tid); i < r.n; i += t {
				r.bodyTID(tid, i)
			}
		}
	case Dynamic:
		for {
			beg := r.next.Add(dynChunk) - dynChunk
			if beg >= r.n {
				return
			}
			end := beg + dynChunk
			if end > r.n {
				end = r.n
			}
			if r.body != nil {
				for i := beg; i < end; i++ {
					r.body(i)
				}
			} else {
				for i := beg; i < end; i++ {
					r.bodyTID(tid, i)
				}
			}
		}
	}
}

// guardStride is how many iterations a guarded worker runs between token
// polls. A poll is one atomic load, so at this stride the checkpoint cost
// is amortized to noise even on trivially cheap bodies, while a worker in
// a million-edge round still observes a cancel within ~2k iterations.
const guardStride = 2048

// execGuarded is exec for guarded regions: the same iteration→worker
// assignment per schedule, with a token poll folded in every guardStride
// iterations. A share that fits inside one stride runs the plain loops
// from exec with no poll in sight — not just skipping the call: keeping
// the (panic-throwing) checkpoint out of the loop body entirely lets the
// compiler emit the same code as the unguarded twin, which is what holds
// guarded overhead at noise level for the small-frontier regions
// road-network rounds are made of. Staleness is still bounded: the
// dispatch-entry poll runs once per region in the submitting goroutine,
// so a canceled run stops between regions even when every worker share
// is sub-stride. Only oversized shares take the chunked (contiguous) or
// credit-counter (strided/dynamic) checkpointed loops.
func (r *region) execGuarded(tid int) {
	defer r.tr.capture()
	chaosEnter(tid)
	gd := r.gd
	t := int64(r.t)
	switch r.sched {
	case Static, Blocked:
		beg := int64(tid) * r.n / t
		end := int64(tid+1) * r.n / t
		if end-beg <= guardStride {
			if r.body != nil {
				for i := beg; i < end; i++ {
					r.body(i)
				}
			} else {
				for i := beg; i < end; i++ {
					r.bodyTID(tid, i)
				}
			}
			return
		}
		for beg < end {
			stop := beg + guardStride
			if stop > end {
				stop = end
			}
			if r.body != nil {
				for i := beg; i < stop; i++ {
					r.body(i)
				}
			} else {
				for i := beg; i < stop; i++ {
					r.bodyTID(tid, i)
				}
			}
			beg = stop
			if beg < end {
				gd.Poll()
			}
		}
	case Cyclic:
		if r.n <= guardStride*t {
			if r.body != nil {
				for i := int64(tid); i < r.n; i += t {
					r.body(i)
				}
			} else {
				for i := int64(tid); i < r.n; i += t {
					r.bodyTID(tid, i)
				}
			}
			return
		}
		credit := int64(guardStride)
		if r.body != nil {
			for i := int64(tid); i < r.n; i += t {
				r.body(i)
				if credit--; credit == 0 {
					credit = guardStride
					gd.Poll()
				}
			}
		} else {
			for i := int64(tid); i < r.n; i += t {
				r.bodyTID(tid, i)
				if credit--; credit == 0 {
					credit = guardStride
					gd.Poll()
				}
			}
		}
	case Dynamic:
		credit := int64(guardStride)
		for {
			beg := r.next.Add(dynChunk) - dynChunk
			if beg >= r.n {
				return
			}
			end := beg + dynChunk
			if end > r.n {
				end = r.n
			}
			if r.body != nil {
				for i := beg; i < end; i++ {
					r.body(i)
				}
			} else {
				for i := beg; i < end; i++ {
					r.bodyTID(tid, i)
				}
			}
			if credit -= end - beg; credit <= 0 {
				credit = guardStride
				gd.Poll()
			}
		}
	}
}

// Worker parking states.
const (
	wActive int32 = iota // running a region or spinning on the epoch
	wParked              // blocked (or about to block) on the wake channel
)

// poolWorker is one long-lived worker's parking slot, padded so that the
// state flags of adjacent workers do not share a cache line.
type poolWorker struct {
	state atomic.Int32
	wake  chan struct{} // buffered(1); CAS on state gates the single token
	// seen is the region this worker last adopted (published before any
	// field read; see the recycle protocol on region). The dispatcher
	// never recycles a region any worker still has published here.
	seen atomic.Pointer[region]
	_    [40]byte
}

// Pool is a persistent fork/join executor: t-1 long-lived worker
// goroutines plus the dispatching caller, which participates as worker 0.
// Regions are serialized — For/ForTID must not be called concurrently on
// one Pool (nested or concurrent regions each take their own Pool).
// Close may be called at any time, including by a supervisor that has
// abandoned a timed-out run still using the Pool: workers drain their
// current region and exit, and any later dispatch on the closed Pool
// transparently falls back to spawn-per-region execution.
type Pool struct {
	t       int
	cur     atomic.Pointer[region]
	done    chan struct{} // buffered(1); the region's last worker signals
	mu      sync.Mutex    // serializes dispatch state against Close
	closed  atomic.Bool
	spin    int
	workers []poolWorker
	// solo is the reused region of the inline t==1 path. It is never
	// published to cur, so no worker can observe it and it needs no
	// recycle protocol.
	solo *region
	// prev is the region of the last completed dispatch (still == cur),
	// spare the one before it. takeRegion recycles spare once no worker
	// has it published; the two-slot lag guarantees spare != cur.
	prev, spare *region
	// gexec is the reused guarded-view executor handed out by Guarded.
	// Reusing it keeps Guarded allocation-free (a fresh view would escape
	// into the Executor interface every run); that is safe under the same
	// discipline that serializes dispatch — one run drives a pool at a
	// time, and the view is only read during dispatch.
	gexec guardedPool
}

// spinRounds is how many epoch checks a worker makes after finishing a
// region before parking. Back-to-back rounds of an algorithm re-dispatch
// within this window, so steady-state regions need no scheduler trip at
// all. The spin is cooperative (Gosched every few checks), so it stays
// productive even on a single-CPU machine — there the yield is what lets
// the dispatcher and the other workers interleave, and the window is
// shortened since every check round-trips through the scheduler.
const spinRounds = 4096

// NewPool creates a pool of t logical workers (t-1 goroutines; the
// caller of For/ForTID is worker 0). t < 1 is treated as 1.
func NewPool(t int) *Pool {
	if t < 1 {
		t = 1
	}
	p := &Pool{
		t:    t,
		done: make(chan struct{}, 1),
		spin: spinRounds,
	}
	if runtime.GOMAXPROCS(0) == 1 {
		p.spin = spinRounds / 8
	}
	if raceEnabled {
		// The detector instruments every spin-loop load; parking through
		// the (cheaper per-event) channels keeps race-mode test time close
		// to the spawn path's. Latency fidelity is irrelevant under -race.
		p.spin = 8
	}
	p.workers = make([]poolWorker, t)
	for tid := 1; tid < t; tid++ {
		p.workers[tid].wake = make(chan struct{}, 1)
		go p.work(tid)
	}
	return p
}

// Width implements Executor.
func (p *Pool) Width() int { return p.t }

// For implements Executor.
func (p *Pool) For(n int64, s Sched, body func(i int64)) {
	if s < Static || s > Cyclic {
		panic("par.For: unknown schedule")
	}
	p.run(n, s, body, nil)
}

// ForTID implements Executor.
func (p *Pool) ForTID(n int64, s Sched, body func(tid int, i int64)) {
	if s < Static || s > Cyclic {
		panic("par.ForTID: unknown schedule")
	}
	p.run(n, s, nil, body)
}

// ForConcurrent runs body(tid) once for every tid in [0, t), with every
// tid guaranteed its own concurrently scheduled worker goroutine. For and
// ForTID do not give that guarantee (elastic regions may run several tid
// slots on one goroutine), so bodies that rendezvous across tids — the
// GPU simulator's barrier kernels — must use this entry point.
func ForConcurrent(t int, body func(tid int)) {
	ForConcurrentGuarded(t, nil, body)
}

// ForConcurrentGuarded is ForConcurrent under a guard token: a tripped
// token aborts before any body runs, and long-running bodies are expected
// to poll gd themselves (one call per tid gives the substrate no
// iteration boundary to amortize over). gd == nil means unguarded.
func ForConcurrentGuarded(t int, gd *guard.Token, body func(tid int)) {
	ForConcurrentTID(t, gd, func(tid int, _ int64) { body(tid) })
}

// ForConcurrentTID is ForConcurrentGuarded for pre-bound bodies: the
// body already has the func(tid, i) dispatch shape (i is always 0), so
// hot callers — the GPU simulator runs one such fan-out per simulated
// barrier block — can cache the closure once and stay allocation-free
// across millions of calls.
func ForConcurrentTID(t int, gd *guard.Token, body func(tid int, i int64)) {
	if t < 1 {
		t = 1
	}
	p := AcquirePool(t)
	defer ReleasePool(p)
	p.dispatch(int64(t), Static, nil, body, false, gd)
}

// Guarded returns an Executor that runs p's regions under gd: workers
// poll the token at amortized checkpoints and a trip aborts the region,
// surfacing as a panic on the region's caller (convert with
// guard.Recover at the runner boundary). A nil gd returns p itself, so
// unguarded runs keep the branch-free fast path. The returned view is
// owned by the pool (reused across calls, never allocated); like
// dispatch itself it must not be shared across concurrent runs.
func (p *Pool) Guarded(gd *guard.Token) Executor {
	if gd == nil {
		return p
	}
	p.gexec.p, p.gexec.gd = p, gd
	return &p.gexec
}

// guardedPool binds a Pool to a guard token for one run. It is a view,
// not a wrapper with state: the same Pool can serve guarded and
// unguarded runs back to back.
type guardedPool struct {
	p  *Pool
	gd *guard.Token
}

func (g *guardedPool) Width() int { return g.p.t }

func (g *guardedPool) For(n int64, s Sched, body func(i int64)) {
	if s < Static || s > Cyclic {
		panic("par.For: unknown schedule")
	}
	g.p.dispatch(n, s, body, nil, true, g.gd)
}

func (g *guardedPool) ForTID(n int64, s Sched, body func(tid int, i int64)) {
	if s < Static || s > Cyclic {
		panic("par.ForTID: unknown schedule")
	}
	g.p.dispatch(n, s, nil, body, true, g.gd)
}

// ReduceInt64 runs a pooled reduction (see par.ReduceInt64).
func (p *Pool) ReduceInt64(n int64, s Sched, style RedStyle, body func(i int64) int64) int64 {
	return reduceInt64(p, n, s, style, body)
}

// ReduceFloat64 runs a pooled reduction (see par.ReduceFloat64).
func (p *Pool) ReduceFloat64(n int64, s Sched, style RedStyle, body func(i int64) float64) float64 {
	return reduceFloat64(p, n, s, style, body)
}

// run dispatches one region and joins it.
func (p *Pool) run(n int64, s Sched, body func(i int64), bodyTID func(tid int, i int64)) {
	p.dispatch(n, s, body, bodyTID, true, nil)
}

// dispatch publishes one region, runs the caller's share (plus, for
// elastic regions, any shares the pool workers have not claimed yet),
// and joins. A non-nil gd makes workers poll at guarded checkpoints; the
// dispatch-entry poll stops a canceled run between regions (e.g. between
// relax rounds) even when every region body is trivially short.
func (p *Pool) dispatch(n int64, s Sched, body func(i int64), bodyTID func(tid int, i int64), elastic bool, gd *guard.Token) {
	gd.Poll()
	if n <= 0 {
		return
	}
	t := p.t
	if int64(t) > n {
		t = int(n)
	}
	if t == 1 {
		// Sub-width regions (e.g. a one-vertex frontier) run inline:
		// identical assignment (everything is tid 0), zero dispatch cost.
		// The solo region is reused — it is never published, so only the
		// (serialized) dispatcher ever touches it.
		if p.solo == nil {
			p.solo = &region{}
		}
		r := p.solo
		r.reinit(1, n, s, body, bodyTID, false, gd)
		r.exec(0)
		r.tr.rethrow()
		return
	}
	r := p.takeRegion()
	r.reinit(t, n, s, body, bodyTID, elastic, gd)
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		forSpawn(t, n, s, body, bodyTID, gd)
		return
	}
	// Publishing the region pointer is the epoch tick; the atomic store
	// orders the region's plain fields before any worker's atomic load.
	p.cur.Store(r)
	for tid := 1; tid < t; tid++ {
		w := &p.workers[tid]
		if w.state.CompareAndSwap(wParked, wActive) {
			w.wake <- struct{}{}
		}
	}
	p.mu.Unlock()
	r.exec(0) // the caller is worker 0
	r.finish(p)
	if elastic {
		// Run any slots the workers have not picked up — on a machine
		// with fewer free cores than t this usually means all of them,
		// and the region never pays a context switch.
		for {
			tid := int(r.claim.Add(1)) - 1
			if tid >= t {
				break
			}
			r.exec(tid)
			r.finish(p)
		}
	}
	p.join(r)
	// r has joined; rotate the recycle ring before any rethrow. The
	// two-slot lag means takeRegion never offers the region cur still
	// points at.
	p.spare, p.prev = p.prev, r
	r.tr.rethrow()
}

// takeRegion returns a region for the next dispatch: the spare slot of
// the recycle ring if no worker still has it published (see the protocol
// on region), else a fresh allocation. Stale publications only delay
// recycling until the worker's next adoption — they never cause an
// unbounded leak, since a worker that adopts anything newer clears its
// claim on the spare.
func (p *Pool) takeRegion() *region {
	cand := p.spare
	if cand == nil {
		return &region{}
	}
	for tid := 1; tid < p.t; tid++ {
		if p.workers[tid].seen.Load() == cand {
			return &region{}
		}
	}
	p.spare = nil
	return cand
}

// join waits for the region's pool workers. It spins briefly (back-to-back
// regions usually finish within the window, costing zero channel trips),
// then parks on the done channel. The region's join flag is the Dekker
// handshake: exactly one of {caller sees pending==0, last worker sends a
// token} wins, so the buffered channel can never hold a stale token when
// the next region dispatches.
func (p *Pool) join(r *region) {
	for i := 0; i < p.spin; i++ {
		if r.pending.Load() == 0 {
			return
		}
		if i&7 == 7 {
			runtime.Gosched()
		}
	}
	if r.join.CompareAndSwap(cstSpinning, cstParked) {
		<-p.done // the last worker's CAS failed: it owes exactly one token
	}
}

// work is the long-lived worker loop.
func (p *Pool) work(tid int) {
	w := &p.workers[tid]
	var last *region
	for {
		r := p.await(w, last)
		if r == nil {
			return
		}
		last = r
		if r.elastic {
			for {
				slot := int(r.claim.Add(1)) - 1
				if slot >= r.t {
					break
				}
				r.exec(slot)
				r.finish(p)
			}
		} else if tid < r.t {
			r.exec(tid)
			r.finish(p)
		}
	}
}

// adopt checks for a region newer than last and, before handing it to
// the worker, publishes it in w.seen and validates that it is still the
// pool's current region. A failed validation means the region was
// superseded mid-adoption; since dispatch is serialized, a superseded
// region has already joined without this worker, so returning nil (try
// again) is safe. The publication stays in w.seen either way — it is
// conservative: it only delays that region's recycling until the next
// successful adoption.
func (p *Pool) adopt(w *poolWorker, last *region) *region {
	r := p.cur.Load()
	if r == last {
		return nil
	}
	w.seen.Store(r)
	if p.cur.Load() != r {
		return nil
	}
	return r
}

// await returns the next adopted region, or nil once the pool is closed
// with no newer region to run. It spins briefly on the region pointer
// (catching back-to-back dispatches without a scheduler round trip),
// then parks on the worker's wake channel.
func (p *Pool) await(w *poolWorker, last *region) *region {
	for i := 0; i < p.spin; i++ {
		if r := p.adopt(w, last); r != nil {
			return r
		}
		if p.closed.Load() {
			break
		}
		if i&63 == 63 {
			runtime.Gosched()
		}
	}
	for {
		w.state.Store(wParked)
		// Re-check after publishing the parked state: a dispatcher that
		// read the flag as active has already stored the region, and one
		// that read it as parked owes us a token.
		if r := p.adopt(w, last); r != nil {
			if !w.state.CompareAndSwap(wParked, wActive) {
				<-w.wake // consume the in-flight token
			}
			return r
		}
		if p.closed.Load() {
			if !w.state.CompareAndSwap(wParked, wActive) {
				<-w.wake
			}
			// A region dispatched concurrently with Close still runs:
			// its caller is blocked on the join.
			if r := p.adopt(w, last); r != nil {
				return r
			}
			return nil
		}
		<-w.wake
		if r := p.adopt(w, last); r != nil {
			return r
		}
	}
}

// Close marks the pool defunct and wakes every parked worker so it can
// exit. Workers mid-region finish it first (the region's caller is
// waiting on the join), and later dispatches fall back to
// spawn-per-region, so closing a pool that an abandoned run still holds
// is safe. Close is idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed.Load() {
		p.closed.Store(true)
		for tid := 1; tid < p.t; tid++ {
			w := &p.workers[tid]
			if w.state.CompareAndSwap(wParked, wActive) {
				w.wake <- struct{}{}
			}
		}
	}
	p.mu.Unlock()
}

// Closed reports whether Close has been called.
func (p *Pool) Closed() bool { return p.closed.Load() }

// poolCache is the process-wide free list behind the package-level
// For/ForTID: pools are keyed by width and reused across regions, so
// call sites keep their fork/join signature while paying pooled dispatch
// cost. A pool held by an abandoned (timed-out) run is simply never
// released — the next acquire builds a fresh one.
var poolCache = struct {
	sync.Mutex
	free map[int][]*Pool
}{free: map[int][]*Pool{}}

// AcquirePool returns an idle pool of width t (t < 1 means 1), creating
// one if the free list has none. Pair with ReleasePool.
func AcquirePool(t int) *Pool {
	if t < 1 {
		t = 1
	}
	poolCache.Lock()
	if list := poolCache.free[t]; len(list) > 0 {
		p := list[len(list)-1]
		poolCache.free[t] = list[:len(list)-1]
		poolCache.Unlock()
		return p
	}
	poolCache.Unlock()
	return NewPool(t)
}

// ReleasePool returns p to the free list. Closed pools are dropped.
func ReleasePool(p *Pool) {
	if p == nil || p.closed.Load() {
		return
	}
	poolCache.Lock()
	poolCache.free[p.t] = append(poolCache.free[p.t], p)
	poolCache.Unlock()
}

// DrainPoolCache closes and discards every idle pool on the free list.
// Goroutine-leak tests call it so that cached pools' workers do not show
// up as leaks; production code never needs it.
func DrainPoolCache() {
	poolCache.Lock()
	free := poolCache.free
	poolCache.free = map[int][]*Pool{}
	poolCache.Unlock()
	for _, list := range free {
		for _, p := range list {
			p.Close()
		}
	}
}

// fixedExec adapts the package-level functions to Executor, optionally
// under a guard token.
type fixedExec struct {
	t  int
	gd *guard.Token
}

func (f fixedExec) Width() int { return f.t }
func (f fixedExec) For(n int64, s Sched, body func(i int64)) {
	if s < Static || s > Cyclic {
		panic("par.For: unknown schedule")
	}
	forAny(f.t, n, s, body, nil, f.gd)
}
func (f fixedExec) ForTID(n int64, s Sched, body func(tid int, i int64)) {
	if s < Static || s > Cyclic {
		panic("par.ForTID: unknown schedule")
	}
	forAny(f.t, n, s, nil, body, f.gd)
}

// Fixed returns the default executor for t logical threads: regions run
// on free-list pools. t < 1 is treated as 1.
func Fixed(t int) Executor {
	return FixedGuarded(t, nil)
}

// FixedGuarded is Fixed under a guard token: every region the executor
// runs polls gd at amortized checkpoints. gd == nil is plain Fixed.
func FixedGuarded(t int, gd *guard.Token) Executor {
	if t < 1 {
		t = 1
	}
	return fixedExec{t, gd}
}

// forAny is the common free-list-pool region entry behind the
// package-level For/ForTID and the Fixed executors. Schedule validation
// happens at the public call sites so their panic messages keep the
// caller's name.
func forAny(t int, n int64, s Sched, body func(i int64), bodyTID func(tid int, i int64), gd *guard.Token) {
	if n <= 0 {
		gd.Poll()
		return
	}
	p := AcquirePool(t)
	defer ReleasePool(p)
	p.dispatch(n, s, body, bodyTID, true, gd)
}

// forSpawn is the spawn-per-region reference implementation — the
// pre-pool substrate, kept as the closed-pool fallback and the baseline
// that schedule-equivalence tests and dispatch benchmarks compare
// against. Exactly one of body and bodyTID must be non-nil. A non-nil gd
// is honored with a per-iteration poll — this path is off the measured
// fast path, so simplicity beats amortization here.
func forSpawn(t int, n int64, s Sched, body func(i int64), bodyTID func(tid int, i int64), gd *guard.Token) {
	if gd != nil {
		gd.Poll()
		if body != nil {
			inner := body
			body = func(i int64) { gd.Poll(); inner(i) }
		} else {
			inner := bodyTID
			bodyTID = func(tid int, i int64) { gd.Poll(); inner(tid, i) }
		}
	}
	if n <= 0 {
		return
	}
	if t < 1 {
		t = 1
	}
	if int64(t) > n {
		t = int(n)
	}
	var wg sync.WaitGroup
	var tr trap
	wg.Add(t)
	switch s {
	case Static, Blocked:
		for tid := 0; tid < t; tid++ {
			go func(tid int) {
				defer wg.Done()
				defer tr.capture()
				chaosEnter(tid)
				beg := int64(tid) * n / int64(t)
				end := int64(tid+1) * n / int64(t)
				if body != nil {
					for i := beg; i < end; i++ {
						body(i)
					}
				} else {
					for i := beg; i < end; i++ {
						bodyTID(tid, i)
					}
				}
			}(tid)
		}
	case Cyclic:
		for tid := 0; tid < t; tid++ {
			go func(tid int) {
				defer wg.Done()
				defer tr.capture()
				chaosEnter(tid)
				if body != nil {
					for i := int64(tid); i < n; i += int64(t) {
						body(i)
					}
				} else {
					for i := int64(tid); i < n; i += int64(t) {
						bodyTID(tid, i)
					}
				}
			}(tid)
		}
	case Dynamic:
		var next atomic.Int64
		for tid := 0; tid < t; tid++ {
			go func(tid int) {
				defer wg.Done()
				defer tr.capture()
				chaosEnter(tid)
				for {
					beg := next.Add(dynChunk) - dynChunk
					if beg >= n {
						return
					}
					end := beg + dynChunk
					if end > n {
						end = n
					}
					if body != nil {
						for i := beg; i < end; i++ {
							body(i)
						}
					} else {
						for i := beg; i < end; i++ {
							bodyTID(tid, i)
						}
					}
				}
			}(tid)
		}
	default:
		panic(fmt.Sprintf("par: unknown schedule %d", s))
	}
	wg.Wait()
	tr.rethrow()
}
