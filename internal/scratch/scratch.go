// Package scratch provides reusable per-run working memory for variant
// sweeps. The paper's methodology is a census — many variants × inputs ×
// trials — so sweep wall-clock, not any single kernel, is the binding
// resource, and every run that make()s its full O(N)/O(M) working set
// from scratch puts the Go allocator and GC on the measurement's
// critical path (fresh pages also fault on first touch, which the timed
// region then pays). An Arena checks out cleared, capacity-reused slices
// and worklists from typed slab pools; Reset returns everything for the
// next run.
//
// Ownership discipline (see DESIGN.md §9):
//
//   - An Arena has a single owner at a time: checkouts and Reset are not
//     synchronized. A run may hand checked-out slices to its parallel
//     workers (that is the point), but only one goroutine drives the
//     checkout/Reset lifecycle.
//   - Reset invalidates every outstanding checkout. Results that alias
//     arena memory (e.g. algo.Result.Dist) must be consumed — verified,
//     copied, or dropped — before the owner resets for the next run.
//   - Retire marks the Arena defunct: every later checkout or Reset
//     panics. A supervisor that abandons a timed-out run retires the
//     run's arena and replaces it, so the zombie goroutine fails fast at
//     its next checkout instead of silently scribbling over a reused
//     slab.
//   - Objects from Of persist across Reset by design: they hold cached
//     kernel state (closures) whose run-varying fields are rebound every
//     run.
//
// A nil *Arena is valid everywhere and falls back to plain allocation,
// so the public API stays drop-in.
package scratch

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"unsafe"

	"indigo/internal/guard"
	"indigo/internal/par"
)

// sizeClass rounds a requested length up to its slab size class so that
// near-miss requests (n vs n+64) reuse the same slab.
func sizeClass(n int) int {
	const grain = 64
	if n < 0 {
		panic(fmt.Sprintf("scratch: negative length %d", n))
	}
	return (n + grain - 1) / grain * grain
}

// resetter is the type-erased view of a pool that Reset iterates.
type resetter interface{ reset() }

// pool is the per-element-type slab pool: checked-out slices in order,
// and free slabs awaiting reuse.
type pool[T any] struct {
	free [][]T
	used [][]T
}

// take returns a cleared slice of length n backed by the smallest free
// slab that fits (best fit keeps checkout sequences deterministic run to
// run, which is what makes the steady state allocation-free), or a fresh
// slab rounded up to the size class. Fresh slabs — the only point where
// an arena actually grows — are charged against gd's byte budget, so a
// budgeted run fails with guard.ErrBudgetExceeded at the allocation that
// would have overdrawn it instead of OOMing the process. Reused slabs
// are free: they were paid for when first allocated.
func (p *pool[T]) take(n int, gd *guard.Token) []T {
	c := sizeClass(n)
	best := -1
	for i, s := range p.free {
		if cap(s) >= c && (best < 0 || cap(s) < cap(p.free[best])) {
			best = i
		}
	}
	var s []T
	if best >= 0 {
		last := len(p.free) - 1
		s = p.free[best]
		p.free[best] = p.free[last]
		p.free = p.free[:last]
	} else {
		var zero T
		gd.Charge(int64(c) * int64(unsafe.Sizeof(zero)))
		s = make([]T, c)
	}
	s = s[:n]
	clear(s) // same contract as make: checkouts start zeroed
	p.used = append(p.used, s[:cap(s)])
	return s
}

func (p *pool[T]) reset() {
	if poisonEnabled {
		for _, s := range p.used {
			poison(s)
		}
	}
	p.free = append(p.free, p.used...)
	clear(p.used) // drop slab refs so used can shrink-reuse safely
	p.used = p.used[:0]
}

// Arena is one run-at-a-time scratch allocator. The zero value is not
// usable; call New.
type Arena struct {
	retired atomic.Bool
	slabs   map[reflect.Type]any // *pool[T], keyed by (*T)(nil)'s type
	objs    map[reflect.Type]any // *T singletons from Of
	lists   []resetter
	wlFree  []*par.Worklist
	wlUsed  []*par.Worklist
	// gd is the guard token fresh allocations are charged against; nil
	// (and every reused checkout) charges nothing. Set per run by the
	// supervisor via SetGuard.
	gd *guard.Token
}

// SetGuard installs (or, with nil, removes) the guard token the arena
// charges fresh slab and worklist allocations against. Call it from the
// arena's owning goroutine alongside Reset, before handing the arena to
// a run.
func (a *Arena) SetGuard(gd *guard.Token) {
	if a != nil {
		a.gd = gd
	}
}

// New creates an empty Arena.
func New() *Arena {
	return &Arena{
		slabs: map[reflect.Type]any{},
		objs:  map[reflect.Type]any{},
	}
}

func (a *Arena) live(op string) {
	if a.retired.Load() {
		panic("scratch: " + op + " on retired Arena (run was abandoned by its supervisor)")
	}
}

// Slice checks out a cleared []T of length n. A nil arena allocates
// plainly, preserving allocate-per-run behavior.
func Slice[T any](a *Arena, n int) []T {
	if a == nil {
		return make([]T, n)
	}
	a.live("checkout")
	key := reflect.TypeOf((*T)(nil))
	if v, ok := a.slabs[key]; ok {
		return v.(*pool[T]).take(n, a.gd)
	}
	p := &pool[T]{}
	a.slabs[key] = p
	a.lists = append(a.lists, p)
	return p.take(n, a.gd)
}

// Of returns the arena's singleton *T, created zeroed on first use.
// Unlike Slice checkouts it survives Reset: it is for cached kernel
// contexts (closures and their captured state), which rebind their
// run-varying fields at the start of every run. A nil arena returns a
// fresh zeroed *T, reproducing build-per-run behavior.
func Of[T any](a *Arena) *T {
	if a == nil {
		return new(T)
	}
	a.live("checkout")
	key := reflect.TypeOf((*T)(nil))
	if v, ok := a.objs[key]; ok {
		return v.(*T)
	}
	p := new(T)
	a.objs[key] = p
	return p
}

// Typed checkout conveniences (all nil-arena safe).

// Int32 checks out a cleared []int32 of length n.
func (a *Arena) Int32(n int) []int32 { return Slice[int32](a, n) }

// Int64 checks out a cleared []int64 of length n.
func (a *Arena) Int64(n int) []int64 { return Slice[int64](a, n) }

// Float32 checks out a cleared []float32 of length n.
func (a *Arena) Float32(n int) []float32 { return Slice[float32](a, n) }

// Bool checks out a cleared []bool of length n.
func (a *Arena) Bool(n int) []bool { return Slice[bool](a, n) }

// Worklist checks out an empty worklist with at least the given capacity
// and per-worker reservation buffers for t workers. Reused worklists may
// have grown past the requested capacity in earlier runs (high-water
// marks persist, which is what lets repeat runs skip their growth
// rounds). A nil arena builds a fresh worklist.
func (a *Arena) Worklist(capacity int64, t int) *par.Worklist {
	if a == nil {
		return par.NewWorklistTID(capacity, t)
	}
	a.live("checkout")
	best := -1
	for i, w := range a.wlFree {
		if w.Cap() >= capacity && (best < 0 || w.Cap() < a.wlFree[best].Cap()) {
			best = i
		}
	}
	var w *par.Worklist
	if best >= 0 {
		last := len(a.wlFree) - 1
		w = a.wlFree[best]
		a.wlFree[best] = a.wlFree[last]
		a.wlFree = a.wlFree[:last]
		w.Reset()
		w.EnsureWidth(t)
	} else {
		c := int64(sizeClass(int(capacity)))
		a.gd.Charge(c * 4) // int32 items; reservation buffers are noise
		w = par.NewWorklistTID(c, t)
	}
	a.wlUsed = append(a.wlUsed, w)
	return w
}

// Reset returns every checkout to the free lists for reuse. Outstanding
// slices and worklists from before the Reset are invalidated: the owner
// must be done with them (results consumed) before calling it.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	a.live("Reset")
	for _, p := range a.lists {
		p.reset()
	}
	a.wlFree = append(a.wlFree, a.wlUsed...)
	clear(a.wlUsed)
	a.wlUsed = a.wlUsed[:0]
}

// Retire marks the arena defunct: every later checkout or Reset panics.
// Supervisors retire (and replace) the arena of an abandoned timed-out
// run so the still-running goroutine fails fast instead of racing a
// reused slab. Retire is idempotent and safe to call concurrently with
// the abandoned owner's checkouts.
func (a *Arena) Retire() {
	if a != nil {
		a.retired.Store(true)
	}
}

// Retired reports whether Retire has been called.
func (a *Arena) Retired() bool { return a != nil && a.retired.Load() }

// arenaCache is the process-wide free list: arenas keep their slabs
// across Acquire/Release, so a released arena is "warm" — the next run
// of the same shape checks out without allocating.
var arenaCache struct {
	sync.Mutex
	free []*Arena
}

// Acquire returns a reset arena from the free list (or a fresh one).
func Acquire() *Arena {
	arenaCache.Lock()
	if n := len(arenaCache.free); n > 0 {
		a := arenaCache.free[n-1]
		arenaCache.free = arenaCache.free[:n-1]
		arenaCache.Unlock()
		return a
	}
	arenaCache.Unlock()
	return New()
}

// Release resets a and returns it to the free list. Results aliasing
// a's memory must be dead by now: the next Acquire hands its slabs to
// an arbitrary other run. Retired and nil arenas are dropped.
func Release(a *Arena) {
	if a == nil || a.Retired() {
		return
	}
	a.Reset()
	arenaCache.Lock()
	arenaCache.free = append(arenaCache.free, a)
	arenaCache.Unlock()
}
