// Package guard is the cooperative cancellation and resource-budget
// subsystem threaded through the execution stack. A Token is a
// cache-line-padded atomic stop flag plus an optional deadline and an
// optional memory budget. Kernel hot loops poll it at amortized
// checkpoints (every guard-stride iterations inside a par region, every
// relax round, every N simulated GPU cycles); scratch arenas charge
// slab allocations against its byte budget. The supervisor and the HTTP
// service arm tokens with deadlines and bind them to request contexts,
// which is what turns "abandon the timed-out run and its worker pool"
// into "cancel it and get the workers back".
//
// The contract is cooperative: tripping a token does not preempt
// anything. A running kernel observes the trip at its next checkpoint,
// unwinds via a typed abort panic that rides the par substrate's
// existing panic trap to the region's caller, and surfaces as one of
// this package's sentinel errors from guard.Recover at the runner
// boundary. Code that never polls (a worker blocked in a chaos stall,
// a foreign syscall) is not stopped — that residual case is what the
// sweep supervisor's abandonment fallback still covers.
//
// A nil *Token is valid everywhere and means "unguarded": Poll, Charge,
// and friends are no-ops, so call sites need no nil checks.
package guard

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Sentinel errors returned by Err/TryCharge and produced by Recover.
var (
	// ErrCanceled reports an explicit Cancel (e.g. the HTTP client
	// disconnected, or a supervisor revoked the run).
	ErrCanceled = errors.New("guard: canceled")
	// ErrDeadlineExceeded reports that the token's deadline passed.
	ErrDeadlineExceeded = errors.New("guard: deadline exceeded")
	// ErrBudgetExceeded reports that a Charge overdrew the memory budget.
	ErrBudgetExceeded = errors.New("guard: memory budget exceeded")
)

// Reason encodes why a token stopped. The zero value means "running".
type Reason uint32

const (
	running Reason = iota
	// Canceled: Cancel was called.
	Canceled
	// DeadlineExceeded: the armed deadline passed.
	DeadlineExceeded
	// BudgetExceeded: a Charge overdrew the byte budget.
	BudgetExceeded
)

func (r Reason) err() error {
	switch r {
	case Canceled:
		return ErrCanceled
	case DeadlineExceeded:
		return ErrDeadlineExceeded
	case BudgetExceeded:
		return ErrBudgetExceeded
	}
	return nil
}

// abort is the typed panic payload a checkpoint raises when its token
// has stopped. It is unexported on purpose: the only legitimate ways to
// observe one are Recover (converts to the sentinel error) and
// AbortError (classifiers like the sweep supervisor's panic isolation).
type abort struct{ err error }

func (a abort) Error() string { return a.err.Error() + " (cooperative abort)" }

// Token is one run's stop flag, deadline, and memory budget. The hot
// field (state) sits alone on its cache line so checkpoint polls from
// many workers never false-share with the budget counter or each other's
// data. Create with New, arm with WithTimeout/WithBudget, and Release
// when the run is over (stops the deadline timer, detaches contexts).
//
// All methods are safe for concurrent use, and all are nil-receiver
// safe: a nil token never stops, never charges, and polls for free.
type Token struct {
	_     [64]byte      // pad: keep state off the allocator's neighbors
	state atomic.Uint32 // Reason; 0 = running
	_     [60]byte      // pad: budget traffic must not share state's line

	remaining atomic.Int64 // budget bytes left; meaningful when limited
	limited   atomic.Bool

	mu      sync.Mutex
	timer   *time.Timer
	unbinds []func() bool // BindContext detachers, run by Release
	// children are the tokens Propagate coupled to this one: a winning
	// trip fans out to them under mu. parents is the reverse edge, so
	// Release can unregister. Locks are always taken parent→child.
	children []*Token
	parents  []*Token
}

// New returns a running token with no deadline and no budget.
func New() *Token {
	return &Token{}
}

// WithTimeout arms the token to trip with DeadlineExceeded after d.
// d <= 0 arms nothing. The deadline is enforced by a timer, not by
// clock reads in Poll, so checkpoints stay a single atomic load.
// Returns t for chaining.
func (t *Token) WithTimeout(d time.Duration) *Token {
	if t == nil || d <= 0 {
		return t
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.timer != nil {
		t.timer.Stop()
	}
	t.timer = time.AfterFunc(d, func() { t.trip(DeadlineExceeded) })
	return t
}

// WithBudget sets the memory budget to bytes (<= 0 means unlimited).
// Returns t for chaining.
func (t *Token) WithBudget(bytes int64) *Token {
	if t == nil {
		return nil
	}
	if bytes <= 0 {
		t.limited.Store(false)
		return t
	}
	t.remaining.Store(bytes)
	t.limited.Store(true)
	return t
}

// trip stops the token with reason r. The first trip wins; later trips
// (a deadline firing after a cancel, say) are ignored. The winner trips
// every Propagate child before returning.
func (t *Token) trip(r Reason) {
	if !t.state.CompareAndSwap(uint32(running), uint32(r)) {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.children {
		c.trip(r)
	}
}

// Cancel stops the token with ErrCanceled. Idempotent; safe from any
// goroutine, including concurrently with polling workers.
func (t *Token) Cancel() {
	if t != nil {
		t.trip(Canceled)
	}
}

// Stopped reports whether the token has tripped (one atomic load).
func (t *Token) Stopped() bool {
	return t != nil && t.state.Load() != uint32(running)
}

// Err returns nil while running, else the sentinel error for the trip
// reason.
func (t *Token) Err() error {
	if t == nil {
		return nil
	}
	return Reason(t.state.Load()).err()
}

// Poll is the checkpoint: a single atomic load while the token runs,
// and a typed abort panic once it has stopped. The panic unwinds the
// worker's share of the region, is captured by the par substrate's trap,
// re-raised on the region's caller after the join, and converted to the
// sentinel error by a deferred Recover at the runner boundary.
func (t *Token) Poll() {
	if t == nil {
		return
	}
	if s := t.state.Load(); s != uint32(running) {
		panic(abort{Reason(s).err()})
	}
}

// TryCharge debits n bytes from the budget and returns nil, or the trip
// error if the token has stopped or the charge overdraws the budget
// (which trips it with BudgetExceeded). Unlimited tokens only report an
// existing stop. Use Charge in kernel paths that unwind by panic.
func (t *Token) TryCharge(n int64) error {
	if t == nil {
		return nil
	}
	if s := t.state.Load(); s != uint32(running) {
		return Reason(s).err()
	}
	if n <= 0 || !t.limited.Load() {
		return nil
	}
	if t.remaining.Add(-n) < 0 {
		t.trip(BudgetExceeded)
		return ErrBudgetExceeded
	}
	return nil
}

// Charge is TryCharge that aborts (typed panic, like Poll) instead of
// returning an error, for use inside guarded kernels and arenas.
func (t *Token) Charge(n int64) {
	if err := t.TryCharge(n); err != nil {
		panic(abort{err})
	}
}

// Remaining returns the budget bytes left (for tests and metrics);
// unlimited and nil tokens report -1.
func (t *Token) Remaining() int64 {
	if t == nil || !t.limited.Load() {
		return -1
	}
	return t.remaining.Load()
}

// BindContext couples the token to ctx: when ctx is canceled the token
// trips (DeadlineExceeded for a context deadline, Canceled otherwise).
// The coupling is a context.AfterFunc, so nothing runs until ctx is
// done. The returned stop function detaches it synchronously: once stop
// has returned, a later cancel of ctx can no longer trip the token.
// Callers invoke it (or Release the token) when the request is done.
func (t *Token) BindContext(ctx context.Context) func() {
	if t == nil || ctx == nil || ctx.Done() == nil {
		return func() {}
	}
	stop := context.AfterFunc(ctx, func() {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			t.trip(DeadlineExceeded)
		} else {
			t.trip(Canceled)
		}
	})
	t.mu.Lock()
	t.unbinds = append(t.unbinds, stop)
	t.mu.Unlock()
	return func() { stop() }
}

// Propagate couples inner to outer: when outer trips, inner trips too,
// with outer's reason. The coupling is a registration on outer, so it is
// synchronous: inner has stopped by the time the call that trips outer
// (Cancel, the deadline timer, an overdrawing Charge) returns, and if
// outer has already tripped, inner trips at once. The returned stop
// function detaches the coupling, also synchronously: once it has
// returned, outer can no longer trip inner. Releasing inner detaches it
// as well. Couplings must not form a cycle. A nil outer or inner is a
// no-op.
func Propagate(outer, inner *Token) (stop func()) {
	if outer == nil || inner == nil {
		return func() {}
	}
	outer.mu.Lock()
	defer outer.mu.Unlock()
	if s := Reason(outer.state.Load()); s != running {
		inner.trip(s)
		return func() {}
	}
	outer.children = append(outer.children, inner)
	inner.mu.Lock()
	inner.parents = append(inner.parents, outer)
	inner.mu.Unlock()
	return func() { outer.detach(inner) }
}

// detach unregisters child from t's fan-out. Idempotent.
func (t *Token) detach(child *Token) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.children = removeToken(t.children, child)
	child.mu.Lock()
	child.parents = removeToken(child.parents, t)
	child.mu.Unlock()
}

// removeToken deletes the first occurrence of x from ts.
func removeToken(ts []*Token, x *Token) []*Token {
	if i := slices.Index(ts, x); i >= 0 {
		return slices.Delete(ts, i, i+1)
	}
	return ts
}

// Release ends the token's background machinery: the deadline timer is
// stopped, every BindContext coupling is detached, and the token is
// unregistered from every Propagate parent. The token's state is left
// as-is (a stopped token stays stopped). Idempotent.
func (t *Token) Release() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.timer != nil {
		t.timer.Stop()
		t.timer = nil
	}
	for _, stop := range t.unbinds {
		stop()
	}
	t.unbinds = nil
	parents := t.parents
	t.parents = nil
	t.mu.Unlock()
	// Detach outside t.mu: each parent's lock must be taken before its
	// child's.
	for _, p := range parents {
		p.detach(t)
	}
}

// Recover, deferred at a runner boundary, converts an abort panic into
// its sentinel error through errp and re-raises every other panic
// untouched (real kernel panics must keep crashing up to the sweep
// supervisor's classifier).
func Recover(errp *error) {
	p := recover()
	if p == nil {
		return
	}
	if a, ok := p.(abort); ok {
		if errp != nil && *errp == nil {
			*errp = a.err
		}
		return
	}
	panic(p)
}

// AbortError reports whether a recovered panic value is a guard abort,
// and if so which sentinel error it carries. Classifiers that recover
// panics wholesale (the sweep supervisor's isolation goroutine) use it
// to file cooperative aborts under timeout/cancel instead of "panic".
func AbortError(p any) (error, bool) {
	if a, ok := p.(abort); ok {
		return a.err, true
	}
	return nil, false
}
