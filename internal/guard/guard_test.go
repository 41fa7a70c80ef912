package guard

import (
	"context"
	"errors"
	"testing"
	"time"

	"indigo/internal/testutil"
)

func TestNilTokenIsInert(t *testing.T) {
	var tok *Token
	tok.Poll() // must not panic
	tok.Charge(1 << 30)
	if tok.Stopped() {
		t.Fatal("nil token reports stopped")
	}
	if err := tok.Err(); err != nil {
		t.Fatalf("nil token Err = %v", err)
	}
	if err := tok.TryCharge(1 << 40); err != nil {
		t.Fatalf("nil token TryCharge = %v", err)
	}
	tok.Cancel()
	tok.Release()
	tok.WithTimeout(time.Millisecond).WithBudget(1)
	stop := tok.BindContext(context.Background())
	stop()
}

func TestCancelTripsPoll(t *testing.T) {
	tok := New()
	defer tok.Release()
	tok.Poll() // running: no panic
	tok.Cancel()
	if !tok.Stopped() {
		t.Fatal("not stopped after Cancel")
	}
	if !errors.Is(tok.Err(), ErrCanceled) {
		t.Fatalf("Err = %v, want ErrCanceled", tok.Err())
	}
	var err error
	func() {
		defer Recover(&err)
		tok.Poll()
		t.Fatal("Poll did not panic on a canceled token")
	}()
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Recover produced %v, want ErrCanceled", err)
	}
}

func TestFirstTripWins(t *testing.T) {
	tok := New().WithTimeout(time.Hour)
	defer tok.Release()
	tok.Cancel()
	tok.trip(DeadlineExceeded) // late deadline must not overwrite
	if !errors.Is(tok.Err(), ErrCanceled) {
		t.Fatalf("Err = %v, want ErrCanceled (first trip)", tok.Err())
	}
}

func TestDeadlineTrips(t *testing.T) {
	tok := New().WithTimeout(5 * time.Millisecond)
	defer tok.Release()
	deadline := time.Now().Add(2 * time.Second)
	for !tok.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("deadline never tripped the token")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(tok.Err(), ErrDeadlineExceeded) {
		t.Fatalf("Err = %v, want ErrDeadlineExceeded", tok.Err())
	}
}

func TestReleaseStopsDeadline(t *testing.T) {
	tok := New().WithTimeout(20 * time.Millisecond)
	tok.Release()
	time.Sleep(60 * time.Millisecond)
	if tok.Stopped() {
		t.Fatal("released token tripped anyway")
	}
}

func TestBudget(t *testing.T) {
	tok := New().WithBudget(100)
	defer tok.Release()
	if err := tok.TryCharge(60); err != nil {
		t.Fatalf("first charge: %v", err)
	}
	if err := tok.TryCharge(40); err != nil {
		t.Fatalf("exact-fit charge: %v", err)
	}
	if err := tok.TryCharge(1); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("overdraft = %v, want ErrBudgetExceeded", err)
	}
	if !tok.Stopped() {
		t.Fatal("overdraft did not trip the token")
	}
	var err error
	func() {
		defer Recover(&err)
		tok.Poll()
	}()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("post-overdraft Poll -> %v, want ErrBudgetExceeded", err)
	}
}

func TestChargePanicsAsAbort(t *testing.T) {
	tok := New().WithBudget(10)
	defer tok.Release()
	var err error
	func() {
		defer Recover(&err)
		tok.Charge(11)
	}()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Charge abort = %v, want ErrBudgetExceeded", err)
	}
}

func TestUnlimitedChargeIsFree(t *testing.T) {
	tok := New()
	defer tok.Release()
	tok.Charge(1 << 50)
	if tok.Stopped() {
		t.Fatal("unlimited token tripped on charge")
	}
	if tok.Remaining() != -1 {
		t.Fatalf("Remaining = %d, want -1 (unlimited)", tok.Remaining())
	}
}

func TestRecoverPassesForeignPanics(t *testing.T) {
	defer func() {
		if p := recover(); p != "boom" {
			t.Fatalf("foreign panic = %v, want boom", p)
		}
	}()
	var err error
	defer Recover(&err)
	panic("boom")
}

func TestBindContextCancel(t *testing.T) {
	tok := New()
	defer tok.Release()
	ctx, cancel := context.WithCancel(context.Background())
	stop := tok.BindContext(ctx)
	defer stop()
	cancel()
	deadline := time.Now().Add(2 * time.Second)
	for !tok.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("context cancel never tripped the token")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(tok.Err(), ErrCanceled) {
		t.Fatalf("Err = %v, want ErrCanceled", tok.Err())
	}
}

func TestBindContextDeadline(t *testing.T) {
	tok := New()
	defer tok.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	stop := tok.BindContext(ctx)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for !tok.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("context deadline never tripped the token")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(tok.Err(), ErrDeadlineExceeded) {
		t.Fatalf("Err = %v, want ErrDeadlineExceeded", tok.Err())
	}
}

func TestBindContextStopDetaches(t *testing.T) {
	tok := New()
	defer tok.Release()
	ctx, cancel := context.WithCancel(context.Background())
	stop := tok.BindContext(ctx)
	stop()
	stop() // idempotent
	cancel()
	time.Sleep(20 * time.Millisecond)
	if tok.Stopped() {
		t.Fatal("detached watcher still tripped the token")
	}
}

func TestAbortError(t *testing.T) {
	tok := New()
	defer tok.Release()
	tok.Cancel()
	var got any
	func() {
		defer func() { got = recover() }()
		tok.Poll()
	}()
	err, ok := AbortError(got)
	if !ok || !errors.Is(err, ErrCanceled) {
		t.Fatalf("AbortError = (%v, %v), want (ErrCanceled, true)", err, ok)
	}
	if _, ok := AbortError("unrelated"); ok {
		t.Fatal("AbortError claimed a foreign panic value")
	}
}

func TestConcurrentPollAndCancel(t *testing.T) {
	for i := 0; i < 100; i++ {
		tok := New()
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() { recover() }() // abort panic is expected
			for j := 0; j < 1_000_000; j++ {
				tok.Poll()
			}
		}()
		tok.Cancel()
		<-done
		tok.Release()
	}
}

func TestPropagateCancel(t *testing.T) {
	outer, inner := New(), New()
	defer outer.Release()
	defer inner.Release()
	stop := Propagate(outer, inner)
	defer stop()
	outer.Cancel()
	deadline := time.Now().Add(2 * time.Second)
	for !inner.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("outer cancel never propagated to inner")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(inner.Err(), ErrCanceled) {
		t.Fatalf("inner Err = %v, want ErrCanceled", inner.Err())
	}
}

func TestPropagateKeepsDeadlineReason(t *testing.T) {
	outer, inner := New().WithTimeout(2*time.Millisecond), New()
	defer outer.Release()
	defer inner.Release()
	stop := Propagate(outer, inner)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for !inner.Stopped() {
		if time.Now().After(deadline) {
			t.Fatal("outer deadline never propagated to inner")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(inner.Err(), ErrDeadlineExceeded) {
		t.Fatalf("inner Err = %v, want ErrDeadlineExceeded (outer's reason)", inner.Err())
	}
}

func TestPropagateStopDetaches(t *testing.T) {
	outer, inner := New(), New()
	defer outer.Release()
	defer inner.Release()
	stop := Propagate(outer, inner)
	stop()
	stop() // idempotent
	outer.Cancel()
	time.Sleep(20 * time.Millisecond)
	if inner.Stopped() {
		t.Fatal("detached watcher still tripped inner")
	}
}

func TestPropagateNilIsInert(t *testing.T) {
	tok := New()
	defer tok.Release()
	Propagate(nil, tok)()
	Propagate(tok, nil)()
	Propagate(nil, nil)()
	if tok.Stopped() {
		t.Fatal("nil propagation tripped a live token")
	}
}

func TestPropagateDoesNotCoupleInnerToOuter(t *testing.T) {
	outer, inner := New(), New()
	defer outer.Release()
	defer inner.Release()
	stop := Propagate(outer, inner)
	defer stop()
	inner.Cancel()
	time.Sleep(20 * time.Millisecond)
	if outer.Stopped() {
		t.Fatal("inner trip leaked upward to outer")
	}
}

// TestPropagateIsSynchronous: the coupling is a registration, not a
// watcher — inner has stopped by the time outer's Cancel returns, a
// detached inner is never tripped, and no goroutine outlives the test.
func TestPropagateIsSynchronous(t *testing.T) {
	defer testutil.Snapshot(t).Check(t)
	outer := New()
	defer outer.Release()
	inners := make([]*Token, 8)
	for i := range inners {
		inners[i] = New()
		defer inners[i].Release()
		stop := Propagate(outer, inners[i])
		if i%2 == 1 {
			stop()
		}
	}
	released := New()
	Propagate(outer, released)
	released.Release()

	outer.Cancel()
	for i, inner := range inners {
		if got, want := inner.Stopped(), i%2 == 0; got != want {
			t.Fatalf("inner %d Stopped = %v right after outer.Cancel, want %v", i, got, want)
		}
	}
	if released.Stopped() {
		t.Fatal("released inner still tripped by outer")
	}

	late := New()
	defer late.Release()
	Propagate(outer, late)()
	if !errors.Is(late.Err(), ErrCanceled) {
		t.Fatalf("coupling to a tripped outer: Err = %v, want ErrCanceled", late.Err())
	}
}
