package scratch

import (
	"testing"
)

func TestSliceClearedAndReused(t *testing.T) {
	a := New()
	s := a.Int32(100)
	if len(s) != 100 {
		t.Fatalf("len = %d, want 100", len(s))
	}
	for i := range s {
		if s[i] != 0 {
			t.Fatalf("fresh checkout not zeroed at %d", i)
		}
		s[i] = int32(i) + 1
	}
	a.Reset()
	s2 := a.Int32(100)
	if !poisonEnabled && &s[0] != &s2[0] {
		t.Fatalf("same-size checkout after Reset did not reuse the slab")
	}
	for i := range s2 {
		if s2[i] != 0 {
			t.Fatalf("reused checkout not cleared at %d (got %d)", i, s2[i])
		}
	}
}

func TestSizeClassReuse(t *testing.T) {
	a := New()
	s := a.Int64(100) // rounds to 128
	a.Reset()
	s2 := a.Int64(120) // same class
	if &s[0] != &s2[0] {
		t.Fatalf("same size class should reuse the slab")
	}
	a.Reset()
	s3 := a.Int64(130) // next class: fresh slab
	if &s[0] == &s3[0] {
		t.Fatalf("larger request must not reuse a too-small slab")
	}
}

func TestBestFitPrefersSmallestSlab(t *testing.T) {
	a := New()
	big := a.Int32(10_000)
	small := a.Int32(64)
	a.Reset()
	got := a.Int32(64)
	if &got[0] != &small[0] {
		t.Fatalf("best fit should hand out the small slab, not cap %d", cap(big))
	}
}

func TestDistinctTypesDistinctPools(t *testing.T) {
	a := New()
	_ = a.Int32(64)
	_ = a.Float32(64)
	_ = a.Bool(64)
	_ = a.Int64(64)
	a.Reset()
	// No interference: each type gets its own slab back.
	if len(a.slabs) != 4 {
		t.Fatalf("expected 4 typed pools, got %d", len(a.slabs))
	}
}

func TestOfPersistsAcrossReset(t *testing.T) {
	type ctx struct{ x int }
	a := New()
	c := Of[ctx](a)
	if c.x != 0 {
		t.Fatalf("Of must start zeroed")
	}
	c.x = 7
	a.Reset()
	c2 := Of[ctx](a)
	if c2 != c || c2.x != 7 {
		t.Fatalf("Of singleton must survive Reset")
	}
}

func TestNilArenaFallsBack(t *testing.T) {
	var a *Arena
	s := a.Int32(10)
	if len(s) != 10 {
		t.Fatalf("nil arena Int32 len = %d", len(s))
	}
	w := a.Worklist(32, 2)
	w.Push(5)
	if w.Size() != 1 {
		t.Fatalf("nil arena worklist broken")
	}
	a.Reset() // must not panic
	type ctx struct{ x int }
	if c := Of[ctx](a); c == nil || c.x != 0 {
		t.Fatalf("nil arena Of must return fresh zeroed object")
	}
}

func TestWorklistCheckoutReusesAndResizes(t *testing.T) {
	a := New()
	w := a.Worklist(100, 2)
	if w.Cap() < 100 || w.Width() < 2 {
		t.Fatalf("cap %d width %d", w.Cap(), w.Width())
	}
	w.Push(1)
	w.Push(2)
	a.Reset()
	w2 := a.Worklist(50, 4)
	if w2 != w {
		t.Fatalf("reusable worklist not reused")
	}
	if w2.Size() != 0 {
		t.Fatalf("reused worklist not reset: size %d", w2.Size())
	}
	if w2.Width() < 4 {
		t.Fatalf("reused worklist width %d, want >= 4", w2.Width())
	}
}

func TestRetiredArenaPanics(t *testing.T) {
	a := New()
	_ = a.Int32(8)
	a.Retire()
	if !a.Retired() {
		t.Fatalf("Retired() false after Retire")
	}
	for name, f := range map[string]func(){
		"slice":    func() { _ = a.Int32(8) },
		"worklist": func() { _ = a.Worklist(8, 1) },
		"reset":    func() { a.Reset() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s on retired arena did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAcquireReleaseKeepsSlabsWarm(t *testing.T) {
	a := Acquire()
	if a == nil {
		t.Fatalf("Acquire returned nil with arenas enabled")
	}
	s := a.Int32(256)
	s[0] = 42
	Release(a)
	b := Acquire()
	if b != a {
		// Another test may have raced the free list; don't assert
		// identity strictly, but a reacquired arena must be reset.
		Release(b)
		return
	}
	s2 := b.Int32(256)
	if &s2[0] != &s[0] {
		t.Fatalf("reacquired arena lost its slab")
	}
	if s2[0] != 0 {
		t.Fatalf("reacquired checkout not cleared")
	}
	Release(b)
}

func TestStableCheckoutSequenceDoesNotAllocate(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting in -short")
	}
	a := New()
	run := func() {
		_ = a.Int32(1000)
		_ = a.Int64(500)
		_ = a.Float32(1000)
		_ = a.Bool(1000)
		w := a.Worklist(1064, 4)
		w.Push(3)
		a.Reset()
	}
	run() // warm: populates the slab pools
	run()
	allocs := testing.AllocsPerRun(20, run)
	if allocs != 0 {
		t.Fatalf("steady-state checkout sequence allocates %.1f/run, want 0", allocs)
	}
}
