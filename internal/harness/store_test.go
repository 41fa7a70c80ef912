package harness

import (
	"reflect"
	"sort"
	"testing"

	"indigo/internal/gen"
	"indigo/internal/store"
	"indigo/internal/styles"
)

// TestAttachStoreCollectsCells runs a real collection with a store
// attached and checks every successful measurement became a cell
// carrying the input's shape signature.
func TestAttachStoreCollectsCells(t *testing.T) {
	s := NewSession(gen.Tiny, 2)
	st := store.NewMem()
	s.AttachStore(st)
	s.Collect([]styles.Algorithm{styles.BFS}, []styles.Model{styles.CPP})

	n := s.Results().Len()
	if n == 0 {
		t.Fatal("collection produced no measurements")
	}
	if st.Len() != n {
		t.Fatalf("store holds %d cells, session holds %d measurements", st.Len(), n)
	}
	// Both receive the same cells, built by the same constructor.
	if !reflect.DeepEqual(st.Cells(), s.Results().Cells()) {
		t.Error("attached store's cells differ from the session's own")
	}
	for _, c := range st.Cells() {
		if c.Tput <= 0 {
			t.Errorf("cell %s has non-positive throughput %v", c.Key(), c.Tput)
		}
		want := s.GStats[gen.InputRoad]
		if c.Input == "road" && !reflect.DeepEqual(c.Graph, want) {
			t.Errorf("cell %s signature %+v, want %+v", c.Key(), c.Graph, want)
		}
	}
}

// TestLoadStoreSeedsSession checks a second session can rebuild its
// measurements from the store without re-running anything, and that the
// two sessions agree on the aggregates value for value.
func TestLoadStoreSeedsSession(t *testing.T) {
	s1 := NewSession(gen.Tiny, 2)
	st := store.NewMem()
	s1.AttachStore(st)
	s1.Collect([]styles.Algorithm{styles.BFS}, []styles.Model{styles.CPP})

	s2 := NewSession(gen.Tiny, 2)
	n := s2.LoadStore(st)
	if n != st.Len() {
		t.Fatalf("LoadStore loaded %d, store holds %d", n, st.Len())
	}
	// The pair is marked collected: a Collect for it must not add runs.
	s2.Collect([]styles.Algorithm{styles.BFS}, []styles.Model{styles.CPP})
	if got := s2.Results().Len(); got != n {
		t.Fatalf("Collect after LoadStore re-ran: %d measurements, want %d", got, n)
	}

	ratios := func(s *Session) map[styles.Algorithm][]float64 {
		r := s.Results().Ratios(styles.DimByKey("flow"), int(styles.Push), int(styles.Pull), nil)
		for _, xs := range r {
			sort.Float64s(xs)
		}
		return r
	}
	r1, r2 := ratios(s1), ratios(s2)
	if len(r1[styles.BFS]) == 0 {
		t.Fatal("no push/pull ratios to compare")
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("sessions disagree on push/pull ratios:\n %v\nvs %v", r1, r2)
	}
}

// TestLoadStoreSkipsUnknownInputs pins the tolerance contract: cells
// naming inputs outside the generated suite are skipped, not mangled.
func TestLoadStoreSkipsUnknownInputs(t *testing.T) {
	st := store.NewMem()
	cfg := styles.Enumerate(styles.BFS, styles.CPP)[0]
	if err := st.Append(
		store.Cell{Cfg: cfg, Input: "road", Device: "cpu", Tput: 1},
		store.Cell{Cfg: cfg, Input: "not-a-suite-input", Device: "cpu", Tput: 2},
	); err != nil {
		t.Fatal(err)
	}
	s := NewSession(gen.Tiny, 2)
	if n := s.LoadStore(st); n != 1 {
		t.Fatalf("LoadStore loaded %d cells, want 1 (unknown input skipped)", n)
	}
}
