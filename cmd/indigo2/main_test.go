package main

import (
	"path/filepath"
	"testing"

	"indigo/internal/store"
	"indigo/internal/styles"
)

func TestParseFilters(t *testing.T) {
	algos, models, err := parseFilters("", "")
	if err != nil || len(algos) != int(styles.NumAlgorithms) || len(models) != int(styles.NumModels) {
		t.Fatalf("unfiltered: %d algos, %d models, err=%v", len(algos), len(models), err)
	}
	algos, models, err = parseFilters("sssp", "omp")
	if err != nil || len(algos) != 1 || algos[0] != styles.SSSP || len(models) != 1 || models[0] != styles.OMP {
		t.Fatalf("filtered: %v %v err=%v", algos, models, err)
	}
	if _, _, err := parseFilters("bogus", ""); err == nil {
		t.Error("bad algorithm accepted")
	}
	if _, _, err := parseFilters("", "bogus"); err == nil {
		t.Error("bad model accepted")
	}
}

func TestFindVariant(t *testing.T) {
	want := styles.Enumerate(styles.BFS, styles.CPP)[0]
	got, err := findVariant(want.Name())
	if err != nil || got != want {
		t.Fatalf("findVariant(%q) = %v, %v", want.Name(), got, err)
	}
	if _, err := findVariant("nope/nope"); err == nil {
		t.Error("unknown variant accepted")
	}
}

func TestLoadInput(t *testing.T) {
	g, err := loadInput("road", "tiny")
	if err != nil || g == nil || g.N == 0 {
		t.Fatalf("loadInput(road, tiny): %v, %v", g, err)
	}
	if _, err := loadInput("nope", "tiny"); err == nil {
		t.Error("unknown input accepted")
	}
	if _, err := loadInput("road", "nope"); err == nil {
		t.Error("unknown scale accepted")
	}
}

func TestProfileByName(t *testing.T) {
	p, err := profileByName("rtx-sim")
	if err != nil || p.Name != "rtx-sim" {
		t.Fatalf("profileByName: %v, %v", p, err)
	}
	if _, err := profileByName("gtx-1080"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestRunStoreKeepsSimCounters: a simulated-GPU run appended with
// -store carries the simulator's cost counters, like cells the harness
// and the journal importer write.
func TestRunStoreKeepsSimCounters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.store")
	if err := cmdRun([]string{"-variant", "bfs/cuda/vertex/topo/push/rw/nondet/thread/npers/atomic",
		"-input", "road", "-scale", "tiny", "-store", path}); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cells := st.Cells()
	if len(cells) != 1 {
		t.Fatalf("store holds %d cells, want 1", len(cells))
	}
	if c := cells[0]; c.SimCycles <= 0 || c.SimInstructions <= 0 || c.SimTransactions <= 0 {
		t.Errorf("stored cell lost its simulator counters: %+v", c)
	}
}
