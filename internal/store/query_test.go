package store

import (
	"reflect"
	"testing"

	"indigo/internal/graph"
	"indigo/internal/styles"
)

// queryCell builds a BFS/OMP cell with the given drive/flow settings
// and throughput, anchored on a fixed otherwise-default config.
func queryCell(t *testing.T, drive styles.Drive, flow styles.Flow, input string, tput float64) Cell {
	t.Helper()
	cfg := styles.Config{
		Algo:   styles.BFS,
		Model:  styles.OMP,
		Drive:  drive,
		Flow:   flow,
		Update: styles.ReadModifyWrite, // legal with every drive
	}
	if !styles.Valid(cfg) {
		t.Fatalf("test config %q is not valid", cfg.Name())
	}
	return Cell{
		Cfg:    cfg,
		Input:  input,
		Device: "cpu",
		Graph:  graph.Stats{Name: input},
		Tput:   tput,
	}
}

func TestRatiosPairsByInput(t *testing.T) {
	s := NewMem()
	// Two inputs, push vs pull on each: ratios 2.0 and 4.0. A third
	// cell on a different drive must not pair with either.
	if err := s.Append(
		queryCell(t, styles.TopologyDriven, styles.Push, "road", 2.0),
		queryCell(t, styles.TopologyDriven, styles.Pull, "road", 1.0),
		queryCell(t, styles.TopologyDriven, styles.Push, "grid2d", 8.0),
		queryCell(t, styles.TopologyDriven, styles.Pull, "grid2d", 2.0),
		queryCell(t, styles.DataDrivenDup, styles.Push, "road", 100.0),
	); err != nil {
		t.Fatal(err)
	}
	dim := styles.DimByKey("flow")
	got := s.Ratios(dim, int(styles.Push), int(styles.Pull), nil)
	want := map[styles.Algorithm][]float64{styles.BFS: {2.0, 4.0}}
	// Map iteration order is random; sort-insensitive compare.
	if len(got) != 1 || len(got[styles.BFS]) != 2 {
		t.Fatalf("Ratios = %v, want two BFS ratios", got)
	}
	sum := got[styles.BFS][0] + got[styles.BFS][1]
	if sum != want[styles.BFS][0]+want[styles.BFS][1] {
		t.Fatalf("Ratios = %v, want %v (any order)", got, want)
	}
}

func TestRatiosSeparatesDevices(t *testing.T) {
	s := NewMem()
	a := styles.Config{Algo: styles.CC, Model: styles.CUDA}
	b := a
	b.Atomics = styles.CudaAtomic
	// Same config pair, different devices: no pair may form.
	if err := s.Append(
		Cell{Cfg: a, Input: "road", Device: "rtx-sim", Tput: 10},
		Cell{Cfg: b, Input: "road", Device: "titan-sim", Tput: 1},
	); err != nil {
		t.Fatal(err)
	}
	dim := styles.DimByKey("atomics")
	if got := s.Ratios(dim, int(styles.ClassicAtomic), int(styles.CudaAtomic), nil); len(got[styles.CC]) != 0 {
		t.Fatalf("cross-device pairing happened: %v", got)
	}
}

func TestCensusDeterministicTieBreak(t *testing.T) {
	// Two variants tie on throughput; the census must pick the
	// lexicographically smaller variant name no matter the append order.
	a := queryCell(t, styles.TopologyDriven, styles.Push, "road", 5.0)
	b := queryCell(t, styles.DataDrivenDup, styles.Pull, "road", 5.0)

	census := func(cells ...Cell) CensusRow {
		s := NewMem()
		if err := s.Append(cells...); err != nil {
			t.Fatal(err)
		}
		row, ok := s.Census(styles.OMP)
		if !ok {
			t.Fatal("Census returned no data")
		}
		return row
	}
	r1 := census(a, b)
	r2 := census(b, a)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("census depends on append order:\n %+v\nvs %+v", r1, r2)
	}
	if r1.N != 1 {
		t.Fatalf("census N = %d, want 1 best cell", r1.N)
	}
}

func TestCensusEmptyModel(t *testing.T) {
	s := NewMem()
	if _, ok := s.Census(styles.CUDA); ok {
		t.Fatal("Census over empty store reported data")
	}
}

// shapedCell builds a cell with a given config, input, and graph shape.
func shapedCell(cfg styles.Config, input, device string, tput float64, shape graph.Stats) Cell {
	shape.Name = input
	return Cell{Cfg: cfg, Input: input, Device: device, Graph: shape, Tput: tput}
}

func TestBestPicksHighestThroughput(t *testing.T) {
	s := NewMem()
	if err := s.Append(
		queryCell(t, styles.TopologyDriven, styles.Push, "road", 2.0),
		queryCell(t, styles.TopologyDriven, styles.Pull, "road", 5.0),
		queryCell(t, styles.DataDrivenDup, styles.Push, "road", 3.0),
		queryCell(t, styles.TopologyDriven, styles.Pull, "grid2d", 9.0), // other input
	); err != nil {
		t.Fatal(err)
	}
	c, ok := s.Best(styles.BFS, styles.OMP, "road", "cpu")
	if !ok {
		t.Fatal("Best found nothing")
	}
	if c.Tput != 5.0 || c.Cfg.Flow != styles.Pull {
		t.Fatalf("Best = %s (%.1f), want the 5.0 pull cell", c.Cfg.Name(), c.Tput)
	}
	if _, ok := s.Best(styles.BFS, styles.OMP, "road", "rtx-sim"); ok {
		t.Fatal("Best found a cell for a device the store has never seen")
	}
	if _, ok := s.Best(styles.PR, styles.OMP, "road", "cpu"); ok {
		t.Fatal("Best found a cell for an algorithm the store has never seen")
	}
}

func TestBestBreaksTiesByName(t *testing.T) {
	s := NewMem()
	a := queryCell(t, styles.TopologyDriven, styles.Push, "road", 4.0)
	b := queryCell(t, styles.TopologyDriven, styles.Pull, "road", 4.0)
	if err := s.Append(a, b); err != nil {
		t.Fatal(err)
	}
	want := a.Cfg.Name()
	if b.Cfg.Name() < want {
		want = b.Cfg.Name()
	}
	c, ok := s.Best(styles.BFS, styles.OMP, "road", "cpu")
	if !ok || c.Cfg.Name() != want {
		t.Fatalf("tie broke to %s, want %s", c.Cfg.Name(), want)
	}
}

func TestBestForShapeOrdersByShapeSimilarity(t *testing.T) {
	s := NewMem()
	road := graph.Stats{Vertices: 1000, AvgDegree: 2.5, MaxDegree: 4, Diameter: 120}
	social := graph.Stats{Vertices: 1000, AvgDegree: 30, MaxDegree: 5000, Diameter: 6}
	grid := graph.Stats{Vertices: 900, AvgDegree: 4, MaxDegree: 4, Diameter: 60}
	pull := queryCell(t, styles.TopologyDriven, styles.Pull, "", 0).Cfg
	push := queryCell(t, styles.TopologyDriven, styles.Push, "", 0).Cfg
	if err := s.Append(
		shapedCell(pull, "road", "cpu", 3.0, road),
		shapedCell(push, "road", "cpu", 1.0, road),
		shapedCell(push, "social", "cpu", 8.0, social),
		shapedCell(pull, "grid2d", "cpu", 2.0, grid),
	); err != nil {
		t.Fatal(err)
	}
	// Query with a road-like shape: road's best first, grid next,
	// social last.
	query := graph.Stats{Vertices: 2000, AvgDegree: 2.7, MaxDegree: 5, Diameter: 200}
	got := s.BestForShape(styles.BFS, styles.OMP, "cpu", query, -1)
	if len(got) != 3 {
		t.Fatalf("got %d cells, want 3 (one per input)", len(got))
	}
	if got[0].Input != "road" || got[0].Tput != 3.0 {
		t.Fatalf("nearest = %s (%.1f), want road's 3.0 best", got[0].Input, got[0].Tput)
	}
	if got[1].Input != "grid2d" || got[2].Input != "social" {
		t.Fatalf("order = %s, %s; want grid2d then social", got[1].Input, got[2].Input)
	}
	// k truncates.
	if got := s.BestForShape(styles.BFS, styles.OMP, "cpu", query, 1); len(got) != 1 || got[0].Input != "road" {
		t.Fatalf("k=1 returned %v", got)
	}
}
