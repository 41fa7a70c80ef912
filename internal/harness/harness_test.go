package harness

import (
	"strings"
	"testing"

	"indigo/internal/gen"
	"indigo/internal/stats"
	"indigo/internal/store"
	"indigo/internal/styles"
)

func TestThroughputsGrouping(t *testing.T) {
	dim := styles.DimByKey("gran")
	mk := func(g styles.Gran, tput float64) store.Cell {
		return store.Cell{Cfg: styles.Config{Algo: styles.BFS, Model: styles.CUDA, Gran: g}, Tput: tput}
	}
	cells := []store.Cell{mk(styles.ThreadGran, 1), mk(styles.WarpGran, 2), mk(styles.WarpGran, 3)}
	got := Throughputs(cells, dim)
	if len(got[styles.BFS][styles.ThreadGran.String()]) != 1 || len(got[styles.BFS][styles.WarpGran.String()]) != 2 {
		t.Fatalf("grouping wrong: %v", got)
	}
}

// session is shared across the figure tests to avoid recollecting.
var shared *Session

func getSession(t *testing.T) *Session {
	t.Helper()
	if testing.Short() {
		t.Skip("figure regeneration skipped in -short mode")
	}
	if shared == nil {
		shared = NewSession(gen.Tiny, 8)
	}
	return shared
}

func TestFig1AtomicBeatsCudaAtomic(t *testing.T) {
	s := getSession(t)
	r := s.Fig1()
	if len(r.Lines) == 0 {
		t.Fatal("empty fig1")
	}
	// The paper's headline: Atomic is ~10x faster on the RTX-like GPU
	// and ~100x on the Titan-like GPU. Check the medians' direction and
	// the inter-device ordering on SSSP.
	atomics := func(f store.Filter) map[styles.Algorithm][]float64 {
		return s.Results().Ratios(styles.DimByKey("atomics"), int(styles.ClassicAtomic), int(styles.CudaAtomic),
			store.And(store.ByModel(styles.CUDA), f))
	}
	rtxMed := stats.Median(atomics(byDevice("rtx-sim"))[styles.SSSP])
	titanMed := stats.Median(atomics(byDevice("titan-sim"))[styles.SSSP])
	if rtxMed < 2 {
		t.Errorf("rtx SSSP atomic/cudaatomic median = %v, want > 2", rtxMed)
	}
	if titanMed < 2*rtxMed {
		t.Errorf("titan median %v not well above rtx median %v", titanMed, rtxMed)
	}
	// TC's ratio should be the smallest (only one atomic add, §5.1).
	if tcMed := stats.Median(atomics(byDevice("titan-sim"))[styles.TC]); !(tcMed < titanMed) {
		t.Errorf("TC median %v should be below SSSP median %v", tcMed, titanMed)
	}
}

func TestFig8PersistentNearOne(t *testing.T) {
	s := getSession(t)
	_ = s.Fig8()
	ratios := s.Results().Ratios(styles.DimByKey("persist"), int(styles.Persistent), int(styles.NonPersistent),
		store.And(store.ClassicOnly, store.ByModel(styles.CUDA)))
	for a, xs := range ratios {
		med := stats.Median(xs)
		if med < 0.05 || med > 20 {
			t.Errorf("%s persistent/non-persistent median = %v, want near 1 (§5.7)", a, med)
		}
	}
}

func TestFig10ReductionAddFastest(t *testing.T) {
	s := getSession(t)
	_ = s.Fig10()
	dim := styles.DimByKey("gpured")
	// Pairwise (other styles fixed): reduction-add beats global-add on
	// the median (§5.9); the magnitude is smaller than the paper's (see
	// EXPERIMENTS.md on the bandwidth-centric cost model).
	rg := s.Results().Ratios(dim, int(styles.ReductionAdd), int(styles.GlobalAdd),
		store.And(store.ClassicOnly, store.ByModel(styles.CUDA), byAlgos(styles.PR, styles.TC)))
	for _, a := range []styles.Algorithm{styles.PR, styles.TC} {
		if med := stats.Median(rg[a]); !(med > 1.0) {
			t.Errorf("%s reduction-add/global-add median = %v, want > 1 (§5.9)", a, med)
		}
	}
}

func TestFig11CriticalSlowest(t *testing.T) {
	s := getSession(t)
	_ = s.Fig11()
	dim := styles.DimByKey("cpured")
	// Pairwise: the clause reduction beats the critical section (§5.10).
	cc := s.Results().Ratios(dim, int(styles.ClauseRed), int(styles.CriticalRed), byAlgos(styles.PR, styles.TC))
	for _, a := range []styles.Algorithm{styles.PR, styles.TC} {
		if med := stats.Median(cc[a]); !(med > 1.0) {
			t.Errorf("%s clause/critical median = %v, want > 1 (§5.10)", a, med)
		}
	}
}

func TestTables(t *testing.T) {
	s := NewSession(gen.Tiny, 4)
	t2 := s.Table2()
	if len(t2.Lines) < 14 {
		t.Errorf("table2 has %d lines", len(t2.Lines))
	}
	// PR has no edge-based or data-driven variants (Table 2 row checks).
	if line := t2.Find("vertex-based"); !strings.Contains(line, "+,-") {
		t.Errorf("table2 vertex/edge row lacks a '+,-' cell: %q", line)
	}
	t3 := s.Table3()
	if line := t3.Find("grand total"); !strings.Contains(line, "850") {
		t.Errorf("table3 total wrong: %q", line)
	}
	t45 := s.Table45()
	if len(t45.Lines) != int(gen.NumInputs)+1 {
		t.Errorf("table45 has %d lines", len(t45.Lines))
	}
	if line := t45.Find("road"); !strings.Contains(line, "USA-road-d.NY") {
		t.Errorf("road row missing paper name: %q", line)
	}
}

func TestFig14And15Structure(t *testing.T) {
	s := getSession(t)
	f14 := s.Fig14()
	if len(f14.Lines) != 4 { // header + 3 models
		t.Fatalf("fig14 has %d lines: %v", len(f14.Lines), f14.Lines)
	}
	f15 := s.Fig15()
	if len(f15.Lines) != 18 { // header + 17 styles
		t.Fatalf("fig15 has %d lines", len(f15.Lines))
	}
	// Every style row must pair with its own opposite as "-" never with
	// itself (with-x-without-x is empty on the diagonal complement).
	if !strings.HasPrefix(f15.Lines[1], "vertex") {
		t.Errorf("fig15 first style row = %q", f15.Lines[1])
	}
}

func TestFig16Baselines(t *testing.T) {
	s := getSession(t)
	r := s.Fig16()
	if line := r.Find("N/A"); !strings.Contains(line, "mis") {
		t.Errorf("fig16 missing CUDA MIS N/A row: %q", line)
	}
	found := 0
	for _, l := range r.Lines {
		if strings.Contains(l, "geomean of geomeans") {
			found++
		}
	}
	if found != 3 {
		t.Errorf("fig16 has %d model geomean rows, want 3", found)
	}
}

func TestCorrelationReport(t *testing.T) {
	s := getSession(t)
	r := s.Correlation()
	if len(r.Lines) != 7 {
		t.Fatalf("correlation has %d lines", len(r.Lines))
	}
	for _, l := range r.Lines[:6] {
		if strings.Contains(l, "nan") {
			t.Errorf("correlation line has NaN: %q", l)
		}
	}
}

func TestSpreadShowsWrongStyleCost(t *testing.T) {
	s := getSession(t)
	r := s.Spread()
	if len(r.Lines) < 10 {
		t.Fatalf("spread has %d lines", len(r.Lines))
	}
	// The headline: even at tiny scale the wrong style costs well over
	// an order of magnitude somewhere.
	line := r.Find("overall worst-case spread")
	if line == "" {
		t.Fatal("no overall spread line")
	}
	// CUDA SSSP spreads must exceed 10x (CudaAtomic + bad styles).
	sssp := ""
	for _, l := range r.Lines {
		if strings.HasPrefix(l, "cuda\tsssp") {
			sssp = l
		}
	}
	if sssp == "" {
		t.Fatal("no cuda sssp spread line")
	}
}

func TestAblationMonotone(t *testing.T) {
	s := getSession(t)
	r := s.Ablation()
	if len(r.Lines) != 5 {
		t.Fatalf("ablation has %d lines", len(r.Lines))
	}
	// The factor=100 median must exceed the factor=1 median: the knob
	// drives the effect.
	first, last := r.Lines[0], r.Lines[len(r.Lines)-1]
	if !strings.Contains(first, "factor=1 ") || !strings.Contains(last, "factor=100") {
		t.Fatalf("unexpected ablation lines: %q %q", first, last)
	}
}

func TestAllReportsNonEmpty(t *testing.T) {
	s := getSession(t)
	for _, r := range s.All() {
		if len(r.Lines) == 0 {
			t.Errorf("report %s is empty", r.ID)
		}
		if r.ID == "" || r.Title == "" {
			t.Errorf("report missing identity: %+v", r)
		}
	}
}
