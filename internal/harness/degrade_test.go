package harness

import (
	"strings"
	"testing"
	"time"

	"indigo/internal/gen"
	"indigo/internal/par"
	"indigo/internal/styles"
	"indigo/internal/sweep"
)

// TestCollectDegradesGracefully stalls every worker so each supervised
// run times out, and checks the session's graceful degradation: Collect
// survives with zero measurements, failures are recorded, and reports
// carry the missing-cells footnote instead of presenting partial data
// as complete.
func TestCollectDegradesGracefully(t *testing.T) {
	defer par.SetChaos(nil)
	s := NewSession(gen.Tiny, 2)
	s.Sweep.Timeout = 25 * time.Millisecond
	s.Sweep.QuarantineAfter = 1

	stall := make(chan struct{})
	defer close(stall) // release the abandoned runs' workers
	par.SetChaos(&par.Chaos{Stall: stall})
	s.Collect([]styles.Algorithm{styles.BFS}, []styles.Model{styles.CPP})
	par.SetChaos(nil)

	if n := s.Results().Len(); n != 0 {
		t.Errorf("stalled collection produced %d measurements, want 0", n)
	}
	fails := s.Failures()
	if len(fails) == 0 {
		t.Fatal("stalled collection recorded no failures")
	}
	kinds := make(map[sweep.Kind]int)
	for _, f := range fails {
		kinds[f.Kind]++
	}
	if kinds[sweep.Timeout] == 0 {
		t.Errorf("no timeouts among %d failures: %v", len(fails), kinds)
	}
	// QuarantineAfter=1 quarantines each variant after its first timed-out
	// input, so the remaining inputs must be skipped, not run.
	if kinds[sweep.Quarantined] == 0 {
		t.Errorf("no quarantined runs among %d failures: %v", len(fails), kinds)
	}

	// Every report driver returns through annotate; Table2 computes its
	// body from the enumeration alone, so the footnote is the only part
	// that depends on the failed collection.
	r := s.Table2()
	if !strings.Contains(r.String(), "missing cells") {
		t.Errorf("report over partial data lacks the missing-cells footnote:\n%s", r)
	}
}

// TestAnnotateCleanSessionAddsNothing: the footnote must not appear when
// every run succeeded (the seed's report tests depend on byte-for-byte
// stable output).
func TestAnnotateCleanSessionAddsNothing(t *testing.T) {
	s := NewSession(gen.Tiny, 2)
	r := s.Table3()
	if strings.Contains(r.String(), "missing cells") {
		t.Errorf("clean session annotated a report:\n%s", r)
	}
}
