package sweep

import (
	"strings"
	"testing"
	"time"

	"indigo/internal/algo"
	"indigo/internal/guard"
	"indigo/internal/par"
	"indigo/internal/styles"
	"indigo/internal/testutil"
)

// TestProbeMeasuresAndReuses: probes return classified outcomes with a
// throughput, the pool and arena survive across probes, and Close
// releases everything (leak-checked).
func TestProbeMeasuresAndReuses(t *testing.T) {
	defer testutil.Snapshot(t).Check(t)
	g := testGraph()
	p := NewProber(algo.Options{Threads: 2}, Options{Timeout: 5 * time.Second, Verify: true})
	defer p.Close()
	for i := 0; i < 3; i++ {
		o := p.Probe(g, rmwVariant(t), DeviceCPU)
		if o.Kind != OK || !(o.Tput > 0) {
			t.Fatalf("probe %d: kind %s tput %v err %q, want ok", i, o.Kind, o.Tput, o.Err)
		}
		if o.Attempts != 1 {
			t.Fatalf("probe %d: %d attempts, want exactly 1 (the caller owns the retry policy)", i, o.Attempts)
		}
	}
}

// TestProbeGPU: a CUDA variant probes on the simulated device and
// reports the deterministic throughput twice.
func TestProbeGPU(t *testing.T) {
	defer testutil.Snapshot(t).Check(t)
	g := testGraph()
	cfg := styles.Enumerate(styles.BFS, styles.CUDA)[0]
	p := NewProber(algo.Options{Threads: 2}, Options{Timeout: 5 * time.Second, Verify: true})
	defer p.Close()
	a := p.Probe(g, cfg, "rtx-sim")
	b := p.Probe(g, cfg, "rtx-sim")
	if a.Kind != OK || b.Kind != OK {
		t.Fatalf("gpu probes: %s (%s), %s (%s)", a.Kind, a.Err, b.Kind, b.Err)
	}
	if a.Tput != b.Tput {
		t.Fatalf("simulated device is not deterministic across probes: %v vs %v", a.Tput, b.Tput)
	}
	if a.SimCycles <= 0 {
		t.Fatal("gpu probe carries no simulated cost counters")
	}
}

// TestProbeClassifiesFailures: the prober inherits the supervisor's
// failure taxonomy — a panic is recovered and classified, a corrupted
// result is caught by verification — and, unlike a supervised sweep,
// never quarantines: the same variant probes clean again once the
// fault is gone.
func TestProbeClassifiesFailures(t *testing.T) {
	defer par.SetChaos(nil)
	g := testGraph()
	cfg := rmwVariant(t)
	p := NewProber(algo.Options{Threads: 2}, Options{Timeout: 5 * time.Second, Verify: true, QuarantineAfter: 1})
	defer p.Close()

	par.SetChaos(&par.Chaos{PanicMsg: "injected fault"})
	if o := p.Probe(g, cfg, DeviceCPU); o.Kind != Panic || !strings.Contains(o.Err, "injected fault") {
		t.Fatalf("panicking probe classified %s (%s), want panic", o.Kind, o.Err)
	}

	par.SetChaos(&par.Chaos{DropUpdates: true})
	if o := p.Probe(g, cfg, DeviceCPU); o.Kind != WrongAnswer {
		t.Fatalf("corrupted probe classified %s (%s), want wrong-answer", o.Kind, o.Err)
	}

	par.SetChaos(nil)
	if o := p.Probe(g, cfg, DeviceCPU); o.Kind != OK {
		t.Fatalf("healthy probe after faults classified %s (%s), want ok — probes must not quarantine", o.Kind, o.Err)
	}
}

// TestProbeHonorsOuterGuard: tripping Options.Outer stops the probe in
// flight through the propagated per-run token.
func TestProbeHonorsOuterGuard(t *testing.T) {
	g := testGraph()
	outer := guard.New()
	defer outer.Release()
	p := NewProber(algo.Options{Threads: 2}, Options{Timeout: 5 * time.Second, Outer: outer})
	defer p.Close()

	// Trip the session before probing: the per-run token is coupled
	// synchronously, so the run is stopped before its first region.
	outer.Cancel()
	o := p.Probe(g, rmwVariant(t), DeviceCPU)
	if o.Kind == OK {
		t.Fatalf("probe survived an outer cancel: %s tput %v", o.Kind, o.Tput)
	}
	if !strings.Contains(o.Err, "canceled") {
		t.Fatalf("canceled probe error %q does not say canceled", o.Err)
	}
}
