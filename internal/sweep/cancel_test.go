package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/par"
	"indigo/internal/scratch"
	"indigo/internal/styles"
	"indigo/internal/testutil"
)

// TestCooperativeCancelReclaimsPool is the acceptance test for the
// guard-based timeout path: a slow (chaos-delayed) run misses its
// deadline, observes the tripped token at a checkpoint, and returns on
// its own — so the supervisor keeps the worker pool and arena instead
// of abandoning them, and the very next attempt reuses both.
func TestCooperativeCancelReclaimsPool(t *testing.T) {
	defer par.SetChaos(nil)
	leaks := testutil.Snapshot(t)
	gs := testGraphs()
	ropt := algo.Options{Threads: 2}
	task := Task{Cfg: rmwVariant(t), Input: 0, Device: DeviceCPU}

	sup, err := New(Options{Timeout: 25 * time.Millisecond, ReclaimGrace: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := newPoolHolder(ropt)
	pool, arena := h.pool, h.arena

	// Delay each worker a little at every region entry: the tiny graph's
	// many rounds now sum past the deadline, but every worker still
	// reaches its next checkpoint promptly, so the cancel lands well
	// inside the grace window.
	par.SetChaos(&par.Chaos{Delay: 5 * time.Millisecond})
	kind, _, _, msg, reclaim, cancelNS := sup.attempt(gs[task.Input], ropt, task.Cfg, task.Device, h)
	par.SetChaos(nil)

	if kind != Timeout {
		t.Fatalf("slow run classified %s (%s), want timeout", kind, msg)
	}
	if reclaim != ReclaimCancel {
		t.Fatalf("slow run reclaimed by %q (%s), want %q", reclaim, msg, ReclaimCancel)
	}
	if cancelNS < 0 {
		t.Errorf("cancel latency %d ns, want >= 0", cancelNS)
	}
	if !strings.Contains(msg, "canceled") {
		t.Errorf("cancel message %q does not say the run was canceled", msg)
	}
	if h.pool != pool {
		t.Error("cooperative cancel replaced the worker pool; it must be reclaimed intact")
	}
	if h.arena != arena {
		t.Error("cooperative cancel replaced the arena; it must be reclaimed intact")
	}

	// The reclaimed pool and arena serve the next attempt as-is.
	kind, tput, _, msg, _, _ := sup.attempt(gs[task.Input], ropt, task.Cfg, task.Device, h)
	if kind != OK || !(tput > 0) {
		t.Errorf("healthy run after cancel: kind %s tput %v err %q, want ok", kind, tput, msg)
	}

	h.close()
	leaks.Check(t)
}

// TestStallFallsBackToAbandonment covers the other reclaim path: a run
// wedged where the token cannot see it (workers stalled before their
// first checkpoint) never cancels, so after the grace window the
// supervisor abandons it — pool closed and replaced, arena retired.
func TestStallFallsBackToAbandonment(t *testing.T) {
	defer par.SetChaos(nil)
	leaks := testutil.Snapshot(t)
	gs := testGraphs()
	ropt := algo.Options{Threads: 2}
	task := Task{Cfg: rmwVariant(t), Input: 0, Device: DeviceCPU}

	sup, err := New(Options{Timeout: 20 * time.Millisecond, ReclaimGrace: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	h := newPoolHolder(ropt)
	pool := h.pool

	stall := make(chan struct{})
	par.SetChaos(&par.Chaos{Stall: stall})
	kind, _, _, msg, reclaim, cancelNS := sup.attempt(gs[task.Input], ropt, task.Cfg, task.Device, h)
	par.SetChaos(nil)
	// Release the wedged workers: they observe the tripped token (or the
	// retired arena) and unwind, which is what the leak check asserts.
	close(stall)

	if kind != Timeout {
		t.Fatalf("stalled run classified %s (%s), want timeout", kind, msg)
	}
	if reclaim != ReclaimAbandon {
		t.Fatalf("stalled run reclaimed by %q (%s), want %q", reclaim, msg, ReclaimAbandon)
	}
	if cancelNS != 0 {
		t.Errorf("abandoned run recorded cancel latency %d ns, want 0", cancelNS)
	}
	if !strings.Contains(msg, "grace") || !strings.Contains(msg, "50ms") {
		t.Errorf("abandon message %q does not name the effective grace window", msg)
	}
	if h.pool == pool {
		t.Error("abandonment kept the wedged pool; it must be replaced")
	}

	// The replacement pool serves a healthy attempt.
	kind, tput, _, msg, _, _ := sup.attempt(gs[task.Input], ropt, task.Cfg, task.Device, h)
	if kind != OK || !(tput > 0) {
		t.Errorf("healthy run after abandonment: kind %s tput %v err %q, want ok", kind, tput, msg)
	}

	h.close()
	leaks.Check(t)
}

// TestMemBudgetFailsCleanly: an attempt whose arena would outgrow the
// memory budget fails with a clean, deterministic Error — classified on
// the first attempt, never retried, pool intact.
func TestMemBudgetFailsCleanly(t *testing.T) {
	gs := testGraphs()
	ropt := algo.Options{Threads: 2}
	task := Task{Cfg: rmwVariant(t), Input: 0, Device: DeviceCPU}

	sup, err := New(Options{MemBudget: 1, Retries: 3})
	if err != nil {
		t.Fatal(err)
	}
	h := newPoolHolder(ropt)
	defer h.close()
	// A warmed arena from the process-wide cache may already own every
	// slab the variant needs and charge nothing; a fresh arena must grow,
	// so its first checkout overdraws the 1-byte budget deterministically.
	scratch.Release(h.arena)
	h.arena = scratch.New()
	pool := h.pool

	o := sup.runTask(gs, ropt, task, h).o
	if o.Kind != Error {
		t.Fatalf("over-budget run classified %s (%s), want error", o.Kind, o.Err)
	}
	if !strings.Contains(o.Err, "budget") {
		t.Errorf("budget error %q does not mention the budget", o.Err)
	}
	if o.Attempts != 1 {
		t.Errorf("deterministic budget overdraw took %d attempts, want 1 (never retried)", o.Attempts)
	}
	if h.pool != pool {
		t.Error("budget overdraw replaced the worker pool; it must survive")
	}
}

// TestJournalRecordsReclaim: the v2 reclaim fields survive the journal
// round trip.
func TestJournalRecordsReclaim(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	task := Task{Cfg: rmwVariant(t), Input: 0, Device: DeviceCPU}

	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(Outcome{Task: task, Kind: Timeout, Err: "canceled after 1ms deadline",
		Attempts: 1, Reclaim: ReclaimCancel, CancelNS: 12345}); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	prior, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	o, ok := prior[task.Key()]
	if !ok {
		t.Fatal("journaled outcome missing after read")
	}
	if o.Reclaim != ReclaimCancel || o.CancelNS != 12345 {
		t.Errorf("reclaim fields read back as (%q, %d), want (%q, 12345)",
			o.Reclaim, o.CancelNS, ReclaimCancel)
	}
}

// TestReadJournalBackfillsPreV2Timeouts: timeout records written before
// schema v2 carry no reclaim field; the reader must treat them as
// abandonments (cancellation did not exist yet) so resume re-runs them.
func TestReadJournalBackfillsPreV2Timeouts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	cfg := rmwVariant(t)
	rec := Record{V: 1, Variant: cfg.Name(), Input: gen.Input(0).String(),
		Device: DeviceCPU, Kind: "timeout", Err: "no result within 1ms",
		Attempts: 1, ElapsedMS: 1}
	line, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	prior, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	o, ok := prior[Task{Cfg: cfg, Input: 0, Device: DeviceCPU}.Key()]
	if !ok {
		t.Fatal("pre-v2 timeout record missing after read")
	}
	if o.Reclaim != ReclaimAbandon {
		t.Errorf("pre-v2 timeout backfilled as %q, want %q", o.Reclaim, ReclaimAbandon)
	}
}

// TestResumeReplaysCancelRerunsAbandon is the resume-semantics contract:
// a cooperatively canceled timeout describes the cell (too slow for the
// deadline) and replays; an abandoned timeout describes a poisoned
// runtime and must re-run.
func TestResumeReplaysCancelRerunsAbandon(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	cfgCancel := rmwVariant(t)
	cfgAbandon := pickVariant(t, func(c styles.Config) bool { return c.Name() != cfgCancel.Name() })
	tCancel := Task{Cfg: cfgCancel, Input: 0, Device: DeviceCPU}
	tAbandon := Task{Cfg: cfgAbandon, Input: 0, Device: DeviceCPU}

	j, err := openJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.append(Outcome{Task: tCancel, Kind: Timeout,
		Err: "canceled after 1ns deadline", Attempts: 1, Reclaim: ReclaimCancel}); err != nil {
		t.Fatal(err)
	}
	if err := j.append(Outcome{Task: tAbandon, Kind: Timeout,
		Err:      "no result within 1ns and no checkpoint within the 1ms grace window",
		Attempts: 1, Reclaim: ReclaimAbandon}); err != nil {
		t.Fatal(err)
	}
	if err := j.close(); err != nil {
		t.Fatal(err)
	}

	sup, err := New(Options{Journal: path, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sup.Close()
	out := sup.Run(testGraphs(), algo.Options{Threads: 2}, []Task{tCancel, tAbandon})

	if !out[0].Resumed || out[0].Kind != Timeout || out[0].Reclaim != ReclaimCancel {
		t.Errorf("canceled cell resumed as %+v, want a replayed timeout", out[0])
	}
	if out[1].Resumed {
		t.Error("abandoned cell was replayed; poisoned records must re-run")
	}
	if out[1].Kind != OK || !(out[1].Tput > 0) {
		t.Errorf("re-run of abandoned cell: kind %s tput %v err %q, want ok",
			out[1].Kind, out[1].Tput, out[1].Err)
	}
}
