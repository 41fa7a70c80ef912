package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/gpusim"
	"indigo/internal/graph"
	"indigo/internal/styles"
	"indigo/internal/trace"
)

// spanSink is a trace sink keeping every flushed event.
type spanSink struct {
	mu  sync.Mutex
	evs []trace.Event
}

func (s *spanSink) Write(evs []trace.Event) {
	s.mu.Lock()
	s.evs = append(s.evs, evs...)
	s.mu.Unlock()
}

func (s *spanSink) Close() error { return nil }

// mixedTasks is a sweep mixing simulated cells on both profiles with
// host-timed cells, plus a CUDA variant that fails deterministically on
// an unknown device twice and is then quarantined. A slow simulated cell
// on a larger graph sits between its two failures, so on two or more
// workers its later cells usually run before the second failure commits
// and are discarded at commit.
func mixedTasks() []Task {
	cuda := styles.Enumerate(styles.BFS, styles.CUDA)
	cpu := styles.Enumerate(styles.BFS, styles.CPP)
	bad := cuda[len(cuda)-1]
	road := gen.InputRoad
	tasks := []Task{
		{Cfg: bad, Input: 0, Device: "no-such-device"},
		{Cfg: cuda[0], Input: road, Device: "rtx-sim"},
		{Cfg: bad, Input: 0, Device: "no-such-device"},
		{Cfg: bad, Input: 0, Device: "rtx-sim"},
		{Cfg: bad, Input: 0, Device: "titan-sim"},
	}
	for i := 0; i < 6; i++ {
		for _, prof := range gpusim.Profiles() {
			tasks = append(tasks, Task{Cfg: cuda[i], Input: 0, Device: prof.Name})
		}
		tasks = append(tasks, Task{Cfg: cpu[i], Input: 0, Device: DeviceCPU})
	}
	return append(tasks, Task{Cfg: bad, Input: road, Device: "titan-sim"})
}

// orderRun is everything one sweep of mixedTasks exposes.
type orderRun struct {
	outcomes   []string
	journal    []string
	progress   []string
	quarantine []string
	spans      []trace.Event
	discards   int
}

// runOrdered sweeps tasks at the given GOMAXPROCS and Workers and
// records the parts of the result that must not depend on them: outcomes
// without their host-timed fields, journal lines without elapsed_ms (and
// without the host-timed throughput of CPU cells), the Progress
// sequence, and the quarantine set. It also returns the sweep.task spans.
func runOrdered(t *testing.T, procs, workers int, gs []*graph.Graph, tasks []Task) orderRun {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	var r orderRun
	sink := &spanSink{}
	tr := trace.New(trace.Config{Sink: sink, Capacity: 1 << 14})
	root := tr.NewTrace("test")
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	sup, err := New(Options{Verify: true, Journal: path, Trace: root, Workers: workers,
		Progress: func(done, total int, o Outcome) {
			r.progress = append(r.progress, fmt.Sprintf("%d/%d %s %s", done, total, o.Key(), o.Kind))
		}})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range sup.Run(gs, algo.Options{Threads: 2}, tasks) {
		tput := o.Tput
		if o.Device == DeviceCPU {
			tput = 0
		}
		r.outcomes = append(r.outcomes, fmt.Sprintf("%s %s attempts=%d err=%q tput=%v sim=%d/%d/%d",
			o.Key(), o.Kind, o.Attempts, o.Err, tput, o.SimCycles, o.SimInstructions, o.SimTransactions))
	}
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for name := range sup.quarantined {
		r.quarantine = append(r.quarantine, name)
	}
	sort.Strings(r.quarantine)

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatal(err)
		}
		delete(rec, "elapsed_ms")
		if rec["device"] == DeviceCPU {
			delete(rec, "tput")
		}
		b, _ := json.Marshal(rec) // map keys marshal sorted
		r.journal = append(r.journal, string(b))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, e := range sink.evs {
		switch e.Name {
		case "sweep.task":
			r.spans = append(r.spans, e)
		case "sweep.discard":
			r.discards++
		}
	}
	return r
}

// TestRunOrderDeterministicAcrossGOMAXPROCS is the contract of the
// fan-out: simulated cells run concurrently, yet the outcomes, journal,
// Progress sequence and quarantine set are identical at every
// GOMAXPROCS, and with the default Workers no host-timed cell ever
// overlaps another cell. Workers 2 lets host-timed cells overlap too,
// and must not change the outcomes either.
func TestRunOrderDeterministicAcrossGOMAXPROCS(t *testing.T) {
	gs := testGraphs()
	gs[gen.InputRoad] = gen.Generate(gen.InputRoad, gen.Tiny)
	tasks := mixedTasks()
	var want orderRun
	for _, c := range []struct{ procs, workers int }{{1, 0}, {2, 0}, {4, 0}, {4, 2}} {
		label := fmt.Sprintf("GOMAXPROCS=%d Workers=%d", c.procs, c.workers)
		got := runOrdered(t, c.procs, c.workers, gs, tasks)
		t.Logf("%s: %d runs discarded at commit", label, got.discards)
		if len(got.outcomes) != len(tasks) || len(got.journal) != len(tasks) || len(got.progress) != len(tasks) {
			t.Fatalf("%s: %d outcomes, %d journal lines, %d progress calls for %d tasks",
				label, len(got.outcomes), len(got.journal), len(got.progress), len(tasks))
		}
		if !reflect.DeepEqual(got.quarantine, []string{tasks[0].Cfg.Name()}) {
			t.Errorf("%s: quarantine set %v, want only %s", label, got.quarantine, tasks[0].Cfg.Name())
		}
		if c.procs == 1 {
			want = got
			continue
		}
		for name, pair := range map[string][2][]string{
			"outcome":      {want.outcomes, got.outcomes},
			"journal line": {want.journal, got.journal},
			"progress":     {want.progress, got.progress},
		} {
			for i := range pair[0] {
				if pair[0][i] != pair[1][i] {
					t.Errorf("%s: %s %d is\n\t%s\nwant (GOMAXPROCS=1)\n\t%s", label, name, i, pair[1][i], pair[0][i])
				}
			}
		}
		if c.workers > 1 {
			continue
		}
		// A host-timed cell holds the gate's write side from dispatch
		// until its commit, so its span overlaps no other task's.
		for _, a := range got.spans {
			if !hasAttr(a, "device", DeviceCPU) {
				continue
			}
			for _, b := range got.spans {
				if a.Span != b.Span && a.Start < b.Start+b.Dur && b.Start < a.Start+a.Dur {
					t.Errorf("%s: cpu task span %v overlaps task span %v", label, a.Attrs, b.Attrs)
				}
			}
		}
	}
}

func hasAttr(e trace.Event, key, val string) bool {
	for _, a := range e.Attrs {
		if a.Key == key && a.Val == val {
			return true
		}
	}
	return false
}

// TestOrderedCommitDiscardsQuarantinedRun pins the discard rule on its
// own, independent of worker timing: a run that finished while an
// earlier commit quarantined its variant is recorded as Quarantined,
// exactly as a one-at-a-time sweep would have skipped it, and its
// sweep.task span gains a sweep.discard point flushed with it.
func TestOrderedCommitDiscardsQuarantinedRun(t *testing.T) {
	sink := &spanSink{}
	tr := trace.New(trace.Config{Sink: sink})
	root := tr.NewTrace("test")
	sup, err := New(Options{Trace: root})
	if err != nil {
		t.Fatal(err)
	}
	task := Task{Cfg: styles.Enumerate(styles.BFS, styles.CUDA)[0], Input: 0, Device: "rtx-sim"}
	sup.quarantined[task.Cfg.Name()] = true
	sp := root.Hold().Start("sweep.task")
	sp.End()
	o := sup.commit(run{o: Outcome{Task: task, Kind: OK, Tput: 1, Attempts: 1, SimCycles: 9},
		ran: true, span: sp}, 1)
	if o.Kind != Quarantined || o.Attempts != 0 || o.Tput != 0 || o.SimCycles != 0 {
		t.Fatalf("committed %+v, want a bare Quarantined outcome", o)
	}
	var task0, discard trace.Event
	for _, e := range sink.evs {
		switch e.Name {
		case "sweep.task":
			task0 = e
		case "sweep.discard":
			discard = e
		}
	}
	if task0.Span == 0 || discard.Parent != task0.Span {
		t.Fatalf("sweep.discard (parent %d) not flushed under the task span %d", discard.Parent, task0.Span)
	}
	if sup.failCount[task.Cfg.Name()] != 0 {
		t.Error("a discarded run counted as a failure")
	}
}
