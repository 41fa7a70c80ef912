package sweep

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"indigo/internal/algo"
	"indigo/internal/styles"
)

// writeJournalLines writes raw lines as a JSONL journal file.
func writeJournalLines(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReadJournalSchemaVersions(t *testing.T) {
	variant := styles.Enumerate(styles.BFS, styles.CPP)[0].Name()
	record := func(v int) string {
		return fmt.Sprintf(`{"v":%d,"variant":%q,"input":"grid2d","device":"cpu","kind":"ok","tput":1.5,"attempts":1,"elapsed_ms":10}`,
			v, variant)
	}
	legacy := fmt.Sprintf(`{"variant":%q,"input":"grid2d","device":"cpu","kind":"ok","tput":1.5,"attempts":1,"elapsed_ms":10}`,
		variant)

	t.Run("current and legacy accepted", func(t *testing.T) {
		path := writeJournalLines(t, record(JournalVersion), legacy)
		out, err := ReadJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 { // same key, last write wins
			t.Fatalf("got %d outcomes, want 1", len(out))
		}
	})

	t.Run("future version rejected", func(t *testing.T) {
		path := writeJournalLines(t, record(JournalVersion), record(JournalVersion+1))
		_, err := ReadJournal(path)
		if err == nil {
			t.Fatal("want error for future schema version")
		}
		if !strings.Contains(err.Error(), "line 2") ||
			!strings.Contains(err.Error(), fmt.Sprint(JournalVersion+1)) {
			t.Fatalf("error %q does not name the line and version", err)
		}
	})
}

// TestJournalWritesCurrentVersion pins that the writer stamps every
// record with JournalVersion, so a mixed-build journal is detectable.
func TestJournalWritesCurrentVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	gs := testGraphs()
	cfg := styles.Enumerate(styles.BFS, styles.CPP)[0]

	sup, err := New(Options{Journal: path, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	sup.Run(gs, algo.Options{Threads: 2}, []Task{{Cfg: cfg, Input: 0, Device: DeviceCPU}})
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf(`"v":%d`, JournalVersion); !strings.Contains(string(data), want) {
		t.Fatalf("journal %q does not carry %s", data, want)
	}
}

// TestObserver pins the Options.Observer contract: every completed
// outcome is delivered (including journaled failures), in task order,
// after the outcome is final.
func TestObserver(t *testing.T) {
	gs := testGraphs()
	cfgs := styles.Enumerate(styles.BFS, styles.CPP)
	tasks := []Task{
		{Cfg: cfgs[0], Input: 0, Device: DeviceCPU},
		{Cfg: cfgs[1], Input: 0, Device: "no-such-device"}, // fails
	}

	var mu sync.Mutex
	seen := make(map[string]Kind)
	sup, err := New(Options{Verify: true, Observer: func(o Outcome) {
		mu.Lock()
		defer mu.Unlock()
		seen[o.Key()] = o.Kind
	}})
	if err != nil {
		t.Fatal(err)
	}
	sup.Run(gs, algo.Options{Threads: 2}, tasks)
	if err := sup.Close(); err != nil {
		t.Fatal(err)
	}

	if len(seen) != 2 {
		t.Fatalf("observer saw %d outcomes, want 2: %v", len(seen), seen)
	}
	if seen[tasks[0].Key()] != OK {
		t.Errorf("task 0 observed as %s, want ok", seen[tasks[0].Key()])
	}
	if seen[tasks[1].Key()] != Error {
		t.Errorf("task 1 observed as %s, want error", seen[tasks[1].Key()])
	}
}
