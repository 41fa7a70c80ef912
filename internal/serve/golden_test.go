package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"indigo/internal/gen"
	"indigo/internal/graph"
	"indigo/internal/harness"
	"indigo/internal/store"
	"indigo/internal/styles"
)

// TestGoldenRoundTrip is the pipeline acceptance test: a real sweep
// writes a journal, the store imports it, and the HTTP aggregates are
// byte-identical to the same queries over the collecting session's own
// results. Anything the journal round trip loses or alters (a cell, a
// throughput bit, an input's shape) fails here.
func TestGoldenRoundTrip(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "sweep.jsonl")
	sess := harness.NewSession(gen.Tiny, 2)
	sess.Sweep.Journal = journal
	if err := sess.InitSweep(); err != nil {
		t.Fatal(err)
	}
	sess.Collect([]styles.Algorithm{styles.BFS}, []styles.Model{styles.OMP})
	if err := sess.CloseSweep(); err != nil {
		t.Fatal(err)
	}
	own := sess.Results()
	if own.Len() == 0 {
		t.Fatal("sweep produced no measurements")
	}

	st := store.NewMem()
	n, err := store.ImportJournal(st, journal, store.ScaleResolver(gen.Tiny))
	if err != nil {
		t.Fatal(err)
	}
	if n != own.Len() {
		t.Fatalf("imported %d cells, session holds %d measurements", n, own.Len())
	}

	ts := httptest.NewServer(New(Options{Store: st}).Handler())
	defer ts.Close()

	t.Run("ratios", func(t *testing.T) {
		ratios := own.Ratios(styles.DimByKey("flow"), int(styles.Push), int(styles.Pull), store.ClassicOnly)
		if len(ratios[styles.BFS]) == 0 {
			t.Fatal("session has no push/pull pairs")
		}
		want := strings.Join(append([]string{"flow: push over pull"}, store.RatioLines(ratios)...), "\n") + "\n"
		code, got := get(t, ts.URL+"/v1/ratios?dim=flow")
		if code != http.StatusOK {
			t.Fatalf("ratios: %d %q", code, got)
		}
		if got != want {
			t.Fatalf("/v1/ratios differs from the session's results:\n got %q\nwant %q", got, want)
		}
	})

	t.Run("census", func(t *testing.T) {
		row, ok := own.Census(styles.OMP)
		if !ok {
			t.Fatal("session census is empty")
		}
		want := store.CensusHeader + "\n" + row.Line() + "\n"
		code, got := get(t, ts.URL+"/v1/census?model=omp")
		if code != http.StatusOK {
			t.Fatalf("census: %d %q", code, got)
		}
		if got != want {
			t.Fatalf("/v1/census differs from the session's results:\n got %q\nwant %q", got, want)
		}
	})
}

// TestAdviseRoadNetwork is the §5.16 acceptance case: uploading a road
// network (high diameter relative to its size, low degree) for OMP SSSP
// must come back data-driven/push with the paper's rationale intact.
func TestAdviseRoadNetwork(t *testing.T) {
	g := gen.Generate(gen.InputRoad, gen.Tiny)
	var el bytes.Buffer
	if err := graph.WriteEdgeList(&el, g); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]string{
		"algo": "sssp", "model": "omp",
		"graph": el.String(), "format": "edgelist",
	})
	if err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{})
	code, resp := post(t, ts.URL+"/v1/advise", string(body))
	if code != http.StatusOK {
		t.Fatalf("advise: %d %q", code, resp)
	}
	var rec struct {
		Variant   string      `json:"variant"`
		Rationale []string    `json:"rationale"`
		Stats     graph.Stats `json:"stats"`
	}
	if err := json.Unmarshal([]byte(resp), &rec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.Variant, "/data-nodup/") || !strings.Contains(rec.Variant, "/push/") {
		t.Fatalf("variant %q, want data-driven (no dup) push", rec.Variant)
	}
	all := strings.Join(rec.Rationale, "\n")
	for _, want := range []string{
		"data-driven (no dup)",
		"§5.3",
		"push: preferred data flow for CC, MIS, BFS, SSSP (§5.4)",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("rationale %q missing %q", all, want)
		}
	}
	if rec.Stats.Vertices != g.N {
		t.Errorf("stats echo %d vertices, want %d", rec.Stats.Vertices, g.N)
	}
}
