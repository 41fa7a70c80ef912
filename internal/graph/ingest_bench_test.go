package graph_test

import (
	"bytes"
	"sync"
	"testing"

	"indigo/internal/gen"
	"indigo/internal/graph"
)

// ingestThreads is the worker count the parallel ingest path runs at in
// the ceiling test and the ingest benchmarks.
const ingestThreads = 4

// ingestAllocCeiling pins the parallel edge-list read's allocation shape:
// allocations must stay O(chunks + output arrays), never O(lines). The
// parse itself is zero-alloc per line ([]byte fields, no Scanner line
// copies, no strings.Fields slices), so the steady state is a couple
// hundred allocations regardless of input size — a per-line allocation
// on the social input would blow past this by three orders of magnitude.
const ingestAllocCeiling = 512

// TestParallelReadAllocCeiling holds the chunked parallel read of a
// 20k-vertex social input under ingestAllocCeiling allocations per read.
func TestParallelReadAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates per instrumented access")
	}
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, gen.Social(20_000, 5, 7)); err != nil {
		t.Fatal(err)
	}
	el := buf.Bytes()
	opts := graph.ReadOptions{Threads: ingestThreads}
	read := func() {
		if _, err := graph.ReadEdgeListBytes(el, "ceiling", opts); err != nil {
			t.Fatal(err)
		}
	}
	read() // the first read on a cold heap pays one-off growth
	if avg := testing.AllocsPerRun(3, read); avg > ingestAllocCeiling {
		t.Errorf("parallel edge-list read: %.0f allocs per read, want <= %d", avg, ingestAllocCeiling)
	}
}

// ingestInput is the social-shaped ingest benchmark input: the paper's
// hardest degree distribution (power-law hubs skew per-vertex work) at
// 120k vertices and ~1.2M directed edges, big enough that parse and
// build dominate timer noise. It is built once per test binary.
var ingestInput = sync.OnceValues(func() (*graph.Graph, [2][]byte) {
	g := gen.Social(120_000, 5, 7)
	var el, gr bytes.Buffer
	if err := graph.WriteEdgeList(&el, g); err != nil {
		panic(err)
	}
	if err := graph.WriteDIMACS(&gr, g); err != nil {
		panic(err)
	}
	return g, [2][]byte{el.Bytes(), gr.Bytes()}
})

// BenchmarkIngest is the ingest rung of the benchmark ladder (BENCH.txt):
// each ingest stage of the parallel path on the social input, and
// end to end (parse + stats, the path a large inline upload takes
// through the advisor service). Reads report MB/s of input text.
func BenchmarkIngest(b *testing.B) {
	g, text := ingestInput()
	el, gr := text[0], text[1]
	ropt := graph.ReadOptions{Threads: ingestThreads}
	sopt := graph.StatsOptions{Threads: ingestThreads}
	b.Run("read-edgelist-social", func(b *testing.B) {
		b.SetBytes(int64(len(el)))
		for i := 0; i < b.N; i++ {
			if _, err := graph.ReadEdgeListBytes(el, "bench", ropt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read-dimacs-social", func(b *testing.B) {
		b.SetBytes(int64(len(gr)))
		for i := 0; i < b.N; i++ {
			if _, err := graph.ReadDIMACSBytes(gr, "bench", ropt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("build-social", func(b *testing.B) {
		// CSR build alone, from pre-parsed edges (BuildOpts does not
		// consume the builder's edge arrays, so one builder serves
		// every op).
		bld := graph.NewBuilder("bench", g.N)
		for i := int64(0); i < g.M(); i++ {
			if g.Src[i] < g.Dst[i] { // one direction; the builder re-symmetrizes
				bld.AddEdge(g.Src[i], g.Dst[i], g.Weights[i])
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bld.BuildOpts(graph.BuildOptions{Threads: ingestThreads})
		}
	})
	b.Run("stats-social", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			graph.ComputeStatsOpts(g, sopt)
		}
	})
	b.Run("end-to-end-social", func(b *testing.B) {
		b.SetBytes(int64(len(el)))
		for i := 0; i < b.N; i++ {
			gg, err := graph.ReadEdgeListBytes(el, "bench", ropt)
			if err != nil {
				b.Fatal(err)
			}
			graph.ComputeStatsOpts(gg, sopt)
		}
	})
}
