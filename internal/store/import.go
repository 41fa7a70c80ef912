package store

import (
	"fmt"
	"sort"
	"time"

	"indigo/internal/gen"
	"indigo/internal/graph"
	"indigo/internal/sweep"
)

// ImportJournal merges the successful runs of a sweep JSONL journal
// into the store. The journal records only the input's name, not its
// shape, so the caller supplies a resolver from input name to the
// graph.Stats signature (see ScaleResolver for the generated suite).
// Cells whose input the resolver does not know are skipped, mirroring
// the journal reader's tolerance of unknown inputs. Returns how many
// cells were merged.
//
// The journal is read through sweep.ReadJournal, so its schema-version
// gate applies: a journal written by a newer schema is rejected rather
// than half-imported.
func ImportJournal(s *Store, path string, resolve func(input string) (graph.Stats, bool)) (int, error) {
	outcomes, err := sweep.ReadJournal(path)
	if err != nil {
		return 0, fmt.Errorf("store: import %s: %w", path, err)
	}
	// The journal map iterates in random order; sort by key so imports
	// are deterministic (rows, and therefore aggregate tie-breaks, must
	// not depend on map order).
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var cells []Cell
	for _, k := range keys {
		o := outcomes[k]
		if o.Kind != sweep.OK {
			continue
		}
		st, ok := resolve(o.Input.String())
		if !ok {
			continue
		}
		cells = append(cells, OutcomeCell(o, st))
	}
	if err := s.Append(cells...); err != nil {
		return 0, err
	}
	return len(cells), nil
}

// OutcomeCell is the cell of one successful supervised run on an input
// with shape signature g: the throughput plus the run's attempts,
// elapsed time and simulated cost counters.
func OutcomeCell(o sweep.Outcome, g graph.Stats) Cell {
	return Cell{
		Cfg:       o.Cfg,
		Input:     o.Input.String(),
		Device:    o.Device,
		Graph:     g,
		Tput:      o.Tput,
		Attempts:  o.Attempts,
		ElapsedMS: float64(o.Elapsed) / float64(time.Millisecond),

		SimCycles:       o.SimCycles,
		SimInstructions: o.SimInstructions,
		SimTransactions: o.SimTransactions,
	}
}

// ScaleResolver resolves the generated study inputs at the given scale,
// computing each input's shape signature at most once. It is the
// resolver to use for journals written by sweeps over gen.Suite.
func ScaleResolver(scale gen.Scale) func(input string) (graph.Stats, bool) {
	cache := make(map[string]graph.Stats, int(gen.NumInputs))
	return func(input string) (graph.Stats, bool) {
		if st, ok := cache[input]; ok {
			return st, true
		}
		for in := gen.Input(0); in < gen.NumInputs; in++ {
			if in.String() == input {
				st := gen.Generate(in, scale).Stats()
				cache[input] = st
				return st, true
			}
		}
		return graph.Stats{}, false
	}
}
