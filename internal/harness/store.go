package harness

import (
	"fmt"
	"os"

	"indigo/internal/gen"
	"indigo/internal/store"
	"indigo/internal/sweep"
)

// AttachStore subscribes st to this session's sweeps: every successful
// supervised run (including journal replays on resume) is appended as a
// store cell carrying the input's shape signature. The store dedups by
// (variant, input, device), so replays are idempotent. Call before the
// first Collect; any previously set sweep observer keeps firing.
func (s *Session) AttachStore(st *store.Store) {
	prev := s.Sweep.Observer
	s.Sweep.Observer = func(o sweep.Outcome) {
		if prev != nil {
			prev(o)
		}
		if o.Kind != sweep.OK {
			return
		}
		if err := st.Append(store.OutcomeCell(o, s.GStats[o.Input])); err != nil {
			fmt.Fprintf(os.Stderr, "harness: store append failed: %v\n", err)
		}
	}
}

// LoadStore seeds the session's results from a results store, so
// reports build from the persistent corpus instead of fresh runs. Every
// (algorithm, model) pair the store covers is marked collected: the
// store is trusted as the measurement source for those pairs, and cells
// it lacks surface as missing data in reports rather than triggering
// re-runs. Cells naming inputs outside the generated suite are skipped.
// Call on a fresh session, before any Collect. Returns the number of
// cells loaded.
func (s *Session) LoadStore(st *store.Store) int {
	suite := make(map[string]bool, int(gen.NumInputs))
	for in := gen.Input(0); in < gen.NumInputs; in++ {
		suite[in.String()] = true
	}
	var cells []store.Cell
	for _, c := range st.Cells() {
		if !suite[c.Input] {
			continue
		}
		cells = append(cells, c)
		s.collected[collKey{c.Cfg.Algo, c.Cfg.Model}] = true
	}
	s.results.Append(cells...) // in memory: cannot fail
	return len(cells)
}
