// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -scale tiny -exp all
//	experiments -exp fig1,fig5,table3
//	experiments -scale small -journal sweep.jsonl        # journaled sweep
//	experiments -scale small -journal sweep.jsonl -resume # continue it
//	experiments -scale small -store results.store         # persistent results store
//
// Experiment ids: table2 table3 table4 fig1..fig16 correlation all.
//
// Collection runs through the sweep supervisor: every variant run has a
// deadline (-timeout, scale-aware default), panics and wrong answers
// are recorded as failures instead of aborting, and with -journal each
// measurement is appended to a JSONL file so -resume re-runs only the
// variants the journal is missing.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"indigo/internal/gen"
	"indigo/internal/harness"
	"indigo/internal/store"
	"indigo/internal/sweep"
	"indigo/internal/trace"
)

func main() {
	scaleName := flag.String("scale", "tiny", "input scale (tiny, small, medium, large)")
	exp := flag.String("exp", "all", "comma-separated experiment ids (table2, table3, table4, fig1..fig16, correlation, all)")
	threads := flag.Int("threads", 0, "CPU worker count (0 = all cores)")
	verbose := flag.Bool("v", false, "print collection progress")
	timeout := flag.Duration("timeout", 0, "per-variant deadline (0 = scale-aware default)")
	journal := flag.String("journal", "", "JSONL measurement journal to append to")
	resume := flag.Bool("resume", false, "skip variants already recorded in -journal")
	storePath := flag.String("store", "", "results store file: completed runs are appended, existing cells seed the session")
	tracePath := flag.String("trace", "", "JSONL trace journal to write (one sweep.task span per run)")
	flag.Parse()

	tracer, err := trace.OpenJournal(*tracePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	defer tracer.Close()
	root := tracer.Root("cli.experiments")
	defer root.End()

	scale, ok := gen.ParseScale(*scaleName)
	if !ok {
		fmt.Fprintf(os.Stderr, "experiments: unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	s := harness.NewSession(scale, *threads)
	s.Verbose = *verbose
	if *timeout > 0 {
		s.Sweep.Timeout = *timeout
	}
	s.Sweep.Journal = *journal
	s.Sweep.Resume = *resume
	s.Sweep.Progress = progress(*verbose)
	s.Sweep.Trace = root
	if *storePath != "" {
		st, err := store.Open(*storePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		defer st.Close()
		// Cells already in the store seed the session (those pairs are
		// not re-run); everything newly measured is appended back.
		if n := s.LoadStore(st); n > 0 && *verbose {
			fmt.Fprintf(os.Stderr, "experiments: loaded %d cells from %s\n", n, *storePath)
		}
		s.AttachStore(st)
	}
	if err := s.InitSweep(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	defer s.CloseSweep()

	drivers := map[string]func() *harness.Report{
		"table2": s.Table2, "table3": s.Table3, "table4": s.Table45,
		"fig1": s.Fig1, "fig2": s.Fig2, "fig3": s.Fig3, "fig4": s.Fig4,
		"fig5": s.Fig5, "fig6": s.Fig6, "fig7": s.Fig7, "fig8": s.Fig8,
		"fig9": s.Fig9, "fig10": s.Fig10, "fig11": s.Fig11, "fig12": s.Fig12,
		"fig13": s.Fig13, "fig14": s.Fig14, "fig15": s.Fig15, "fig16": s.Fig16,
		"correlation": s.Correlation, "spread": s.Spread, "ablation": s.Ablation,
	}

	if *exp == "all" {
		for _, r := range s.All() {
			fmt.Println(r)
		}
		summarize(s)
		return
	}
	for _, id := range strings.Split(*exp, ",") {
		id = strings.TrimSpace(id)
		d, ok := drivers[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", id)
			os.Exit(2)
		}
		fmt.Println(d())
	}
	summarize(s)
}

// progress reports supervised-sweep progress on stderr: failures always,
// plus a heartbeat every 200 tasks when verbose.
func progress(verbose bool) func(done, total int, o sweep.Outcome) {
	return func(done, total int, o sweep.Outcome) {
		if o.Kind != sweep.OK && o.Kind != sweep.Quarantined {
			fmt.Fprintf(os.Stderr, "  FAIL %s [%d/%d]: %s on %s (%s): %s\n",
				o.Kind, done, total, o.Cfg.Name(), o.Input, o.Device, o.Err)
			return
		}
		if verbose && (done%200 == 0 || done == total) {
			fmt.Fprintf(os.Stderr, "  progress: %d/%d runs\n", done, total)
		}
	}
}

// summarize prints the failure tally of the whole session, if any.
func summarize(s *harness.Session) {
	fails := s.Failures()
	if len(fails) == 0 {
		return
	}
	counts := make(map[sweep.Kind]int)
	for _, f := range fails {
		counts[f.Kind]++
	}
	fmt.Fprintf(os.Stderr, "experiments: %d runs failed:", len(fails))
	for k := sweep.Timeout; k <= sweep.Quarantined; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(os.Stderr, " %d %s", counts[k], k)
		}
	}
	fmt.Fprintln(os.Stderr)
}
