// Command indigo2 lists, runs, and verifies individual style variants
// of the suite.
//
// Usage:
//
//	indigo2 list [-algo bfs] [-model cuda]
//	indigo2 run -variant <name> [-input road] [-scale small] [-device rtx-sim] [-source 0]
//	            [-timeout 2m] [-journal runs.jsonl [-resume]] [-store results.store]
//	            [-trace spans.jsonl]
//	indigo2 verify [-algo bfs] [-model omp] [-scale tiny]
//	indigo2 tune -algo bfs -model cuda [-input rmat -scale tiny | -graph g.el] [-device rtx-sim]
//	            [-budget 0] [-seed 1] [-journal tune.jsonl [-resume]] [-store results.store]
//	            [-trace spans.jsonl]
//	indigo2 serve [-addr :8080] [-store results.store] [-import runs.jsonl -scale small]
//	            [-trace] [-pprof]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"indigo/internal/algo"
	"indigo/internal/emit"
	"indigo/internal/gen"
	"indigo/internal/gpusim"
	"indigo/internal/graph"
	"indigo/internal/runner"
	"indigo/internal/store"
	"indigo/internal/styles"
	"indigo/internal/sweep"
	"indigo/internal/trace"
	"indigo/internal/verify"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "emit":
		err = cmdEmit(os.Args[2:])
	case "tune":
		err = cmdTune(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "indigo2:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: indigo2 <list|run|verify|emit|tune|serve> [flags]")
}

// cmdEmit writes the standalone Go source of a CPU SSSP variant, the
// code-generation view of the suite (§4.1).
func cmdEmit(args []string) error {
	fs := flag.NewFlagSet("emit", flag.ExitOnError)
	variant := fs.String("variant", "", "CPU sssp variant name from `indigo2 list -algo sssp`")
	out := fs.String("o", "", "output file (default stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *variant == "" {
		return fmt.Errorf("missing -variant")
	}
	cfg, err := findVariant(*variant)
	if err != nil {
		return err
	}
	src, err := emit.Program(cfg)
	if err != nil {
		return err
	}
	if *out == "" {
		fmt.Print(src)
		return nil
	}
	return os.WriteFile(*out, []byte(src), 0o644)
}

// parseFilters resolves optional -algo / -model flags.
func parseFilters(algoName, modelName string) ([]styles.Algorithm, []styles.Model, error) {
	var algos []styles.Algorithm
	for a := styles.Algorithm(0); a < styles.NumAlgorithms; a++ {
		if algoName == "" || a.String() == algoName {
			algos = append(algos, a)
		}
	}
	if len(algos) == 0 {
		return nil, nil, fmt.Errorf("unknown algorithm %q", algoName)
	}
	var models []styles.Model
	for m := styles.Model(0); m < styles.NumModels; m++ {
		if modelName == "" || m.String() == modelName {
			models = append(models, m)
		}
	}
	if len(models) == 0 {
		return nil, nil, fmt.Errorf("unknown model %q", modelName)
	}
	return algos, models, nil
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	algoName := fs.String("algo", "", "restrict to one algorithm (bfs, sssp, cc, mis, pr, tc)")
	modelName := fs.String("model", "", "restrict to one model (cuda, omp, cpp)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	algos, models, err := parseFilters(*algoName, *modelName)
	if err != nil {
		return err
	}
	total := 0
	for _, m := range models {
		for _, a := range algos {
			for _, cfg := range styles.Enumerate(a, m) {
				fmt.Println(cfg.Name())
				total++
			}
		}
	}
	fmt.Fprintf(os.Stderr, "%d variants\n", total)
	return nil
}

// findVariant resolves a variant name produced by `indigo2 list`.
func findVariant(name string) (styles.Config, error) {
	for _, cfg := range styles.EnumerateAll() {
		if cfg.Name() == name {
			return cfg, nil
		}
	}
	return styles.Config{}, fmt.Errorf("unknown variant %q (see `indigo2 list`)", name)
}

func loadInput(inputName string, scaleName string) (*graph.Graph, error) {
	g, _, err := loadInputIndexed(inputName, scaleName)
	return g, err
}

// loadInputIndexed also returns the gen.Input index, which the sweep
// supervisor needs for its journal identity.
func loadInputIndexed(inputName string, scaleName string) (*graph.Graph, gen.Input, error) {
	scale, ok := gen.ParseScale(scaleName)
	if !ok {
		return nil, 0, fmt.Errorf("unknown scale %q", scaleName)
	}
	for in := gen.Input(0); in < gen.NumInputs; in++ {
		if in.String() == inputName {
			return gen.Generate(in, scale), in, nil
		}
	}
	return nil, 0, fmt.Errorf("unknown input %q (grid2d, copaper, rmat, social, road)", inputName)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	variant := fs.String("variant", "", "variant name from `indigo2 list`")
	input := fs.String("input", "road", "study input to run on")
	scale := fs.String("scale", "small", "input scale (tiny, small, medium, large)")
	device := fs.String("device", "rtx-sim", "GPU profile for cuda variants (rtx-sim, titan-sim)")
	source := fs.Int("source", 0, "source vertex for bfs/sssp")
	threads := fs.Int("threads", 0, "CPU worker count (0 = all cores)")
	timeout := fs.Duration("timeout", 0, "per-run deadline (0 = scale-aware default)")
	budget := fs.Int64("budget", 0, "per-run scratch memory budget in bytes (0 = unlimited)")
	journal := fs.String("journal", "", "JSONL measurement journal to append to")
	resume := fs.Bool("resume", false, "skip the run if the journal already records it")
	storePath := fs.String("store", "", "results store file to append the measurement to")
	tracePath := fs.String("trace", "", "JSONL trace journal to write (spans of the run's phases)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *variant == "" {
		return fmt.Errorf("missing -variant")
	}
	tracer, err := trace.OpenJournal(*tracePath)
	if err != nil {
		return err
	}
	defer tracer.Close()
	cfg, err := findVariant(*variant)
	if err != nil {
		return err
	}
	g, in, err := loadInputIndexed(*input, *scale)
	if err != nil {
		return err
	}
	dev := sweep.DeviceCPU
	if cfg.Model == styles.CUDA {
		prof, err := profileByName(*device)
		if err != nil {
			return err
		}
		dev = prof.Name
	}
	if *timeout == 0 {
		sc, _ := gen.ParseScale(*scale)
		*timeout = sweep.DefaultTimeout(sc)
	}
	root := tracer.Root("cli.run")
	defer root.End()
	opts := sweep.Options{
		Timeout:   *timeout,
		MemBudget: *budget,
		Verify:    true,
		Journal:   *journal,
		Resume:    *resume,
		Trace:     root,
	}
	if *storePath != "" {
		st, err := store.Open(*storePath)
		if err != nil {
			return err
		}
		defer st.Close()
		gstats := g.Stats()
		opts.Observer = func(o sweep.Outcome) {
			if o.Kind != sweep.OK {
				return
			}
			cell := store.Cell{
				Cfg:       o.Cfg,
				Input:     o.Input.String(),
				Device:    o.Device,
				Graph:     gstats,
				Tput:      o.Tput,
				Attempts:  o.Attempts,
				ElapsedMS: float64(o.Elapsed) / float64(time.Millisecond),
			}
			if err := st.Append(cell); err != nil {
				fmt.Fprintf(os.Stderr, "indigo2: store append failed: %v\n", err)
			}
		}
	}
	sup, err := sweep.New(opts)
	if err != nil {
		return err
	}
	defer sup.Close()
	graphs := make([]*graph.Graph, gen.NumInputs)
	graphs[in] = g
	opt := algo.Options{Threads: *threads, Source: int32(*source)}
	o := sup.Run(graphs, opt, []sweep.Task{{Cfg: cfg, Input: in, Device: dev}})[0]
	fmt.Printf("variant:    %s\n", cfg.Name())
	fmt.Printf("input:      %s (n=%d, m=%d)\n", g.Name, g.N, g.M())
	if o.Resumed {
		fmt.Println("resumed:    from journal (not re-run)")
	}
	if o.Kind != sweep.OK {
		return fmt.Errorf("run FAILED (%s): %s", o.Kind, o.Err)
	}
	fmt.Printf("throughput: %.4f GE/s\n", o.Tput)
	fmt.Println("verified:   ok (matches serial reference)")
	return nil
}

func profileByName(name string) (gpusim.Profile, error) {
	for _, p := range gpusim.Profiles() {
		if p.Name == name {
			return p, nil
		}
	}
	var names []string
	for _, p := range gpusim.Profiles() {
		names = append(names, p.Name)
	}
	return gpusim.Profile{}, fmt.Errorf("unknown device %q (%s)", name, strings.Join(names, ", "))
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	algoName := fs.String("algo", "", "restrict to one algorithm")
	modelName := fs.String("model", "", "restrict to one model")
	scale := fs.String("scale", "tiny", "input scale")
	threads := fs.Int("threads", 0, "CPU worker count (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	algos, models, err := parseFilters(*algoName, *modelName)
	if err != nil {
		return err
	}
	sc, ok := gen.ParseScale(*scale)
	if !ok {
		return fmt.Errorf("unknown scale %q", *scale)
	}
	opt := algo.Options{Threads: *threads}
	failures := 0
	total := 0
	for _, g := range gen.Suite(sc) {
		ref := verify.NewReference(g, opt)
		for _, m := range models {
			for _, a := range algos {
				for _, cfg := range styles.Enumerate(a, m) {
					total++
					var res algo.Result
					var err error
					if m == styles.CUDA {
						res, _, err = runner.RunGPU(gpusim.New(gpusim.RTXSim()), g, cfg, opt)
					} else {
						res, err = runner.RunCPU(g, cfg, opt)
					}
					if err == nil {
						err = ref.Check(cfg, res)
					}
					if err != nil {
						failures++
						fmt.Printf("FAIL %s on %s: %v\n", cfg.Name(), g.Name, err)
					}
				}
			}
		}
	}
	fmt.Printf("%d runs, %d failures\n", total, failures)
	if failures > 0 {
		return fmt.Errorf("%d verification failures", failures)
	}
	return nil
}
