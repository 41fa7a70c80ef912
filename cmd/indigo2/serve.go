package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"indigo/internal/gen"
	"indigo/internal/serve"
	"indigo/internal/store"
	"indigo/internal/trace"
)

// cmdServe runs the advisor/query HTTP service over a results store.
//
//	indigo2 serve -addr :8080 -store results.store
//	indigo2 serve -addr :8080 -store results.store -import sweep.jsonl -scale small
//
// With -import, the named sweep journal is merged into the store before
// serving (successful runs only; input shapes are resolved by
// regenerating the suite at -scale). SIGINT/SIGTERM drain gracefully:
// the listener closes immediately, in-flight requests finish.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	storePath := fs.String("store", "", "results store file (empty = in-memory, advisor-only)")
	importPath := fs.String("import", "", "sweep JSONL journal to merge into the store before serving")
	scaleName := fs.String("scale", "tiny", "suite scale for resolving -import input shapes")
	maxInflight := fs.Int("max-inflight", 64, "max concurrently served requests; excess sheds with 429")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request deadline")
	budget := fs.Int64("budget", 0, "per-request compute memory budget in bytes (0 = unlimited)")
	drain := fs.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight requests")
	cacheEntries := fs.Int("cache", 256, "response cache entries (negative disables caching)")
	traceOn := fs.Bool("trace", false, "per-request tracing: X-Trace-Id on every /v1 response, spans via GET /v1/trace/{id}")
	traceRetain := fs.Int("trace-retain", 256, "traces kept in memory for /v1/trace lookups (with -trace)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (refused while draining)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var st *store.Store
	if *storePath == "" {
		st = store.NewMem()
	} else {
		var err error
		if st, err = store.Open(*storePath); err != nil {
			return err
		}
		defer st.Close()
	}

	if *importPath != "" {
		scale, ok := gen.ParseScale(*scaleName)
		if !ok {
			return fmt.Errorf("unknown scale %q", *scaleName)
		}
		n, err := store.ImportJournal(st, *importPath, store.ScaleResolver(scale))
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "indigo2 serve: imported %d cells from %s\n", n, *importPath)
	}

	opt := serve.Options{
		Store:          st,
		MaxInflight:    *maxInflight,
		RequestTimeout: *timeout,
		RequestBudget:  *budget,
		DrainTimeout:   *drain,
		CacheEntries:   *cacheEntries,
		EnablePprof:    *pprofOn,
	}
	if *traceOn {
		ms := trace.NewMemSink(*traceRetain, 4096)
		tr := trace.New(trace.Config{Sink: ms})
		defer tr.Close()
		opt.Tracer = tr
		opt.TraceStore = ms
	}
	srv := serve.New(opt)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "indigo2 serve: listening on %s (%d cells)\n", *addr, st.Len())
	return srv.ListenAndServe(ctx, *addr)
}
