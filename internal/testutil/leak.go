// Package testutil holds cross-package test helpers. Its centerpiece is
// the goroutine-leak checker the cancellation work is judged by: serve,
// sweep, and par tests snapshot the goroutine set before the scenario
// and assert afterwards that nothing the scenario started is still
// running — a pool worker surviving a timeout, a coalescing waiter stuck
// on a dead flight.
package testutil

import (
	"runtime"
	"sort"
	"strings"
	"time"
)

// defaultIgnores are stack substrings that mark goroutines the checker
// never counts as leaks: the runtime's own helpers and the testing
// framework's machinery, which come and go outside the test's control.
var defaultIgnores = []string{
	"testing.(*T).Run",         // parent test goroutines
	"testing.tRunner",          // the test itself and parallel siblings
	"testing.runTests",         // the framework's main test loop
	"runtime.goexit0",          // exiting, not leaked
	"runtime.gc",               // background collector
	"runtime.bgsweep",          // background sweeper
	"runtime.bgscavenge",       // background scavenger
	"runtime/trace",            // execution tracer
	"runtime.ReadTrace",        // execution tracer reader
	"runtime.ensureSigM",       // signal mask goroutine
	"os/signal.signal_recv",    // signal delivery
	"os/signal.loop",           // signal delivery loop
	"net/http.(*Server).Serve", // listeners owned by still-open servers
	"created by runtime.gc",    // GC helper spawns
	"runtime.MutexProfile",     // profiler
	"runtime/pprof",            // profiler writers
}

// Leaks is the goroutine-leak checker. Take a snapshot with Snapshot
// before the scenario, run it, then call Check (usually via defer):
//
//	defer testutil.Snapshot(t, "par.(*Pool).work").Check(t)
//
// Extra arguments to Snapshot are additional stack substrings to ignore
// (e.g. goroutines an outer fixture legitimately keeps alive).
type Leaks struct {
	before  map[string]bool
	ignores []string
}

// errorer is the slice of testing.TB the checker needs; it keeps the
// package importable from non-test code (cmd/bench's alloc checks).
type errorer interface {
	Helper()
	Errorf(format string, args ...any)
}

// Snapshot records the currently running goroutines. tb may be nil.
func Snapshot(tb errorer, ignore ...string) *Leaks {
	if tb != nil {
		tb.Helper()
	}
	l := &Leaks{ignores: append(append([]string{}, defaultIgnores...), ignore...)}
	l.before = map[string]bool{}
	for _, g := range stacks() {
		l.before[goid(g)] = true
	}
	return l
}

// Check asserts that every goroutine running now either existed at
// Snapshot time or matches an ignore pattern. Goroutines need time to
// unwind after a cancel or Close, so Check retries with backoff for up
// to ~2s before declaring a leak; on failure it reports each leaked
// goroutine's full stack.
func (l *Leaks) Check(tb errorer) {
	tb.Helper()
	var leaked []string
	deadline := time.Now().Add(2 * time.Second)
	for {
		leaked = leaked[:0]
		for _, g := range stacks() {
			if l.before[goid(g)] || l.ignored(g) {
				continue
			}
			leaked = append(leaked, g)
		}
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	sort.Strings(leaked)
	tb.Errorf("testutil: %d leaked goroutine(s):\n\n%s", len(leaked), strings.Join(leaked, "\n\n"))
}

func (l *Leaks) ignored(stack string) bool {
	for _, pat := range l.ignores {
		if strings.Contains(stack, pat) {
			return true
		}
	}
	return false
}

// stacks returns one stack dump per live goroutine, excluding the caller's.
func stacks() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	all := strings.Split(string(buf), "\n\n")
	out := all[:0]
	for _, g := range all {
		if strings.HasPrefix(g, "goroutine ") && !strings.Contains(g, "testutil.stacks") {
			out = append(out, g)
		}
	}
	return out
}

// goid extracts the "goroutine N" identity line from a stack dump. IDs
// are never reused within a process, so membership in the before-set is
// a stable identity test.
func goid(stack string) string {
	if i := strings.IndexByte(stack, '['); i > 0 {
		return strings.TrimSpace(stack[:i])
	}
	if i := strings.IndexByte(stack, '\n'); i > 0 {
		return stack[:i]
	}
	return stack
}
