package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"unicode"
	"unicode/utf8"

	"indigo/internal/guard"
	"indigo/internal/par"
	"indigo/internal/trace"
)

// This file is the parallel ingest path: chunked byte-level readers for
// the edge-list and DIMACS formats that split the input on newline
// boundaries, parse fields in place over []byte (no strings.Fields /
// TrimSpace allocations), and fan the chunks out over par.Pool. The
// scanner-based readers in io.go remain the semantic reference: the
// parallel path must produce bit-identical graphs and byte-identical
// error messages (including line numbers), which the differential
// tests and fuzz targets in ingest_test.go / fuzz_test.go enforce.

// ReadOptions configures the text readers. The zero value means: pick
// the parallel path for inputs past a size cutoff, the serial reference
// path below it, with par.Threads() workers and no guard.
type ReadOptions struct {
	// Serial forces the scanner-based reference reader.
	Serial bool
	// Threads is the worker count for the parallel path; <= 0 means
	// par.Threads().
	Threads int
	// Guard is polled at chunk granularity and charged for the edge
	// buffers the parallel path materializes; nil is free.
	Guard *guard.Token
	// Trace, when live, is the parent span the read records under: one
	// ingest.read_* span covering the whole read, with parse and build
	// child spans on the parallel path. The zero value is free.
	Trace trace.Ctx

	// chunkBytes overrides the chunk size target and forces the
	// parallel path regardless of input size. Test hook: tiny chunks
	// put blank lines, comments, and torn lines on chunk boundaries.
	chunkBytes int
}

const (
	// maxLineBytes mirrors the serial readers' scanner buffer: a line
	// this long or longer is a bufio.ErrTooLong, byte-identical to the
	// scanner's failure.
	maxLineBytes = 1 << 20
	// parallelReadCutoff is the input size below which the serial
	// reader is used outright; chunking overhead only pays for itself
	// on real files.
	parallelReadCutoff = 64 << 10
	// ingestPollStride is how many lines a chunk parser processes
	// between guard checkpoints.
	ingestPollStride = 4096
)

// startIngest opens one ingest phase span tagged with the input name.
func startIngest(tc trace.Ctx, span, name string) trace.Ctx {
	sp := tc.Start(span)
	if sp.Live() {
		sp = sp.Attr("input", name)
	}
	return sp
}

// ReadEdgeListOpts is ReadEdgeList with explicit options.
func ReadEdgeListOpts(r io.Reader, name string, o ReadOptions) (*Graph, error) {
	sp := startIngest(o.Trace, "ingest.read_edgelist", name)
	defer sp.End()
	o.Trace = sp
	if o.Serial {
		return readEdgeListSerial(r, name)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		// Replay the exact serial semantics for a mid-stream reader
		// failure: the scanner parses the buffered prefix first, so an
		// earlier parse error outranks the I/O error.
		return readEdgeListSerial(replayReader(data, err), name)
	}
	return readEdgeListDispatch(data, name, o)
}

// ReadEdgeListBytes parses an in-memory edge list. It is the
// allocation-light entry point: the reader form must copy the stream
// first, this one parses fields in place.
func ReadEdgeListBytes(data []byte, name string, o ReadOptions) (*Graph, error) {
	sp := startIngest(o.Trace, "ingest.read_edgelist", name)
	defer sp.End()
	o.Trace = sp
	return readEdgeListDispatch(data, name, o)
}

// readEdgeListDispatch picks the serial or parallel edge-list path;
// o.Trace is already the enclosing read span.
func readEdgeListDispatch(data []byte, name string, o ReadOptions) (*Graph, error) {
	if o.Serial ||
		(o.chunkBytes == 0 && len(data) < parallelReadCutoff) {
		return readEdgeListSerial(bytes.NewReader(data), name)
	}
	return readEdgeListParallel(data, name, o)
}

// ReadDIMACSOpts is ReadDIMACS with explicit options.
func ReadDIMACSOpts(r io.Reader, name string, o ReadOptions) (*Graph, error) {
	sp := startIngest(o.Trace, "ingest.read_dimacs", name)
	defer sp.End()
	o.Trace = sp
	if o.Serial {
		return readDIMACSSerial(r, name)
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return readDIMACSSerial(replayReader(data, err), name)
	}
	return readDIMACSDispatch(data, name, o)
}

// ReadDIMACSBytes parses an in-memory DIMACS .gr file (see
// ReadEdgeListBytes for why the bytes form exists).
func ReadDIMACSBytes(data []byte, name string, o ReadOptions) (*Graph, error) {
	sp := startIngest(o.Trace, "ingest.read_dimacs", name)
	defer sp.End()
	o.Trace = sp
	return readDIMACSDispatch(data, name, o)
}

// readDIMACSDispatch picks the serial or parallel DIMACS path; o.Trace
// is already the enclosing read span.
func readDIMACSDispatch(data []byte, name string, o ReadOptions) (*Graph, error) {
	if o.Serial ||
		(o.chunkBytes == 0 && len(data) < parallelReadCutoff) {
		return readDIMACSSerial(bytes.NewReader(data), name)
	}
	return readDIMACSParallel(data, name, o)
}

// replayReader reconstructs the stream a failed io.ReadAll consumed:
// the bytes it managed to read, then the error. Feeding that to the
// serial reader reproduces the scanner's parse-before-fail ordering.
func replayReader(data []byte, err error) io.Reader {
	return io.MultiReader(bytes.NewReader(data), &errReader{err: err})
}

type errReader struct{ err error }

func (e *errReader) Read([]byte) (int, error) { return 0, e.err }

// ---------------------------------------------------------------------
// Byte-level line and field scanning.
//
// The serial readers run strings.TrimSpace + strings.Fields per line;
// both treat whitespace as unicode.IsSpace. The helpers below replicate
// that rune-exactly (ASCII fast path, utf8 decode above RuneSelf) while
// returning subslices of the input — no allocation on the happy path.

// asciiSpace matches the table inside strings.Fields.
var asciiSpace = [256]uint8{'\t': 1, '\n': 1, '\v': 1, '\f': 1, '\r': 1, ' ': 1}

// nextField returns the first whitespace-delimited field of s and the
// tail after it, with strings.Fields' exact notion of whitespace.
// A nil field means s has no more fields.
func nextField(s []byte) (field, rest []byte) {
	i := 0
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] == 0 {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += size
	}
	if i == len(s) {
		return nil, nil
	}
	start := i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] == 1 {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(s[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += size
	}
	return s[start:i], s[i:]
}

// parseIntBytes mirrors strconv.ParseInt(string(s), 10, bitSize) for
// bitSize 32 or 64: optional sign, decimal digits only, range-checked.
// It reports success instead of building an error — the readers only
// ever quote the offending line, never strconv's message.
func parseIntBytes(s []byte, bitSize int) (int64, bool) {
	if len(s) == 0 {
		return 0, false
	}
	neg := false
	i := 0
	if s[0] == '+' || s[0] == '-' {
		neg = s[0] == '-'
		i++
	}
	if i == len(s) {
		return 0, false
	}
	cutoff := uint64(1) << uint(bitSize-1) // |min|; max is cutoff-1
	var un uint64
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		// un is bounded by cutoff from the previous iteration, but one
		// more digit can still overflow uint64 arithmetic for 64-bit
		// parses — reject before multiplying.
		if un > (1<<63)/5 { // un*10 >= 2^64 or clearly out of range
			return 0, false
		}
		un = un*10 + uint64(c-'0')
		if neg {
			if un > cutoff {
				return 0, false
			}
		} else if un > cutoff-1 {
			return 0, false
		}
	}
	n := int64(un) // un == 1<<63 converts to MinInt64; negation below is a no-op
	if neg {
		n = -n
	}
	return n, true
}

// lineScanner walks a chunk line by line without allocating. Lines are
// the scanner's: content between newlines, with a trailing unterminated
// line counted at EOF.
type lineScanner struct {
	chunk []byte
	off   int
}

// next returns the raw content of the next line (without the newline)
// and whether one existed.
func (s *lineScanner) next() ([]byte, bool) {
	if s.off >= len(s.chunk) {
		return nil, false
	}
	rest := s.chunk[s.off:]
	if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
		s.off += nl + 1
		return rest[:nl], true
	}
	s.off = len(s.chunk)
	return rest, true
}

// ---------------------------------------------------------------------
// Chunking.

// splitChunks cuts data into pieces of roughly target bytes, each
// ending on a newline boundary (except possibly the last), so every
// line belongs to exactly one chunk.
func splitChunks(data []byte, target int) [][]byte {
	if target < 1 {
		target = 1
	}
	var chunks [][]byte
	for start := 0; start < len(data); {
		end := start + target
		if end >= len(data) {
			end = len(data)
		} else if j := bytes.IndexByte(data[end:], '\n'); j >= 0 {
			end += j + 1
		} else {
			end = len(data)
		}
		chunks = append(chunks, data[start:end])
		start = end
	}
	return chunks
}

// chunkTarget picks the chunk size: a few chunks per worker for load
// balance, but never so small that per-chunk overhead dominates.
func chunkTarget(size, threads, override int) int {
	if override > 0 {
		return override
	}
	target := size / (4 * threads)
	if target < parallelReadCutoff/4 {
		target = parallelReadCutoff / 4
	}
	return target
}

// countLines returns the per-chunk line counts and total. A chunk's
// count is its newline count, plus one for a trailing unterminated
// line (only possible in the final chunk).
func countLines(ex par.Executor, chunks [][]byte) []int {
	lines := make([]int, len(chunks))
	ex.For(int64(len(chunks)), par.Static, func(c int64) {
		ch := chunks[c]
		n := bytes.Count(ch, nlSep)
		if len(ch) > 0 && ch[len(ch)-1] != '\n' {
			n++
		}
		lines[c] = n
	})
	return lines
}

var nlSep = []byte{'\n'}

// ---------------------------------------------------------------------
// Edge list.

// elChunk is one chunk's parse result: edges (self-loops already
// dropped, matching Builder.AddEdge), the largest id seen (including
// self-loop lines, matching the serial reader's maxID), and the first
// error with its position.
type elChunk struct {
	u, v, w []int32
	maxID   int32
	err     error
}

func readEdgeListParallel(data []byte, name string, o ReadOptions) (*Graph, error) {
	t := o.Threads
	if t <= 0 {
		t = par.Threads()
	}
	gd := o.Guard
	chunks := splitChunks(data, chunkTarget(len(data), t, o.chunkBytes))
	if len(chunks) == 0 {
		return NewBuilder(name, 0).Build(), nil
	}
	if t > len(chunks) {
		t = len(chunks)
	}
	pool := par.AcquirePool(t)
	defer par.ReleasePool(pool)
	ex := pool.Guarded(gd)

	parseSpan := o.Trace.Start("ingest.parse")
	lines := countLines(ex, chunks)
	base := make([]int, len(chunks)+1)
	for c, n := range lines {
		base[c+1] = base[c] + n
	}

	res := make([]elChunk, len(chunks))
	ex.For(int64(len(chunks)), par.Static, func(c int64) {
		parseEdgeListChunk(chunks[c], base[c], gd, &res[c])
	})
	parseSpan.End()
	var total int64
	maxID := int32(-1)
	for c := range res {
		if res[c].err != nil {
			return nil, res[c].err
		}
		total += int64(len(res[c].u))
		if res[c].maxID > maxID {
			maxID = res[c].maxID
		}
	}

	gd.Charge(total * 12) // the combined edge arrays
	us := make([]int32, total)
	vs := make([]int32, total)
	ws := make([]int32, total)
	off := make([]int64, len(res)+1)
	for c := range res {
		off[c+1] = off[c] + int64(len(res[c].u))
	}
	ex.For(int64(len(res)), par.Static, func(c int64) {
		copy(us[off[c]:off[c+1]], res[c].u)
		copy(vs[off[c]:off[c+1]], res[c].v)
		copy(ws[off[c]:off[c+1]], res[c].w)
	})
	b := &Builder{name: name, n: maxID + 1, src: us, dst: vs, w: ws}
	return b.BuildOpts(BuildOptions{Threads: t, Guard: gd, Trace: o.Trace}), nil
}

// parseEdgeListChunk parses one chunk; lineBase is the number of lines
// before it, so its first line is lineBase+1. Every error message is
// byte-identical to the serial reader's for the same line.
func parseEdgeListChunk(chunk []byte, lineBase int, gd *guard.Token, res *elChunk) {
	sc := lineScanner{chunk: chunk}
	ln := lineBase
	res.maxID = -1
	cap0 := bytes.Count(chunk, nlSep) + 1
	res.u = make([]int32, 0, cap0)
	res.v = make([]int32, 0, cap0)
	res.w = make([]int32, 0, cap0)
	for {
		raw, ok := sc.next()
		if !ok {
			return
		}
		ln++
		if (ln-lineBase)%ingestPollStride == 1 {
			gd.Poll()
		}
		if len(raw) >= maxLineBytes {
			res.err = fmt.Errorf("graph.ReadEdgeList: %w", bufio.ErrTooLong)
			return
		}
		text := bytes.TrimSpace(raw)
		if len(text) == 0 || text[0] == '#' {
			continue
		}
		f0, rest := nextField(text)
		f1, rest := nextField(rest)
		f2, rest := nextField(rest)
		if extra, _ := nextField(rest); f1 == nil || extra != nil {
			res.err = fmt.Errorf("graph.ReadEdgeList: line %d: want 2 or 3 fields, got %q", ln, text)
			return
		}
		u, ok1 := parseIntBytes(f0, 32)
		v, ok2 := parseIntBytes(f1, 32)
		if !ok1 || !ok2 {
			res.err = fmt.Errorf("graph.ReadEdgeList: line %d: bad ids %q", ln, text)
			return
		}
		if u < 0 || v < 0 {
			res.err = fmt.Errorf("graph.ReadEdgeList: line %d: negative vertex id in %q", ln, text)
			return
		}
		if mx := max(u, v); mx >= int64(MaxReadVertices) {
			res.err = fmt.Errorf("graph.ReadEdgeList: line %d: vertex id %d exceeds limit %d", ln, mx, MaxReadVertices)
			return
		}
		w := int64(1)
		if f2 != nil {
			var okw bool
			w, okw = parseIntBytes(f2, 32)
			if !okw {
				res.err = fmt.Errorf("graph.ReadEdgeList: line %d: bad weight %q", ln, text)
				return
			}
			if w < 0 {
				res.err = fmt.Errorf("graph.ReadEdgeList: line %d: negative weight %d", ln, w)
				return
			}
		}
		if int32(u) > res.maxID {
			res.maxID = int32(u)
		}
		if int32(v) > res.maxID {
			res.maxID = int32(v)
		}
		if u != v { // AddEdge drops self-loops; maxID above still counts them
			res.u = append(res.u, int32(u))
			res.v = append(res.v, int32(v))
			res.w = append(res.w, int32(w))
		}
	}
}

// ---------------------------------------------------------------------
// DIMACS.

// dimacsChunk is one arc-region chunk's result. arcs counts every valid
// arc line before the chunk's first error (self-loops included, exactly
// the serial reader's arcs counter); the edge slices exclude self-loops.
type dimacsChunk struct {
	u, v, w []int32
	arcs    int64
	err     error
}

func readDIMACSParallel(data []byte, name string, o ReadOptions) (*Graph, error) {
	t := o.Threads
	if t <= 0 {
		t = par.Threads()
	}
	gd := o.Guard

	// The header region is stateful (comments, then exactly one problem
	// line, which everything after depends on), so scan it serially; in
	// practice it is the first few lines of the file.
	n, declaredArcs, headLines, rest, err := dimacsHeader(data)
	if err != nil {
		return nil, err
	}

	chunks := splitChunks(rest, chunkTarget(len(rest), t, o.chunkBytes))
	if t > len(chunks) && len(chunks) > 0 {
		t = len(chunks)
	}
	pool := par.AcquirePool(t)
	defer par.ReleasePool(pool)
	ex := pool.Guarded(gd)

	parseSpan := o.Trace.Start("ingest.parse")
	lines := countLines(ex, chunks)
	base := make([]int, len(chunks)+1)
	base[0] = headLines
	for c, ct := range lines {
		base[c+1] = base[c] + ct
	}

	res := make([]dimacsChunk, len(chunks))
	ex.For(int64(len(chunks)), par.Static, func(c int64) {
		parseDIMACSChunk(chunks[c], base[c], n, gd, &res[c], nil)
	})
	parseSpan.End()

	// Error selection must match the serial reader's file-order stop:
	// within a chunk, arcs counts only lines before the chunk's first
	// error, so if the cumulative count overflows the declared total the
	// overflowing arc precedes that error and wins; otherwise the
	// chunk's own error does.
	var total int64
	cum := int64(0)
	for c := range res {
		if cum+res[c].arcs > declaredArcs {
			target := declaredArcs - cum + 1
			line := kthArcLine(chunks[c], base[c], n, target)
			return nil, fmt.Errorf("graph.ReadDIMACS: line %d: more arcs than the declared %d", line, declaredArcs)
		}
		cum += res[c].arcs
		if res[c].err != nil {
			return nil, res[c].err
		}
		total += int64(len(res[c].u))
	}
	if cum != declaredArcs {
		return nil, fmt.Errorf("graph.ReadDIMACS: truncated: %d arcs, problem line declares %d", cum, declaredArcs)
	}

	gd.Charge(total * 12)
	us := make([]int32, total)
	vs := make([]int32, total)
	ws := make([]int32, total)
	off := make([]int64, len(res)+1)
	for c := range res {
		off[c+1] = off[c] + int64(len(res[c].u))
	}
	ex.For(int64(len(res)), par.Static, func(c int64) {
		copy(us[off[c]:off[c+1]], res[c].u)
		copy(vs[off[c]:off[c+1]], res[c].v)
		copy(ws[off[c]:off[c+1]], res[c].w)
	})
	b := &Builder{name: name, n: int32(n), src: us, dst: vs, w: ws}
	return b.BuildOpts(BuildOptions{Threads: t, Guard: gd, Trace: o.Trace}), nil
}

// dimacsHeader serially scans data up to and including the problem
// line. It returns the declared counts, the number of lines consumed,
// and the remainder of the input (the arc region).
func dimacsHeader(data []byte) (n, declaredArcs int64, headLines int, rest []byte, err error) {
	sc := lineScanner{chunk: data}
	ln := 0
	for {
		raw, ok := sc.next()
		if !ok {
			return 0, 0, 0, nil, fmt.Errorf("graph.ReadDIMACS: no problem line")
		}
		ln++
		if len(raw) >= maxLineBytes {
			return 0, 0, 0, nil, fmt.Errorf("graph.ReadDIMACS: %w", bufio.ErrTooLong)
		}
		text := bytes.TrimSpace(raw)
		if len(text) == 0 {
			continue
		}
		switch text[0] {
		case 'c':
			continue
		case 'p':
			// The serial reader checks the field count and fields[1],
			// never fields[0] beyond its first byte; replicate exactly.
			_, r := nextField(text)
			f1, r := nextField(r)
			f2, r := nextField(r)
			f3, r := nextField(r)
			if extra, _ := nextField(r); f3 == nil || extra != nil || !bytes.Equal(f1, []byte("sp")) {
				return 0, 0, 0, nil, fmt.Errorf("graph.ReadDIMACS: line %d: bad problem line %q", ln, text)
			}
			nv, ok1 := parseIntBytes(f2, 64)
			na, ok2 := parseIntBytes(f3, 64)
			if !ok1 || !ok2 {
				return 0, 0, 0, nil, fmt.Errorf("graph.ReadDIMACS: line %d: bad problem counts %q", ln, text)
			}
			if cerr := checkVertexCount("graph.ReadDIMACS", ln, nv); cerr != nil {
				return 0, 0, 0, nil, cerr
			}
			if na < 0 {
				return 0, 0, 0, nil, fmt.Errorf("graph.ReadDIMACS: line %d: negative arc count %d", ln, na)
			}
			return nv, na, ln, data[sc.off:], nil
		case 'a':
			return 0, 0, 0, nil, fmt.Errorf("graph.ReadDIMACS: line %d: arc before problem line", ln)
		default:
			return 0, 0, 0, nil, fmt.Errorf("graph.ReadDIMACS: line %d: unknown record %q", ln, text)
		}
	}
}

// parseDIMACSChunk parses one arc-region chunk. When arcLines is
// non-nil it records the global line number of every counted arc (the
// overflow-rescue rescan uses this); the happy path passes nil and
// stays allocation-light.
func parseDIMACSChunk(chunk []byte, lineBase int, n int64, gd *guard.Token, res *dimacsChunk, arcLines *[]int) {
	sc := lineScanner{chunk: chunk}
	ln := lineBase
	cap0 := bytes.Count(chunk, nlSep) + 1
	res.u = make([]int32, 0, cap0)
	res.v = make([]int32, 0, cap0)
	res.w = make([]int32, 0, cap0)
	for {
		raw, ok := sc.next()
		if !ok {
			return
		}
		ln++
		if (ln-lineBase)%ingestPollStride == 1 {
			gd.Poll()
		}
		if len(raw) >= maxLineBytes {
			res.err = fmt.Errorf("graph.ReadDIMACS: %w", bufio.ErrTooLong)
			return
		}
		text := bytes.TrimSpace(raw)
		if len(text) == 0 {
			continue
		}
		switch text[0] {
		case 'c':
			continue
		case 'p':
			res.err = fmt.Errorf("graph.ReadDIMACS: line %d: duplicate problem line", ln)
			return
		case 'a':
			_, r := nextField(text)
			f1, r := nextField(r)
			f2, r := nextField(r)
			f3, r := nextField(r)
			if extra, _ := nextField(r); f3 == nil || extra != nil {
				res.err = fmt.Errorf("graph.ReadDIMACS: line %d: bad arc line %q", ln, text)
				return
			}
			u, ok1 := parseIntBytes(f1, 32)
			v, ok2 := parseIntBytes(f2, 32)
			w, ok3 := parseIntBytes(f3, 32)
			if !ok1 || !ok2 || !ok3 {
				res.err = fmt.Errorf("graph.ReadDIMACS: line %d: bad arc numbers %q", ln, text)
				return
			}
			if u < 1 || u > n || v < 1 || v > n {
				res.err = fmt.Errorf("graph.ReadDIMACS: line %d: arc %d->%d outside 1..%d", ln, u, v, n)
				return
			}
			if w < 0 {
				res.err = fmt.Errorf("graph.ReadDIMACS: line %d: negative weight %d", ln, w)
				return
			}
			res.arcs++
			if arcLines != nil {
				*arcLines = append(*arcLines, ln)
			}
			if u != v {
				res.u = append(res.u, int32(u-1))
				res.v = append(res.v, int32(v-1))
				res.w = append(res.w, int32(w))
			}
		default:
			res.err = fmt.Errorf("graph.ReadDIMACS: line %d: unknown record %q", ln, text)
			return
		}
	}
}

// kthArcLine rescans one chunk to find the global line number of its
// k-th valid arc line. Only called on the arc-overflow error path; the
// target arc is known to precede any error in the chunk.
func kthArcLine(chunk []byte, lineBase int, n int64, k int64) int {
	var res dimacsChunk
	var arcLines []int
	parseDIMACSChunk(chunk, lineBase, n, nil, &res, &arcLines)
	return arcLines[k-1]
}
