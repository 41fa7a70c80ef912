package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"indigo/internal/algo"
	"indigo/internal/gen"
	"indigo/internal/graph"
	"indigo/internal/serve"
	"indigo/internal/store"
	"indigo/internal/styles"
	"indigo/internal/sweep"
	"indigo/internal/trace"
)

// mixWeights is the serve-mix request mix per block of 100 requests.
// Each block holds exactly these counts in a seeded order, so every run
// sends the same proportions. The weights are an assumption, not
// measured traffic; only their order (store reads, then advice by
// stats, then inline advice, then tuning) is given. BENCHMARK.json and
// README.md state the same weights.
var mixWeights = []struct {
	kind   string
	weight int
}{
	{"cells", 24}, {"census", 8}, {"ratios", 12}, {"best", 20},
	{"advise_stats", 24}, {"advise_inline", 8}, {"tune", 4},
}

const (
	clients    = 2
	tuneBudget = 16
	// inlinePool is the number of distinct inline graphs. Each upload
	// asks about one (graph, algorithm, model) combination, which gives
	// more distinct bodies than a run's fresh uploads.
	inlinePool = 28
)

// inlineModels are the models inline advice is asked for.
var inlineModels = []string{"omp", "cpp", "cuda"}

// inlineGraph is one pool graph, kept as the JSON string literal of its
// edge list, so an upload body is assembled around it without a copy.
type inlineGraph struct {
	text     []byte
	vertices int32
	edges    int64
}

// tuneCells are the /v1/tune targets: every algorithm and CPU model on
// a tiny input (the inputs rotate), and three cheaper cells on small
// inputs. Every twentieth tune request takes the next small cell, the rest
// the next tiny one, so the slow small sessions sit above the p99.
func tuneCells() (tiny, small []tuneCell) {
	for i, a := range allAlgos {
		for j, m := range []string{"omp", "cpp"} {
			in := gen.Input((i*2 + j) % int(gen.NumInputs))
			tiny = append(tiny, tuneCell{a.String(), m, in.String(), "tiny"})
		}
	}
	for i, a := range []string{"mis", "tc", "bfs"} {
		in := []gen.Input{gen.InputSocial, gen.InputRMAT, gen.InputCoPaper}[i]
		small = append(small, tuneCell{a, "cpp", in.String(), "small"})
	}
	return tiny, small
}

type tuneCell struct{ algo, model, input, scale string }

// request is one scheduled call with what its answer must satisfy.
type request struct {
	kind   string
	method string
	path   string
	body   []byte
	// graph, for an inline upload, follows body; a closing brace ends
	// the document.
	graph *inlineGraph
	algo  string // the variant in the answer must be algo/model/...
	model string
	input string
	dim   string // ratios: the first line names the dimension
}

// reply is one client-side observation.
type reply struct {
	req     *request
	latency time.Duration
	traceID uint64
	fail    string // "" when the answer passed every check
	wrong   bool   // a 200 whose body failed a check
	tput    float64
}

type serveMix struct {
	seed int64

	graphs []*graph.Graph
	gstats []graph.Stats
	st     *store.Store
	pool   []inlineGraph
	sched  []*request

	genTime time.Duration
}

// setup generates the tiny suite, preloads a store with a supervised
// sweep of every OMP and CPP variant on it, generates the inline-graph
// pool and builds the request schedule.
func (m *serveMix) setup() error {
	start := time.Now()
	m.graphs = suite(gen.Tiny, m.seed)
	m.gstats = make([]graph.Stats, len(m.graphs))
	for i, g := range m.graphs {
		m.gstats[i] = graph.ComputeStatsOpts(g, graph.StatsOptions{Threads: threads})
	}
	m.genTime = time.Since(start)
	m.st = store.NewMem()
	sup, err := sweep.New(sweep.Options{
		Timeout: sweep.DefaultTimeout(gen.Tiny), Verify: true, Workers: 1,
		Observer: func(o sweep.Outcome) {
			if o.Kind != sweep.OK {
				return
			}
			if err := m.st.Append(store.Cell{Cfg: o.Cfg, Input: o.Input.String(), Device: o.Device,
				Graph: m.gstats[o.Input], Tput: o.Tput, Attempts: o.Attempts, ElapsedMS: ms(o.Elapsed)}); err != nil {
				panic(err) // a memory store append cannot fail
			}
		},
	})
	if err != nil {
		return err
	}
	var tasks []sweep.Task
	for _, mdl := range []styles.Model{styles.OMP, styles.CPP} {
		for _, a := range allAlgos {
			for in := gen.Input(0); in < gen.NumInputs; in++ {
				for _, cfg := range styles.Enumerate(a, mdl) {
					tasks = append(tasks, sweep.Task{Cfg: cfg, Input: in, Device: sweep.DeviceCPU})
				}
			}
		}
	}
	for _, o := range sup.Run(m.graphs, algo.Options{Threads: threads}, tasks) {
		if o.Kind != sweep.OK {
			return fmt.Errorf("preload sweep: %s on %s: %s: %s", o.Cfg.Name(), o.Input, o.Kind, o.Err)
		}
	}
	if err := sup.Close(); err != nil {
		return err
	}

	start = time.Now()
	rng := rand.New(rand.NewSource(m.seed))
	m.pool = nil
	for i := 0; i < inlinePool; i++ {
		g := gen.Social(4000, 9, m.seed*1_000_003+100+int64(i))
		var text bytes.Buffer
		if err := graph.WriteEdgeList(&text, g); err != nil {
			return err
		}
		lit, err := json.Marshal(text.String())
		if err != nil {
			return err
		}
		m.pool = append(m.pool, inlineGraph{lit, g.N, g.M()})
	}
	m.genTime += time.Since(start)
	m.sched = m.schedule(rng)
	return nil
}

// schedule lays out the request sequence: blocks of 100 requests with
// the mix weights in a seeded order. Inline uploads alternate between a
// combination of pool graph, algorithm and model not sent before and a
// repeat of one of the last eight sent, so about half of them repeat.
func (m *serveMix) schedule(rng *rand.Rand) []*request {
	const blocks = 400
	var block []string
	for _, w := range mixWeights {
		for i := 0; i < w.weight; i++ {
			block = append(block, w.kind)
		}
	}
	models := []string{"omp", "cpp"}
	dims := []string{"iterate", "drive", "flow", "update", "det"}
	tinyTunes, smallTunes := tuneCells()
	combos := rng.Perm(len(m.pool) * len(allAlgos) * len(inlineModels))
	var sent []int
	var out []*request
	inline, tune := 0, 0
	for b := 0; b < blocks; b++ {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			a := allAlgos[rng.Intn(len(allAlgos))].String()
			mdl := models[rng.Intn(len(models))]
			in := gen.Input(rng.Intn(int(gen.NumInputs)))
			r := &request{kind: kind, method: http.MethodGet, algo: a, model: mdl, input: in.String()}
			q := url.Values{}
			switch kind {
			case "cells":
				q.Set("algo", a)
				q.Set("model", mdl)
				q.Set("input", in.String())
				q.Set("limit", "20")
				r.path = "/v1/cells?" + q.Encode()
			case "census":
				r.path = "/v1/census?model=" + mdl
			case "ratios":
				r.dim = dims[rng.Intn(len(dims))]
				q.Set("dim", r.dim)
				q.Set("model", mdl)
				r.path = "/v1/ratios?" + q.Encode()
			case "best":
				q.Set("algo", a)
				q.Set("model", mdl)
				q.Set("input", in.String())
				q.Set("device", sweep.DeviceCPU)
				r.path = "/v1/best?" + q.Encode()
			case "advise_stats":
				// Scaled suite signatures: a few hundred distinct bodies,
				// so the advice cache both hits and misses.
				st := m.gstats[in]
				f := 1 + float64(rng.Intn(8))/4
				st.AvgDegree *= f
				st.Diameter = int32(float64(st.Diameter) * f)
				r.method, r.path = http.MethodPost, "/v1/advise"
				r.body, _ = json.Marshal(map[string]any{"algo": a, "model": mdl, "stats": st})
			case "advise_inline":
				var c int
				if inline%2 == 0 {
					c = combos[inline/2%len(combos)]
					sent = append(sent, c)
				} else {
					c = sent[len(sent)-1-rng.Intn(min(len(sent), 8))]
				}
				inline++
				g := &m.pool[c/(len(allAlgos)*len(inlineModels))]
				a := allAlgos[c/len(inlineModels)%len(allAlgos)].String()
				mdl := inlineModels[c%len(inlineModels)]
				r = &request{kind: kind, method: http.MethodPost, path: "/v1/advise", graph: g, algo: a, model: mdl,
					body: []byte(fmt.Sprintf(`{"algo":%q,"model":%q,"format":"edgelist","graph":`, a, mdl))}
			case "tune":
				c := tinyTunes[tune%len(tinyTunes)]
				if tune%20 == 19 {
					c = smallTunes[tune/20%len(smallTunes)]
				}
				tune++
				r = &request{kind: kind, method: http.MethodPost, path: "/v1/tune",
					algo: c.algo, model: c.model, input: c.input}
				r.body, _ = json.Marshal(map[string]any{"algo": c.algo, "model": c.model, "device": sweep.DeviceCPU,
					"input": c.input, "scale": c.scale, "budget": tuneBudget,
					"seed": int64(len(out)) + 1})
			}
			out = append(out, r)
		}
	}
	return out
}

// server is one in-process serve.Server on a loopback listener.
type server struct {
	url    string
	cancel context.CancelFunc
	done   chan error
	client *http.Client
}

func startServer(st *store.Store, tr *trace.Tracer) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{url: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}}
	srv := serve.New(serve.Options{Store: st, Tracer: tr})
	go func() { s.done <- srv.Serve(ctx, ln) }()
	return s, nil
}

// stop drains the server and waits for Serve to return.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	s.cancel()
	return <-s.done
}

// drive runs the closed loop: clients goroutines each send the next
// scheduled request once the previous answer is in, until n requests
// have been sent or the budget has passed.
func (m *serveMix) drive(s *server, n int, budget time.Duration) ([]reply, time.Duration) {
	var next atomic.Int64
	var mu sync.Mutex
	var out []reply
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < budget {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				rep := m.send(s, m.sched[i%len(m.sched)])
				mu.Lock()
				out = append(out, rep)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// requests sizes a run of about d: the closed loop answers about 380
// requests per second on a 2-core x86-64 host.
func requests(d time.Duration) int { return max(100, int(380*d.Seconds())) }

// send issues one request and checks its answer: the status, a body
// that parses, and a variant of the requested algorithm and model.
func (m *serveMix) send(s *server, req *request) reply {
	rep := reply{req: req}
	var payload io.Reader = bytes.NewReader(req.body)
	size := int64(len(req.body))
	if req.graph != nil {
		payload = io.MultiReader(payload, bytes.NewReader(req.graph.text), strings.NewReader("}"))
		size += int64(len(req.graph.text)) + 1
	}
	hr, err := http.NewRequest(req.method, s.url+req.path, payload)
	if err != nil {
		rep.fail = "transport"
		return rep
	}
	hr.ContentLength = size
	start := time.Now()
	resp, err := s.client.Do(hr)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rep.latency = time.Since(start)
	if err != nil {
		rep.fail = "transport"
		return rep
	}
	rep.traceID, _ = strconv.ParseUint(resp.Header.Get("X-Trace-Id"), 16, 64)
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		rep.fail = "http_429"
	case resp.StatusCode >= 500:
		rep.fail = "http_5xx"
	case resp.StatusCode != http.StatusOK:
		rep.fail = "http_4xx"
	default:
		if msg := checkBody(req, body, &rep); msg != "" {
			rep.fail, rep.wrong = "malformed", true
		}
	}
	return rep
}

// checkBody validates a 200 answer; it returns what was wrong, or "".
func checkBody(req *request, body []byte, rep *reply) string {
	variantOK := func(v string) bool { return strings.HasPrefix(v, req.algo+"/"+req.model+"/") }
	switch req.kind {
	case "cells":
		var doc struct {
			Count int `json:"count"`
			Cells []struct {
				Variant, Input, Device string
				Tput                   float64
			} `json:"cells"`
		}
		if err := json.Unmarshal(body, &doc); err != nil || doc.Count != len(doc.Cells) || doc.Count == 0 {
			return "cells: bad document"
		}
		for _, c := range doc.Cells {
			if !variantOK(c.Variant) || c.Input != req.input || c.Device != sweep.DeviceCPU || !(c.Tput > 0) {
				return "cells: cell outside the filter"
			}
		}
	case "census":
		lines := strings.Split(strings.TrimSpace(string(body)), "\n")
		if lines[0] != store.CensusHeader || len(lines) != 2 || !strings.HasPrefix(lines[1], req.model+"\t") {
			return "census: bad table"
		}
	case "ratios":
		if !strings.HasPrefix(string(body), req.dim+": ") {
			return "ratios: bad header"
		}
	case "best":
		var doc struct {
			Variant, Input, Device string
			Tput                   float64
		}
		if err := json.Unmarshal(body, &doc); err != nil || !variantOK(doc.Variant) ||
			doc.Input != req.input || !(doc.Tput > 0) {
			return "best: bad answer"
		}
	case "advise_stats", "advise_inline":
		var doc struct {
			Variant   string
			Rationale []string
			Stats     graph.Stats
		}
		if err := json.Unmarshal(body, &doc); err != nil || !variantOK(doc.Variant) || len(doc.Rationale) == 0 {
			return "advise: bad answer"
		}
		if req.graph != nil && (doc.Stats.Vertices != req.graph.vertices || doc.Stats.Edges != req.graph.edges) {

			return "advise: stats do not match the upload"
		}
	case "tune":
		var doc struct {
			Variant      string
			Tput         float64
			Measurements int
		}
		if err := json.Unmarshal(body, &doc); err != nil || !variantOK(doc.Variant) ||
			doc.Measurements < 1 || doc.Measurements > tuneBudget || !(doc.Tput > 0) {
			return "tune: bad answer"
		}
		rep.tput = doc.Tput
	}
	return ""
}

// tally counts replies into the result.
func tally(r *result, reps []reply) (ok int) {
	for _, rep := range reps {
		r.attempted++
		if rep.fail == "" {
			ok++
			continue
		}
		r.failures[rep.fail]++
		if rep.wrong {
			r.incorrect("%s %s: answer failed its check", rep.req.method, rep.req.kind)
		}
	}
	return ok
}

// runServe runs the serve-mix. The untraced and traced runs are laid
// out as in runSweep; each phase gets a fresh server so that both start
// with a cold response cache.
func runServe(r *result, seed int64, d time.Duration, traced bool, dir string) error {
	m := &serveMix{seed: seed}
	if !traced {
		var setups []float64
		var s *server
		for i := 0; i < setupRepeats; i++ {
			if s != nil {
				if err := s.stop(); err != nil {
					return err
				}
			}
			runtime.GC()
			start := time.Now()
			if err := m.setup(); err != nil {
				return err
			}
			var err error
			if s, err = startServer(m.st, nil); err != nil {
				return err
			}
			setups = append(setups, time.Since(start).Seconds())
		}
		r.values["setup_s"] = median(setups)
		r.notef("setup_s is the median of %d set-ups", len(setups))
		reps, wall := m.drive(s, requests(d), runBudget(d))
		if err := s.stop(); err != nil {
			return err
		}
		ok := tally(r, reps)
		var lat []float64
		for _, rep := range reps {
			lat = append(lat, ms(rep.latency))
		}
		r.values["ops_per_s"] = float64(len(reps)) / wall.Seconds()
		r.values["verified_frac"] = ratio(float64(ok), float64(len(reps)))
		r.values["op_ms_p50"] = hdQuantile(lat, 0.5)
		r.values["op_ms_p99"] = hdQuantile(lat, 0.99)
		r.notef("requests %d of %d in %.3f s by %d closed-loop clients; op_ms percentiles over %d requests",
			len(reps), requests(d), wall.Seconds(), clients, len(lat))
		return nil
	}

	if err := m.setup(); err != nil {
		return err
	}
	r.values["gen.generate_ms"] = ms(m.genTime)
	ps := cpuProbes(m.graphs)

	sA, err := startServer(m.st, nil)
	if err != nil {
		return err
	}
	repsA, wallA := m.drive(sA, requests(d*2/5), runBudget(d))
	if err := sA.stop(); err != nil {
		return err
	}
	probesA, err := runProbes(ps, zeroCtx)
	if err != nil {
		return err
	}

	tr, col := newTracer()
	sB, err := startServer(m.st, tr)
	if err != nil {
		return err
	}
	repsB, wallB := m.drive(sB, len(repsA), runBudget(d))
	scrape, err := scrapeMetrics(sB)
	if err != nil {
		return err
	}
	if err := sB.stop(); err != nil {
		return err
	}
	pt := tr.NewTrace("bench.probes")
	probesB, err := runProbes(ps, pt)
	pt.End()
	if err != nil {
		return err
	}
	var recs []spanRec
	for _, rec := range col.spans(r, tr) {
		if rec.trace != pt.TraceID() {
			recs = append(recs, rec)
		}
	}
	compareProbes(r, probesA, probesB)
	tally(r, repsA)
	tally(r, repsB)
	serveLayers(r, recs, repsB, scrape)
	r.values["trace.overhead_frac"] = wallB.Seconds()/wallA.Seconds() - 1
	var iters float64
	for _, p := range probesB {
		iters += float64(p.iters)
	}
	r.values["algo.iterations.det"] = iters
	r.values["par.dispatch_ns"] = dispatchNS(threads)
	allocs, err := allocProbe(ps)
	if err != nil {
		return err
	}
	r.values["runner.allocs_per_run"] = allocs
	timeStoreQueries(r, m.st)
	m.ingestProbe(r)
	r.notef("phase A %d requests in %.3f s untraced; phase B same requests in %.3f s traced; %d probes per phase",
		len(repsA), wallA.Seconds(), wallB.Seconds(), len(ps))
	return nil
}

// serveLayers fills the serve, tune and runner layer metrics from the
// traced phase. Request spans are matched to the client's requests by
// the X-Trace-Id each answer carries.
func serveLayers(r *result, recs []spanRec, reps []reply, scrape map[string]float64) {
	byTrace := map[uint64]*request{}
	var clientTotal time.Duration
	var tputs []float64
	for _, rep := range reps {
		byTrace[rep.traceID] = rep.req
		clientTotal += rep.latency
		if rep.tput > 0 {
			tputs = append(tputs, rep.tput)
		}
	}
	r.values["algo.gteps_geomean"] = geomean(tputs)
	r.notef("algo.gteps_geomean over %d tune winners", len(tputs))

	var serverTotal time.Duration
	byKind := map[string][]time.Duration{}
	for _, rec := range recs {
		if rec.name != "http.request" {
			continue
		}
		serverTotal += rec.dur
		if req := byTrace[rec.trace]; req != nil {
			byKind[req.kind] = append(byKind[req.kind], rec.dur)
		}
	}
	for kind, ds := range byKind {
		p50, p99 := percentileMS(ds)
		r.values["serve.ms_p50."+kind] = p50
		r.values["serve.ms_p99."+kind] = p99
		r.notef("serve.ms_*.%s over %d requests", kind, len(ds))
	}
	r.values["trace.unaccounted_frac"] = 1 - serverTotal.Seconds()/clientTotal.Seconds()
	r.values["serve.cache_hit_ratio"] = ratio(scrape["hits"], scrape["hits"]+scrape["misses"]+scrape["coalesced"])
	r.values["serve.shed"] = scrape["shed"]
	r.values["serve.server_ms_share"] = ratio(scrape["server_ms"], ms(clientTotal))

	a := aggregate(recs)
	r.values["tune.session_ms"] = a.meanMS("tune.session")
	r.values["tune.measurements"] = ratio(float64(a.n["tune.trial"]), float64(a.n["tune.session"]))
	r.values["tune.ms_per_measurement"] = ratio(a.sumMS("tune.session"), float64(a.n["tune.trial"]))
	// A tuner probe is a one-attempt sweep task.
	r.values["sweep.task_ms"] = a.meanMS("sweep.attempt")
	r.values["sweep.overhead_ms"] = ratio(a.sumMS("sweep.attempt")-a.sumMS("runner.time_cpu", "sweep.verify"),
		float64(a.n["sweep.attempt"]))
	r.values["verify.check_ms"] = a.meanMS("sweep.verify")
	r.values["verify.share"] = ratio(a.sumMS("sweep.verify"), a.sumMS("sweep.attempt"))
	r.values["runner.time_cpu_ms"] = a.meanMS("runner.time_cpu")
	r.values["runner.overhead_ms"] = ratio(a.sumMS("runner.time_cpu")-a.sumMS("runner.kernel"), float64(a.n["runner.time_cpu"]))
	kernelMetrics(r, recs, "runner.kernel", func(rec spanRec) string {
		if req := byTrace[rec.trace]; req != nil {
			return req.input
		}
		return ""
	})
}

// scrapeMetrics reads the cache, shed and server-time counters from the
// server's /metrics endpoint, in both of its formats.
func scrapeMetrics(s *server) (map[string]float64, error) {
	out := map[string]float64{}
	req, err := http.NewRequest(http.MethodGet, s.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Accept", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	var doc struct {
		ShedTotal int64            `json:"shed_total"`
		Cache     map[string]int64 `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("/metrics json: %w", err)
	}
	out["shed"] = float64(doc.ShedTotal)
	for k, v := range doc.Cache {
		out[k] = float64(v)
	}
	resp, err = s.client.Get(s.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	const sum = "indigo_http_request_duration_ms_sum{route=\"/v1/"
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, sum) {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out["server_ms"] += v
	}
	return out, sc.Err()
}

// timeStoreQueries times direct calls of the store's four read queries,
// the work behind a response-cache miss on the read routes.
func timeStoreQueries(r *result, st *store.Store) {
	flow := styles.DimByKey("flow")
	calls := map[string]func(){
		"cells":  func() { _ = st.Cells() },
		"census": func() { st.Census(styles.OMP) },
		"ratios": func() { st.Ratios(flow, 0, 1, store.ClassicOnly) },
		"best":   func() { st.Best(styles.BFS, styles.OMP, gen.InputRoad.String(), sweep.DeviceCPU) },
	}
	for name, call := range calls {
		var xs []float64
		for i := 0; i < 25; i++ {
			start := time.Now()
			call()
			xs = append(xs, float64(time.Since(start).Nanoseconds())/1e3)
		}
		r.values["store.query_us."+name] = median(xs)
	}
}

// ingestProbe times the server's ingest of each distinct inline graph:
// the edge-list parse and the stats traversal behind an advice miss.
func (m *serveMix) ingestProbe(r *result) {
	var read, stats time.Duration
	var bytesRead int
	for _, pg := range m.pool {
		var text string
		if err := json.Unmarshal(pg.text, &text); err != nil {
			r.incorrect("inline pool graph: %v", err)
			return
		}
		start := time.Now()
		g, err := graph.ReadEdgeListBytes([]byte(text), "upload", graph.ReadOptions{Threads: threads})
		if err != nil {
			r.incorrect("inline pool graph: %v", err)
			return
		}
		read += time.Since(start)
		start = time.Now()
		graph.ComputeStatsOpts(g, graph.StatsOptions{Threads: threads})
		stats += time.Since(start)
		bytesRead += len(text)
	}
	n := float64(len(m.pool))

	r.values["graph.read_ms"] = ms(read) / n
	r.values["graph.read_mb_per_s"] = float64(bytesRead) / 1e6 / read.Seconds()
	r.values["graph.stats_ms"] = ms(stats) / n
}
