package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"decvec/internal/experiments"
	"decvec/internal/server"
	"decvec/internal/sim"
	"decvec/internal/simcache"
	"decvec/internal/sweep"
)

// The dvad-sweep workload: a seeded grid swept by two remote executors
// over loopback to two in-process dvad workers, each with one simulation
// slot and one connection.
const (
	sweepScale   = 0.05 // trace scale of every sweep cell, as in sweeptest
	sweepLats    = 112  // latencies drawn per grid
	sweepChunk   = 64   // cells per request: ~126 requests per pass
	sweepWorkers = 2
)

// prefillShare is the seeded share of cells set-up puts in the workers'
// disk caches; the rest are misses in every measured pass.
const prefillShare = 0.75

// seededGrid draws the sweep grid from the seed: sweepLats distinct
// latencies in 1..400 over fixed other dimensions — the six simulated
// programs, REF, DVA and BYP, and four load-queue depths — so every seed
// sweeps the same trace sizes and result shapes. The depths exclude the
// default 256, so no two cells share a cache key. It also returns the
// seeded set of cells set-up pre-fills, by plan index.
func seededGrid(seed int64) (sweep.GridSpec, []bool) {
	rng := rand.New(rand.NewSource(seed))
	lats := make([]int64, 0, sweepLats)
	for _, l := range rng.Perm(400)[:sweepLats] {
		lats = append(lats, int64(l+1))
	}
	spec := sweep.GridSpec{
		Programs:  []string{"ARC2D", "FLO52", "BDNA", "SPEC77", "TRFD", "DYFESM"},
		Archs:     []string{"REF", "DVA", "BYP"},
		Latencies: lats,
		LoadQs:    []int{0, 8, 16, 32},
	}
	n := len(spec.Programs) * len(spec.Archs) * len(spec.Latencies) * len(spec.LoadQs)
	prefill := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(float64(n)*prefillShare)] {
		prefill[i] = true
	}
	return spec, prefill
}

// worker is one in-process dvad daemon on a loopback port.
type worker struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
}

func startWorker(dir string, rec *recorder) (*worker, error) {
	store, err := simcache.Open(dir, simcache.Options{MaxBytes: -1})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Scale: sweepScale, MaxConcurrent: 1, Store: store, RequestTimeout: 2 * time.Minute})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background()) // nothing served; the listen error is the one to report
		return nil, err
	}
	w := &worker{srv: srv, hs: &http.Server{Handler: handlerSpans(srv.Handler(), rec)},
		url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { w.done <- w.hs.Serve(ln) }()
	return w, nil
}

// stop closes the listener, waits for the serve loop to exit, then drains
// the daemon.
func (w *worker) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	if serveErr := <-w.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	if sdErr := w.srv.Shutdown(ctx); sdErr != nil && err == nil {
		err = sdErr
	}
	return err
}

// fleet is the two workers over their cache directories.
type fleet struct {
	dirs    []string
	workers []*worker
}

func (f *fleet) start(rec *recorder) error {
	for _, d := range f.dirs {
		w, err := startWorker(d, rec)
		if err != nil {
			f.stop()
			return err
		}
		f.workers = append(f.workers, w)
	}
	return nil
}

func (f *fleet) stop() error {
	var errs []error
	for _, w := range f.workers {
		errs = append(errs, w.stop())
	}
	f.workers = nil
	return errors.Join(errs...)
}

// cacheStats sums the workers' suite-level disk hits and misses.
func (f *fleet) cacheStats() simcache.Stats {
	var st simcache.Stats
	for _, w := range f.workers {
		s := w.srv.Suite().CacheStats()
		st.Hits += s.Hits
		st.Misses += s.Misses
	}
	return st
}

// executors returns one remote executor per worker, each with a client of
// its own whose transport times every request.
func (f *fleet) executors(rt *reqTimer) []sweep.Executor {
	var ex []sweep.Executor
	for i, w := range f.workers {
		c := &http.Client{Transport: rt}
		ex = append(ex, sweep.NewRemote(w.url, sweep.RemoteOptions{Name: "w" + strconv.Itoa(i), Client: c}))
	}
	return ex
}

// files lists the cache entries of each worker directory.
func (f *fleet) files() ([]map[string]bool, error) {
	var out []map[string]bool
	for _, d := range f.dirs {
		ents, err := os.ReadDir(d)
		if err != nil {
			return nil, err
		}
		m := map[string]bool{}
		for _, e := range ents {
			m[e.Name()] = true
		}
		out = append(out, m)
	}
	return out, nil
}

// reset deletes every entry a pass added, restoring the pre-filled state.
func (f *fleet) reset(keep []map[string]bool) error {
	for i, d := range f.dirs {
		ents, err := os.ReadDir(d)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !keep[i][e.Name()] {
				if err := os.Remove(filepath.Join(d, e.Name())); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// reqTimer is the client transport of both executors: it times each
// request from send until its body is closed — a sweep response streams —
// and counts refusals (429, 5xx, transport errors). With a recorder it
// records an "http" span per request and passes its id and request id to
// the worker in headers.
type reqTimer struct {
	base *http.Transport
	rec  *recorder

	mu      sync.Mutex
	lat     []float64 // ms
	refused []string
}

func newReqTimer(rec *recorder) *reqTimer {
	return &reqTimer{base: &http.Transport{MaxIdleConnsPerHost: 1}, rec: rec}
}

type ctxKey struct{}

// reqCtx names the span and request a call is made under.
type reqCtx struct{ span, req int64 }

const (
	hdrSpan = "X-Perfbench-Span"
	hdrReq  = "X-Perfbench-Req"
)

func (rt *reqTimer) RoundTrip(req *http.Request) (*http.Response, error) {
	id := rt.rec.id()
	rc, _ := req.Context().Value(ctxKey{}).(reqCtx)
	if rt.rec != nil {
		req = req.Clone(req.Context())
		req.Header.Set(hdrSpan, strconv.FormatInt(id, 10))
		req.Header.Set(hdrReq, strconv.FormatInt(rc.req, 10))
	}
	start := time.Now()
	resp, err := rt.base.RoundTrip(req)
	if err != nil {
		rt.refuse(req, err.Error())
		return nil, err
	}
	if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500 {
		rt.refuse(req, resp.Status)
	}
	if req.Method == http.MethodPost {
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
			end := time.Now()
			rt.mu.Lock()
			rt.lat = append(rt.lat, ms(end.Sub(start)))
			rt.mu.Unlock()
			rt.rec.add(id, rc.span, rc.req, "http "+req.URL.Path, start, end)
		}}
	}
	return resp, nil
}

func (rt *reqTimer) refuse(req *http.Request, why string) {
	rt.mu.Lock()
	rt.refused = append(rt.refused, req.URL.Path+": "+why)
	rt.mu.Unlock()
}

// take returns and clears the request latencies and refusals so far.
func (rt *reqTimer) take() (lat []float64, refused []string) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	lat, refused = rt.lat, rt.refused
	rt.lat, rt.refused = nil, nil
	return lat, refused
}

type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// handlerSpans wraps a worker's handler with a "server.handler" span per
// request, linked to the client span that sent it. A nil recorder leaves
// the handler unwrapped.
func handlerSpans(h http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		id := rec.id()
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.add(id, parent, req, "server.handler", start, time.Now())
	})
}

// tracedExec wraps an executor with a "sweep.exec" span per chunk; each
// chunk is one request id, shared by the HTTP spans it causes.
type tracedExec struct {
	sweep.Executor
	rec    *recorder
	parent int64
}

func (e tracedExec) Run(ctx context.Context, cells []sweep.Cell) ([]*sim.Result, error) {
	id := e.rec.id()
	start := time.Now()
	res, err := e.Executor.Run(context.WithValue(ctx, ctxKey{}, reqCtx{span: id, req: id}), cells)
	e.rec.add(id, e.parent, id, "sweep.exec", start, time.Now())
	return res, err
}

// sweepRun is the set-up shared by every dvad-sweep pass.
type sweepRun struct {
	cfg     config
	plan    *sweep.Plan
	prefill []bool
	refPath string // per-cell digests of the local reference run
	fl      *fleet
	keep    []map[string]bool // the pre-filled entries of each worker
}

func sweepOptions() sweep.Options {
	return sweep.Options{Scale: sweepScale, ChunkSize: sweepChunk, Inflight: 1}
}

// setUp makes fresh worker directories and fills them with the seeded
// share of cells, each routed to the worker the coordinator will send it
// to, then stops the workers so every pass starts them with fresh suites.
func (s *sweepRun) setUp() error {
	fl := &fleet{}
	for i := 0; i < sweepWorkers; i++ {
		d, err := os.MkdirTemp(s.cfg.work, "worker-")
		if err != nil {
			return err
		}
		fl.dirs = append(fl.dirs, d)
	}
	if err := fl.start(nil); err != nil {
		return err
	}
	rt := newReqTimer(nil)
	ex := fl.executors(rt)
	shards := make([][]sweep.Cell, len(ex))
	for i := 0; i < s.plan.Points(); i++ {
		if !s.prefill[i] {
			continue
		}
		c := s.plan.Cell(i)
		th, err := c.Program.CachedTraceHash(sweepScale)
		if err != nil {
			fl.stop()
			return err
		}
		sh := sweep.Shard(c.Key(sim.ModelFingerprint, th).Prefix(), len(ex))
		shards[sh] = append(shards[sh], c)
	}
	errs := make([]error, len(ex))
	var wg sync.WaitGroup
	for i := range ex {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for cells := shards[i]; len(cells) > 0 && errs[i] == nil; {
				n := min(len(cells), 1024)
				_, errs[i] = ex[i].Run(context.Background(), cells[:n])
				cells = cells[n:]
			}
		}(i)
	}
	wg.Wait()
	rt.base.CloseIdleConnections()
	if err := errors.Join(append(errs, fl.stop())...); err != nil {
		return fmt.Errorf("prefill: %w", err)
	}
	keep, err := fl.files()
	if err != nil {
		return err
	}
	if s.fl != nil {
		for _, d := range s.fl.dirs {
			os.RemoveAll(d)
		}
	}
	s.fl, s.keep = fl, keep
	return nil
}

// reference sweeps the grid in-process through a local executor and writes
// every cell's digest, in plan order, for the passes to check against.
func (s *sweepRun) reference() error {
	local := sweep.NewLocal("local", experiments.NewSuite(sweepScale))
	res, _, err := sweep.Run(context.Background(), s.plan, []sweep.Executor{local}, sweep.Options{Scale: sweepScale})
	if err != nil {
		return fmt.Errorf("local reference sweep: %w", err)
	}
	var buf bytes.Buffer
	for _, r := range res {
		d := digest(r)
		buf.Write(d[:])
	}
	s.refPath = filepath.Join(s.cfg.work, "sweep-reference.bin")
	return os.WriteFile(s.refPath, buf.Bytes(), 0o644)
}

func digest(r *sim.Result) [sha256.Size]byte {
	var buf bytes.Buffer
	if r == nil || sim.EncodeResult(&buf, r) != nil {
		return [sha256.Size]byte{}
	}
	return sha256.Sum256(buf.Bytes())
}

// sweepReport is what one sweep pass prints.
type sweepReport struct {
	WallNs   int64     `json:"wallNs"` // around sweep.Run
	CPUNs    int64     `json:"cpuNs"`  // likewise, the whole process
	Lat      []float64 `json:"lat"`    // per request, ms
	Refused  []string  `json:"refused"`
	Err      string    `json:"err,omitempty"`
	Cells    int       `json:"cells"`
	Bad      []int     `json:"bad"` // cells that differ from the reference
	Sims     int64     `json:"sims"`
	Hits     int64     `json:"hits"`
	Misses   int64     `json:"misses"`
	Served   int64     `json:"served"`
	Overload int64     `json:"overloaded"`
	Timeouts int64     `json:"timeouts"`
	Retries  int64     `json:"retries"`
	Reshard  int64     `json:"resharded"`
	Rounds   int       `json:"rounds"`
}

// childSweepPass is one dvad-sweep pass in a process of its own: it starts
// the two workers over the given cache directories, times one sweep of the
// seeded grid, stops the workers, checks every cell against the reference
// digests and prints a sweepReport. Trace generation and hashing at sweep
// scale happen before the timer starts, as in a worker that has served
// before.
func childSweepPass(seed int64, dirs []string, refPath, spansPath string) error {
	var rec *recorder
	if spansPath != "" {
		rec = newRecorder(fmt.Sprintf("sweep-pass-%d", os.Getpid()), int64(os.Getpid())<<32)
	}
	spec, _ := seededGrid(seed)
	plan, err := sweep.NewPlan(spec)
	if err != nil {
		return err
	}
	ref, err := os.ReadFile(refPath)
	if err != nil {
		return err
	}
	if len(ref) != sha256.Size*plan.Points() {
		return fmt.Errorf("reference holds %d bytes for %d cells", len(ref), plan.Points())
	}
	for _, p := range plan.Programs() {
		if _, err := p.CachedTraceHash(sweepScale); err != nil {
			return err
		}
	}
	fl := &fleet{dirs: dirs}
	if err := fl.start(rec); err != nil {
		return err
	}
	rt := newReqTimer(rec)
	ex := fl.executors(rt)
	root := rec.id()
	if rec != nil {
		for i := range ex {
			ex[i] = tracedExec{Executor: ex[i], rec: rec, parent: root}
		}
	}
	runtime.GC()
	cpu0 := cpuTime()
	start := time.Now()
	res, st, runErr := sweep.Run(context.Background(), plan, ex, sweepOptions())
	end := time.Now()
	rep := sweepReport{WallNs: int64(end.Sub(start)), CPUNs: int64(cpuTime() - cpu0), Cells: len(res),
		Reshard: st.Resharded, Rounds: st.Rounds}
	rec.add(root, 0, 0, "sweep.run", start, end)
	if runErr != nil {
		rep.Err = runErr.Error()
	}
	for _, w := range st.Workers {
		rep.Retries += w.Retries
	}
	cache := fl.cacheStats()
	rep.Hits, rep.Misses = cache.Hits, cache.Misses
	for _, w := range fl.workers {
		m := w.srv.Stats()
		rep.Sims += m.Simulations
		rep.Served += m.Served
		rep.Overload += m.Overloaded
		rep.Timeouts += m.Timeouts
	}
	rt.base.CloseIdleConnections()
	if err := fl.stop(); err != nil {
		return err
	}
	rep.Lat, rep.Refused = rt.take()
	for i, r := range res {
		if d := digest(r); !bytes.Equal(d[:], ref[i*sha256.Size:(i+1)*sha256.Size]) {
			rep.Bad = append(rep.Bad, i)
		}
	}
	if err := writeSpans(spansPath, rec); err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// sweepPass is one dvad-sweep pass as the parent saw it.
type sweepPass struct {
	rssMB float64
	rep   sweepReport
	spans []span
}

func (p sweepPass) wall() time.Duration { return time.Duration(p.rep.WallNs) }

// pass restores the pre-filled caches and runs one sweep pass in a new
// process. Each cell is one operation, failed when it is missing or
// differs from the reference; each refused request is one more, failed.
// The workers must answer exactly the pre-filled cells from disk.
func (s *sweepRun) pass(t *tally, traced bool, what string) (sweepPass, error) {
	if err := s.fl.reset(s.keep); err != nil {
		return sweepPass{}, err
	}
	var p sweepPass
	args := []string{"-child", "sweep", "-seed", strconv.FormatInt(s.cfg.seed, 10),
		"-dirs", strings.Join(s.fl.dirs, ","), "-ref", s.refPath}
	c, err := runChild(s.cfg, args, traced, &p.rep)
	if err != nil {
		return sweepPass{}, fmt.Errorf("sweep pass: %w", err)
	}
	p.rssMB, p.spans = c.rssMB, c.spans
	r := p.rep
	for _, why := range r.Refused {
		t.op(false, "%s: request refused: %s", what, why)
	}
	if r.Err != "" {
		t.fail("%s: %s", what, r.Err)
	}
	bad := map[int]bool{}
	for _, i := range r.Bad {
		bad[i] = true
	}
	for i := 0; i < r.Cells; i++ {
		t.op(!bad[i], "%s: cell %d differs from the local reference", what, i)
	}
	if n := s.plan.Points(); r.Cells != n {
		t.fail("%s returned %d cells, want %d", what, r.Cells, n)
	}
	if want := int64(countTrue(s.prefill)); r.Hits != want || r.Hits+r.Misses != int64(s.plan.Points()) {
		t.fail("%s: %d disk hits and %d misses, want %d hits of %d cells", what, r.Hits, r.Misses, want, s.plan.Points())
	}
	return p, nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// cpuTime is this process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// newSweepRun draws the grid, sets up n times and computes the local
// reference. It returns each set-up's duration.
func newSweepRun(cfg config, n int) (*sweepRun, []float64, error) {
	spec, prefill := seededGrid(cfg.seed)
	plan, err := sweep.NewPlan(spec)
	if err != nil {
		return nil, nil, err
	}
	if plan.Points() != len(prefill) {
		return nil, nil, fmt.Errorf("grid has %d cells, prefill set %d", plan.Points(), len(prefill))
	}
	s := &sweepRun{cfg: cfg, plan: plan, prefill: prefill}
	var setupS []float64
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := s.setUp(); err != nil {
			return nil, nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	if err := s.reference(); err != nil {
		return nil, nil, err
	}
	fmt.Printf("grid: %d cells (seed %d), %d pre-filled, chunk %d, %d workers x 1 slot\n",
		plan.Points(), cfg.seed, countTrue(prefill), sweepChunk, sweepWorkers)
	return s, setupS, nil
}

// runDvadSweep times whole sweeps of the seeded grid through the workers.
func runDvadSweep(cfg config, t *tally) (metrics, error) {
	s, setupS, err := newSweepRun(cfg, setups)
	if err != nil {
		return nil, err
	}
	var wall, cpu, rss, lat []float64
	for start := time.Now(); len(wall) < minPasses || time.Since(start) < cfg.seconds; {
		p, err := s.pass(t, false, fmt.Sprintf("sweep pass %d", len(wall)))
		if err != nil {
			return nil, err
		}
		wall = append(wall, p.wall().Seconds())
		cpu = append(cpu, time.Duration(p.rep.CPUNs).Seconds())
		rss = append(rss, p.rssMB)
		lat = append(lat, p.rep.Lat...)
	}
	p50, _ := percentile(lat, 50)
	p90, ok90 := percentile(lat, 90)
	fmt.Printf("passes: %d, wall %s, cells_per_s %.0f, requests %d, req_p50_ms %.3f", len(wall), summary(wall),
		float64(s.plan.Points())/median(wall), len(lat), p50)
	if ok90 {
		fmt.Printf(", req_p90_ms %.3f", p90)
	}
	fmt.Println()
	m := metrics{}
	m.set("setup_s", "s", median(setupS))
	m.set("wall_s", "s", median(wall))
	m.set("cpu_s", "s", median(cpu))
	m.set("peak_rss_mb", "MB", median(rss))
	return m, nil
}
