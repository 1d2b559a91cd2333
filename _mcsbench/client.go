package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/store"
)

// clients is the closed loop's client count: mcs-serve's callers submit
// and wait, and two of them keep both job runners busy.
const clients = 2

// solverCacheSize is mcs-serve's shipped Solver LRU bound (-cache).
const solverCacheSize = 128

// bench is one set-up: a service behind a loopback listener, its
// clients and, for the durable workload, the store it journals to.
type bench struct {
	svc     *service.Service
	srv     *http.Server
	served  chan struct{}
	base    string
	clients []*client
	fs      *store.FileStore
	timed   *timedStore   // store decorator of traced durable runs
	replay  time.Duration // store.Open + service.New at the restart
	warm    []outcome     // set-up jobs: the population, then the warm-up
	dir     string        // store directory, removed at close
	drained bool
}

// start serves a new service with mcs-serve's shipped options on a
// 2-core host, metrics and per-job traces on. st may be nil.
func start(st store.Store) (*bench, error) {
	svc := service.New(service.Options{
		Workers:    hostCores,
		JobWorkers: 2,
		CacheSize:  solverCacheSize,
		Store:      st,
		Metrics:    obs.NewRegistry(),
		Tracing:    true,
	})
	b := &bench{svc: svc, served: make(chan struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.srv = &http.Server{Handler: service.NewHandler(svc)}
	go func() {
		defer close(b.served)
		b.srv.Serve(ln) // returns once close shuts the server down
	}()
	for i := 0; i < clients; i++ {
		b.clients = append(b.clients, newClient(b.base))
	}
	return b, nil
}

// setUp builds the service of one set-up and runs a warm-up batch of
// the workload's own kind of jobs through it, so the timed phase starts
// with the heap, the runtime and every cache the workload keeps warm in
// its steady state. The durable workload first populates a store and
// restarts the service over it, so set-up includes the journal replay
// and restore every mcs-serve restart pays.
func setUp(w *workload, in *inputs, cfg config, rep int) (*bench, error) {
	if !w.durable {
		b, err := start(nil)
		if err != nil {
			return nil, err
		}
		if b.warm, err = loop(b.clients, batch(in.warm), time.Time{}); err != nil {
			b.close()
			return nil, err
		}
		return b, nil
	}
	dir := filepath.Join(cfg.work, fmt.Sprintf("store-%s-%d-%d", w.name, os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	st, fs, _, err := openStore(dir, false)
	if err != nil {
		return nil, err
	}
	first, err := start(st)
	if err != nil {
		fs.Close()
		return nil, err
	}
	first.fs = fs
	population, err := loop(first.clients, batch(in.populate), time.Time{})
	first.close()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}

	t0 := time.Now()
	st, fs, ts, err := openStore(dir, cfg.trace)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b, err := start(st) // service.New replays the journal
	if err != nil {
		fs.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	b.fs, b.timed, b.dir = fs, ts, dir
	b.replay = time.Since(t0)
	warm, err := loop(b.clients, batch(in.warm), time.Time{})
	b.warm = append(population, warm...)
	if err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// openStore opens the file store under dir with mcs-serve's default
// result TTL; traced runs wrap it in the timing decorator.
func openStore(dir string, traced bool) (store.Store, *store.FileStore, *timedStore, error) {
	fs, err := store.Open(dir, store.Options{ResultTTL: 24 * time.Hour})
	if err != nil {
		return nil, nil, nil, err
	}
	if !traced {
		return fs, fs, nil, nil
	}
	ts := &timedStore{Store: fs}
	return ts, fs, ts, nil
}

// instrument switches the store decorator's timers.
func (b *bench) instrument(on bool) {
	if b.timed != nil {
		b.timed.on.Store(on)
	}
}

// drain lets every job finish. A client's done event fires before the
// job's persistence, trace end and metrics, so per-layer reads wait for
// the drain.
func (b *bench) drain() {
	if b.drained {
		return
	}
	b.drained = true
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	b.svc.Drain(ctx)
}

func (b *bench) close() {
	b.drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.srv.Shutdown(ctx); err != nil {
		b.srv.Close()
	}
	<-b.served
	for _, c := range b.clients {
		c.hc.CloseIdleConnections()
	}
	if b.fs != nil {
		b.fs.Close()
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
	}
}

// phase is one timed closed-loop run and what it cost the process.
type phase struct {
	outs          []outcome
	elapsed       time.Duration // first send to last done event
	cpu           time.Duration
	alloc         uint64 // bytes allocated
	before, after scrape // /metrics around the phase
}

// timedPhase runs the timed requests from number first on for d.
func (b *bench) timedPhase(in *inputs, first int, d time.Duration) (*phase, error) {
	p := &phase{}
	var err error
	if p.before, err = b.scrape(); err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0, t0 := ms.TotalAlloc, cpuTime(), time.Now()
	p.outs, err = loop(b.clients, func(i int) (*request, error) { return in.timed(first + i) }, t0.Add(d))
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - alloc0
	if err != nil {
		return nil, err
	}
	for i := range p.outs {
		p.outs[i].idx += first
		p.elapsed = max(p.elapsed, p.outs[i].end.Sub(t0))
	}
	if p.after, err = b.scrape(); err != nil {
		return nil, err
	}
	return p, nil
}

// batch serves reqs in order, then nil.
func batch(reqs []*request) func(int) (*request, error) {
	return func(i int) (*request, error) {
		if i >= len(reqs) {
			return nil, nil
		}
		return reqs[i], nil
	}
}

// loop runs a closed loop: each client sends its next request only once
// its previous job's done event arrived. Requests are numbered in send
// order; next returns nil when a batch is exhausted. With a non-zero
// deadline no request is sent after it, and jobs already sent finish,
// so the outcomes are requests 0..n-1 in number order.
func loop(cs []*client, next func(i int) (*request, error), deadline time.Time) ([]outcome, error) {
	var (
		mu      sync.Mutex
		sent    int
		outs    []outcome
		failure error
		wg      sync.WaitGroup
	)
	for _, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if failure != nil || (!deadline.IsZero() && !time.Now().Before(deadline)) {
					mu.Unlock()
					return
				}
				i := sent
				sent++
				mu.Unlock()
				r, err := next(i)
				if err != nil {
					mu.Lock()
					failure = errors.Join(failure, err)
					mu.Unlock()
					return
				}
				if r == nil {
					return
				}
				o := c.do(r)
				o.idx = i
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	sort.Slice(outs, func(a, b int) bool { return outs[a].idx < outs[b].idx })
	return outs, failure
}

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// outcome is one job as its client saw it.
type outcome struct {
	idx     int // send order within its batch or run
	req     *request
	status  int // HTTP status of the submit
	id      string
	state   string
	errMsg  string
	result  json.RawMessage
	events  int           // SSE progress events received
	submit  time.Duration // POST sent to 202 read
	latency time.Duration // POST sent to SSE done event read
	end     time.Time
	err     error // transport or protocol failure
	evals   int   // JobResult.Evaluations, filled in by verification
}

// do submits r and follows the job's SSE stream to its done event.
func (c *client) do(r *request) outcome {
	o := outcome{req: r}
	t0 := time.Now()
	resp, err := c.hc.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		o.err = err
		return o
	}
	o.status = resp.StatusCode
	var sub service.SubmitResponse
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&sub)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	o.submit = time.Since(t0)
	if err != nil || o.status != http.StatusAccepted {
		o.err = err
		return o
	}
	o.id = sub.ID
	resp, err = c.hc.Get(c.base + sub.EventsURL)
	if err != nil {
		o.err = err
		return o
	}
	defer resp.Body.Close()
	st, events, err := readEvents(resp.Body)
	o.end = time.Now()
	o.latency = o.end.Sub(t0)
	o.events, o.err = events, err
	o.state, o.errMsg, o.result = st.State, st.Error, st.Result
	io.Copy(io.Discard, resp.Body)
	return o
}

// doneStatus is the part of the done event's JobStatus the benchmark
// reads.
type doneStatus struct {
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

var (
	eventProgress = []byte("event: progress")
	eventDone     = []byte("event: done")
	dataPrefix    = []byte("data: ")
)

// readEvents reads an SSE stream up to its done event, counting the
// progress events before it.
func readEvents(r io.Reader) (doneStatus, int, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var st doneStatus
	progress, done := 0, false
	for {
		line, err := readLine(br)
		if err != nil {
			return st, progress, fmt.Errorf("event stream ended before its done event: %w", err)
		}
		switch {
		case bytes.Equal(line, eventProgress):
			progress++
		case bytes.Equal(line, eventDone):
			done = true
		case done && bytes.HasPrefix(line, dataPrefix):
			return st, progress, json.Unmarshal(line[len(dataPrefix):], &st)
		}
	}
}

// readLine returns the next line without its newline; the slice is valid
// until the next read.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		long := append([]byte(nil), line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = br.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(line, []byte("\n")), nil
}
