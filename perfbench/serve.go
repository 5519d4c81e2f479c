package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"coflow/internal/coflowmodel"
	"coflow/internal/daemon"
	"coflow/internal/online"
	"coflow/internal/shard"
)

// serveSpec describes one serving workload: an in-process sharded
// coflowd served over host loopback, driven by an open-loop Poisson
// generator.
type serveSpec struct {
	name    string
	fabrics int
	ports   int
	tick    time.Duration
	// rate is the offered request rate (ops/s) of the register/get/
	// cancel mix; scrapes of each metrics endpoint come on top, every
	// scrapeEvery.
	rate        float64
	scrapeEvery time.Duration
	// background coflows are bulk-registered during set-up with demand
	// that cannot drain within the run; under SEBF they rank last. At
	// 10,000 on two vCPUs the generator's own p99 lateness reached the
	// ack tail it is meant to sit far below; 5,000 keeps Step ~20× its
	// serve-light cost with the generator well clear.
	background int
}

var serveLight = serveSpec{
	name: "serve-light", fabrics: 2, ports: 50, tick: 2 * time.Millisecond,
	rate: 600, scrapeEvery: 250 * time.Millisecond,
}

var serveLive = serveSpec{
	name: "serve-live", fabrics: 2, ports: 50, tick: 2 * time.Millisecond,
	rate: 600, scrapeEvery: 250 * time.Millisecond, background: 5000,
}

func runServeLight(rc *runConfig, rep *report) error { return runServe(serveLight, rc, rep) }
func runServeLive(rc *runConfig, rep *report) error  { return runServe(serveLive, rc, rep) }

const (
	// Foreground coflows: 4 flows of size 1–16, weight 1–4.
	fgFlows, fgMaxSize, fgMaxWeight = 4, 16, 4
	// Background flow size: at one unit per slot and 500 slots/s no
	// background flow drains within a run.
	bgFlowSize = 1 << 30
	// bulkBatch is the preload's registrations per bulk request.
	bulkBatch = 500
	// pollEvery is the snapshot poller's period: the resolution of
	// the slot-to-wall completion mapping (well under one tick).
	pollEvery = 500 * time.Microsecond
	// drainTimeout bounds the wait for foreground coflows to finish.
	drainTimeout = 10 * time.Second
	// seqHeader carries each request's index so the traced handler
	// wrapper can pair its ServeHTTP time with the client's round trip.
	seqHeader = "X-Bench-Seq"
)

type opKind uint8

const (
	opRegister opKind = iota
	opGet
	opCancel
	opMetrics
	opPrometheus
)

var opNames = [...]string{"register", "get", "cancel", "metrics", "prometheus"}

// op is one pre-generated request. Register bodies are encoded during
// set-up; get and cancel pick their target among the coflows acked so
// far (pick is the fraction into that list), since IDs are assigned by
// the server.
type op struct {
	kind opKind
	due  time.Duration
	body []byte
	pick float64
	seq  int    // index, for the traced handler wrapper
	hdr  string // seq as sent in seqHeader
}

// outcome is what the generator observed for one op.
type outcome struct {
	sent, done time.Duration // offsets from the phase origin
	status     int           // 0: transport error or no reply
	errKind    string        // the structured error's kind, for 4xx/5xx
	id         int           // register: the acked coflow ID
}

// genOps builds a phase's open-loop schedule: Poisson arrivals at
// spec.rate with the coflowload default mix (register 90, get 5,
// cancel 5) plus a scrape of /v1/metrics and of /metrics every
// scrapeEvery, offset by half a period from each other.
func genOps(spec serveSpec, seed int64, seconds float64, seqBase int) []op {
	rng := rand.New(rand.NewSource(seed))
	horizon := time.Duration(seconds * float64(time.Second))
	var ops []op
	scrape := time.Duration(0)
	next := func() time.Duration { return time.Duration(rng.ExpFloat64() / spec.rate * float64(time.Second)) }
	for t := next(); t < horizon; t += next() {
		for scrape <= t {
			ops = append(ops, op{kind: opMetrics, due: scrape}, op{kind: opPrometheus, due: scrape + spec.scrapeEvery/2})
			scrape += spec.scrapeEvery
		}
		o := op{due: t}
		switch u := rng.Intn(100); {
		case u < 90:
			o.kind = opRegister
			o.body = encodeRegistration(rng, spec.ports, fgFlows, fgMaxSize, fgMaxWeight)
		case u < 95:
			o.kind = opGet
			o.pick = rng.Float64()
		default:
			o.kind = opCancel
			o.pick = rng.Float64()
		}
		ops = append(ops, o)
	}
	// Scrapes were appended ahead of the arrivals; restore due order.
	sort.SliceStable(ops, func(a, b int) bool { return ops[a].due < ops[b].due })
	for i := range ops {
		ops[i].seq = seqBase + i
		ops[i].hdr = strconv.Itoa(seqBase + i)
	}
	return ops
}

func randomRegistration(rng *rand.Rand, ports, flows int, maxSize int64, maxWeight int) coflowmodel.Registration {
	reg := coflowmodel.Registration{Weight: float64(1 + rng.Intn(maxWeight))}
	for f := 0; f < flows; f++ {
		reg.Flows = append(reg.Flows, coflowmodel.Flow{
			Src: rng.Intn(ports), Dst: rng.Intn(ports), Size: 1 + rng.Int63n(maxSize),
		})
	}
	return reg
}

func encodeRegistration(rng *rand.Rand, ports, flows int, maxSize int64, maxWeight int) []byte {
	b, err := json.Marshal(randomRegistration(rng, ports, flows, maxSize, maxWeight))
	if err != nil {
		panic(err) // a plain struct of numbers always encodes
	}
	return b
}

// encodeBackground builds the preload's bulk bodies.
func encodeBackground(spec serveSpec, n int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	var bodies [][]byte
	for done := 0; done < n; done += bulkBatch {
		batch := make([]coflowmodel.Registration, 0, bulkBatch)
		for i := done; i < n && i < done+bulkBatch; i++ {
			reg := randomRegistration(rng, spec.ports, fgFlows, 1, fgMaxWeight)
			for f := range reg.Flows {
				reg.Flows[f].Size = bgFlowSize
			}
			batch = append(batch, reg)
		}
		b, err := json.Marshal(batch)
		if err != nil {
			panic(err)
		}
		bodies = append(bodies, b)
	}
	return bodies
}

// service is one running cluster behind a loopback HTTP server.
type service struct {
	cl   *shard.Cluster
	srv  *http.Server
	base string
	done chan struct{} // closed when Serve returns
	// traced wraps the cluster's handler when the run is traced.
	traced *tracedHandler
}

// startService starts the cluster and its loopback server. With a
// non-nil handle the handler is wrapped to time requests into it.
func startService(spec serveSpec, handle []atomic.Int64) (*service, error) {
	cl, err := shard.New(shard.Config{
		Shards: spec.fabrics,
		Fabric: daemon.Config{Ports: spec.ports, Policy: online.SEBF, Tick: spec.tick},
	})
	if err != nil {
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(fmt.Errorf("listen on loopback: %w", err), cl.Close())
	}
	s := &service{cl: cl, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	handler := cl.Handler()
	if handle != nil {
		s.traced = &tracedHandler{inner: handler, handle: handle}
		handler = s.traced
	}
	s.srv = &http.Server{Handler: handler}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	return s, nil
}

// stop shuts the server down, waits for it, and drains every fabric.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	<-s.done
	return errors.Join(err, s.cl.Close())
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// ready waits for the server to answer /healthz over loopback.
func ready(s *service, client *http.Client) error {
	resp, err := client.Get(s.base + "/healthz")
	if err != nil {
		return fmt.Errorf("health check: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close() // closing a response body after reading it reports nothing actionable
	if err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("health check: status %d, read error %v", resp.StatusCode, err)
	}
	return nil
}

// preload bulk-registers the background coflows and checks every item
// was accepted.
func preload(s *service, client *http.Client, bodies [][]byte) error {
	for _, b := range bodies {
		resp, err := client.Post(s.base+"/v1/coflows", "application/json", bytes.NewReader(b))
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		var br daemon.BulkResponse
		err = json.NewDecoder(resp.Body).Decode(&br)
		_ = resp.Body.Close() // closing a response body after reading it reports nothing actionable
		if err != nil || resp.StatusCode != http.StatusOK || br.Failed != 0 {
			return fmt.Errorf("preload: status %d, %d failed items, decode error %v", resp.StatusCode, br.Failed, err)
		}
	}
	return nil
}

// tracedHandler times ServeHTTP of every request that carries a
// sequence header. It wraps the cluster's handler from outside; the
// program has no spans of its own for this benchmark.
type tracedHandler struct {
	inner http.Handler
	// handle[seq] is the handler time in ns; written once per request.
	handle []atomic.Int64
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := time.Now()
	h.inner.ServeHTTP(w, r)
	d := time.Since(t)
	if seq, err := strconv.Atoi(r.Header.Get(seqHeader)); err == nil && seq >= 0 && seq < len(h.handle) {
		h.handle[seq].Store(int64(d))
	}
}

// acked is the generator's list of registered foreground coflows that
// get and cancel draw their targets from.
type acked struct {
	mu  sync.Mutex
	ids []int
}

func (a *acked) add(id int) {
	a.mu.Lock()
	a.ids = append(a.ids, id)
	a.mu.Unlock()
}

func (a *acked) pick(u float64) (int, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.ids) == 0 {
		return 0, false
	}
	return a.ids[int(u*float64(len(a.ids)))%len(a.ids)], true
}

// drive runs one open-loop phase: two workers, each with its own
// client connection, send their half of ops at the ops' due times.
// Every op is sent even when the generator falls behind, so a stall is
// charged to every request it delays.
func drive(s *service, clients [2]*http.Client, ops []op, ack *acked, origin time.Time) []outcome {
	out := make([]outcome, len(ops))
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(ops); i += len(clients) {
				if d := ops[i].due - time.Since(origin); d > 0 {
					time.Sleep(d)
				}
				out[i] = send(s, clients[w], &ops[i], ack, origin)
			}
		}(w)
	}
	wg.Wait()
	return out
}

// send issues one op and records when it left and when its reply was
// read in full.
func send(s *service, client *http.Client, o *op, ack *acked, origin time.Time) outcome {
	var req *http.Request
	var err error
	switch o.kind {
	case opRegister:
		req, err = http.NewRequest(http.MethodPost, s.base+"/v1/coflows", bytes.NewReader(o.body))
	case opGet, opCancel:
		id, ok := ack.pick(o.pick)
		if !ok {
			// Nothing acked yet: read the (empty) cluster list instead.
			req, err = http.NewRequest(http.MethodGet, s.base+"/v1/coflows", nil)
			break
		}
		method := http.MethodGet
		if o.kind == opCancel {
			method = http.MethodDelete
		}
		req, err = http.NewRequest(method, s.base+"/v1/coflows/"+strconv.Itoa(id), nil)
	case opMetrics:
		req, err = http.NewRequest(http.MethodGet, s.base+"/v1/metrics", nil)
	case opPrometheus:
		req, err = http.NewRequest(http.MethodGet, s.base+"/metrics", nil)
	}
	res := outcome{sent: time.Since(origin)}
	if err != nil {
		res.done = res.sent
		return res
	}
	req.Header.Set(seqHeader, o.hdr)
	resp, err := client.Do(req)
	if err != nil {
		res.done = time.Since(origin)
		return res
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close() // closing a response body after reading it reports nothing actionable
	res.done = time.Since(origin)
	if err != nil {
		return res
	}
	res.status = resp.StatusCode
	if resp.StatusCode >= 400 {
		var e struct {
			Kind string `json:"kind"`
		}
		if json.Unmarshal(body, &e) == nil {
			res.errKind = e.Kind
		}
	}
	if o.kind == opRegister && resp.StatusCode == http.StatusCreated {
		var r struct {
			ID int `json:"id"`
		}
		if json.Unmarshal(body, &r) == nil && r.ID > 0 {
			res.id = r.ID
			ack.add(r.ID)
		}
	}
	return res
}

// poller follows every fabric's published snapshot: the slot clock for
// the completion mapping, plus the command-queue and live-set peaks.
type poller struct {
	stopc, done chan struct{}
	clocks      []slotClock
	queueMax    int
	liveMax     int
}

func startPoller(cl *shard.Cluster, fabrics int, origin time.Time) *poller {
	p := &poller{stopc: make(chan struct{}), done: make(chan struct{}), clocks: make([]slotClock, fabrics)}
	go func() {
		defer close(p.done)
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			p.poll(cl, fabrics, origin)
			select {
			case <-p.stopc:
				// One last look, so every slot published before stop
				// (the drain saw them) is on the clock.
				p.poll(cl, fabrics, origin)
				return
			case <-t.C:
			}
		}
	}()
	return p
}

func (p *poller) poll(cl *shard.Cluster, fabrics int, origin time.Time) {
	now := time.Since(origin)
	live := 0
	for f := 0; f < fabrics; f++ {
		snap := cl.Fabric(f).Snapshot()
		p.clocks[f].observe(snap.Slot, now)
		live += snap.Metrics.ActiveCoflows
		if snap.Metrics.QueueDepth > p.queueMax {
			p.queueMax = snap.Metrics.QueueDepth
		}
	}
	if live > p.liveMax {
		p.liveMax = live
	}
}

// stop ends polling and waits for the poller; its fields are then
// safe to read.
func (p *poller) stop() {
	close(p.stopc)
	<-p.done
}

// scrapeProm reads the cluster's Prometheus exposition in-process (not
// over loopback: this is the benchmark reading the daemon's exposed
// histograms, not traffic).
func scrapeProm(cl *shard.Cluster) (*promScrape, error) {
	rec := httptest.NewRecorder()
	cl.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %d", rec.Code)
	}
	return parseProm(rec.Body)
}

// fabricTotals sums the ticks and skipped ticks over every fabric's
// latest snapshot.
func fabricTotals(cl *shard.Cluster, fabrics int) (ticks, skipped int64) {
	for f := 0; f < fabrics; f++ {
		m := cl.Fabric(f).Snapshot().Metrics
		ticks += m.Ticks
		skipped += m.TicksSkipped
	}
	return ticks, skipped
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	ack, complete, late *windowed // by due time
	transport           samples   // traced: round trip minus handler time (registers)
	handle              [len(opNames)]samples
	busy, wall          time.Duration
	slots               samples
	weightedExcess      float64 // Σ w·(C − r) over completed foreground coflows
	weightedLoad        float64 // Σ w·ρ over the same
	slotsPerSec         float64
	ticks, skippedTicks int64
	queueMax, liveMax   int
}

// runPhase drives ops, drains, maps completions to wall time and runs
// the per-op checks.
func runPhase(spec serveSpec, s *service, clients [2]*http.Client, ops []op, rc *runConfig, rep *report) *phaseResult {
	ack := &acked{}
	ticks0, skipped0 := fabricTotals(s.cl, spec.fabrics)
	origin := time.Now()
	pol := startPoller(s.cl, spec.fabrics, origin)
	outs := drive(s, clients, ops, ack, origin)
	wall := time.Since(origin)
	drainErr := drain(s.cl, ack, drainTimeout)
	pol.stop()
	ticks1, skipped1 := fabricTotals(s.cl, spec.fabrics)

	horizon := time.Duration(0)
	if len(ops) > 0 {
		horizon = ops[len(ops)-1].due
	}
	pr := &phaseResult{
		ack: newWindowed(horizon, windows), complete: newWindowed(horizon, windows), late: newWindowed(horizon, windows),
		wall: wall, ticks: ticks1 - ticks0, skippedTicks: skipped1 - skipped0,
		queueMax: pol.queueMax, liveMax: pol.liveMax,
	}
	rc.tamper("status", outs)
	for i := range ops {
		o, r := &ops[i], &outs[i]
		rep.attempted++
		lat, late := dueLatency(o.due, r.sent, r.done)
		pr.late.add(o.due, late.Seconds())
		if !statusOK(o.kind, r.status, r.errKind) {
			rep.fail("%s: %s request %s answered status %d %s (0: transport error or no reply)", spec.name, opNames[o.kind], o.hdr, r.status, r.errKind)
			if o.kind == opRegister {
				pr.ack.add(o.due, math.Inf(1)) // a refused request misses every latency limit
			}
			continue
		}
		if o.kind == opRegister {
			pr.ack.add(o.due, lat.Seconds())
		}
		if s.traced != nil {
			h := time.Duration(s.traced.handle[o.seq].Load())
			pr.handle[o.kind] = append(pr.handle[o.kind], h.Seconds())
			pr.busy += h
			if o.kind == opRegister {
				pr.transport = append(pr.transport, (r.done - r.sent - h).Seconds())
			}
		}
	}
	if drainErr != nil {
		rep.problem("%s: %v", spec.name, drainErr)
	}

	// Completion: map each acked coflow's Completed slot to the wall
	// time its fabric's snapshot first showed that slot.
	statuses := map[int]*daemon.CoflowStatus{}
	fabricOf := map[int]int{}
	for i := range ops {
		if id := outs[i].id; id > 0 {
			f, cs, ok := s.cl.Owner(id)
			if !ok {
				rep.fail("%s: acked coflow %d is unknown to the cluster", spec.name, id)
				continue
			}
			c := *cs // the snapshot's status is shared; checks read a copy
			statuses[id], fabricOf[id] = &c, f
		}
	}
	rc.tamper("terminal", statuses)
	for i := range ops {
		id := outs[i].id
		cs := statuses[id]
		if id == 0 || cs == nil {
			continue
		}
		switch cs.State {
		case "cancelled":
		case "completed":
			w, ok := pol.clocks[fabricOf[id]].wall(cs.Completed)
			if !ok {
				rep.fail("%s: coflow %d completed at slot %d, never seen by the poller", spec.name, id, cs.Completed)
				continue
			}
			pr.complete.add(ops[i].due, (w - ops[i].due).Seconds())
			pr.slots = append(pr.slots, float64(cs.Completed-cs.Release))
			pr.weightedExcess += cs.Weight * float64(cs.Completed-cs.Release)
			pr.weightedLoad += cs.Weight * float64(cs.Load)
		default:
			rep.fail("%s: acked coflow %d is %q after the drain", spec.name, id, cs.State)
		}
	}
	var rate float64
	for f := range pol.clocks {
		c := &pol.clocks[f]
		if n := len(c.slots); n > 1 {
			rate += float64(c.slots[n-1]-c.slots[0]) / (c.walls[n-1] - c.walls[0]).Seconds()
		}
	}
	pr.slotsPerSec = rate / float64(spec.fabrics)
	return pr
}

// statusOK is the per-op contract: registers are acked 201, reads 200,
// cancels 200 or a 409 terminal_coflow (the coflow finished first:
// expected churn, not a failure).
func statusOK(k opKind, status int, errKind string) bool {
	switch k {
	case opRegister:
		return status == http.StatusCreated
	case opCancel:
		return status == http.StatusOK || (status == http.StatusConflict && errKind == "terminal_coflow")
	default:
		return status == http.StatusOK
	}
}

// drain waits until every acked foreground coflow is terminal.
func drain(cl *shard.Cluster, ack *acked, timeout time.Duration) error {
	ack.mu.Lock()
	ids := append([]int(nil), ack.ids...)
	ack.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for _, id := range ids {
		for {
			_, cs, ok := cl.Owner(id)
			if ok && cs.State != "active" {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("drain: coflow %d still not terminal after %v", id, timeout)
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// checkLedger runs the cluster-wide checks on the final snapshots:
// per-fabric registered = completed + cancelled + active, and every
// completed coflow took at least its load: Completed − Release ≥ ρ.
func checkLedger(spec serveSpec, cl *shard.Cluster, rc *runConfig, rep *report) {
	for f := 0; f < spec.fabrics; f++ {
		snap := cl.Fabric(f).Snapshot()
		m := snap.Metrics
		rc.tamper("ledger", &m)
		rep.attempted++
		if m.Registered != m.Completed+m.Cancelled+int64(m.ActiveCoflows) {
			rep.fail("%s: fabric %d registered %d != completed %d + cancelled %d + active %d",
				spec.name, f, m.Registered, m.Completed, m.Cancelled, m.ActiveCoflows)
		}
		bad := 0
		snap.Coflows.Range(func(id int, cs *daemon.CoflowStatus) bool {
			c := *cs
			rc.tamper("load", &c)
			if c.State == "completed" && c.Completed-c.Release < c.Load {
				if bad == 0 {
					rep.problem("%s: coflow %d completed at %d, released %d, load %d", spec.name, id, c.Completed, c.Release, c.Load)
				}
				bad++
			}
			return true
		})
		if bad > 0 {
			rep.failed++
		}
	}
}

func runServe(spec serveSpec, rc *runConfig, rep *report) error {
	bg := spec.background
	if rc.scale == scaleTiny {
		spec.rate = 200
		if bg > 0 {
			bg = 500
		}
	}
	// Inputs first, outside set-up: every request body is encoded
	// before anything is timed.
	phases := 1
	if rc.traced {
		phases = 2 // untraced reference half, then the traced half
	}
	phaseSeconds := rc.seconds / float64(phases)
	var opsets [][]op
	seqBase := 0
	for p := 0; p < phases; p++ {
		ops := genOps(spec, deriveSeed(rc.seed, uint64(10+p)), phaseSeconds, seqBase)
		seqBase += len(ops)
		opsets = append(opsets, ops)
	}
	bgBodies := encodeBackground(spec, bg, deriveSeed(rc.seed, 20))

	// Set-up: cluster start, the loopback server answering, and the
	// background preload, repeated; the last repeat serves the run.
	var s *service
	clients := [2]*http.Client{newClient(), newClient()}
	defer clients[0].CloseIdleConnections()
	defer clients[1].CloseIdleConnections()
	var handle []atomic.Int64 // traced: handler time per request
	if rc.traced {
		handle = make([]atomic.Int64, seqBase)
	}
	setup, err := repeatSetup(func() (time.Duration, error) {
		if s != nil {
			err := s.stop()
			s = nil
			if err != nil {
				return 0, err
			}
			clients[0].CloseIdleConnections() // the next server is new
		}
		t := time.Now()
		var err error
		if s, err = startService(spec, handle); err != nil {
			return 0, err
		}
		if err := ready(s, clients[0]); err != nil {
			return 0, err
		}
		if err := preload(s, clients[0], bgBodies); err != nil {
			return 0, err
		}
		return time.Since(t), nil
	})
	if err != nil {
		if s != nil {
			err = errors.Join(err, s.stop())
		}
		return err
	}
	rep.set("setup_s", setup)

	var results []*phaseResult
	var before, after *promScrape
	for p, ops := range opsets {
		traced := rc.traced && p == phases-1
		var err error
		if traced {
			if before, err = scrapeProm(s.cl); err != nil {
				return errors.Join(err, s.stop())
			}
		}
		pr := runPhase(spec, s, clients, ops, rc, rep)
		if traced {
			if after, err = scrapeProm(s.cl); err != nil {
				return errors.Join(err, s.stop())
			}
		}
		results = append(results, pr)
		if p == 0 {
			if err := reportServeEndToEnd(rep, pr); err != nil {
				return errors.Join(err, s.stop())
			}
		}
	}
	checkLedger(spec, s.cl, rc, rep)
	if err := s.stop(); err != nil {
		return err
	}
	if rc.traced {
		reportServeLayers(rep, results[0], results[len(results)-1], before, after)
	}
	return nil
}

// reportServeEndToEnd sets the end-to-end metrics of the (untraced)
// phase.
func reportServeEndToEnd(rep *report, pr *phaseResult) error {
	if pr.ack.count() == 0 || pr.complete.count() == 0 || pr.weightedLoad == 0 {
		return fmt.Errorf("phase registered or completed nothing (%d acks, %d completions)", pr.ack.count(), pr.complete.count())
	}
	rep.set("ack_p50_s", pr.ack.quantile(0.5))
	rep.set("ack_p90_s", pr.ack.quantile(0.9))
	v, q := pr.ack.tail()
	rep.set("ack_p99_s", v)
	rep.notef("ack_*: %d registrations; medians over %d windows of each window's percentile (ack_p99_s at q=%.2f)", pr.ack.count(), windows, q)
	rep.set("complete_p50_s", pr.complete.quantile(0.5))
	rep.set("complete_p90_s", pr.complete.quantile(0.9))
	v, q = pr.complete.tail()
	rep.set("complete_p99_s", v)
	rep.notef("complete_*: %d completed foreground coflows; medians over %d windows (complete_p99_s at q=%.2f)", pr.complete.count(), windows, q)
	rep.set("objective_ratio", pr.weightedExcess/pr.weightedLoad)
	rep.set("loadgen.late_p50_s", pr.late.quantile(0.5))
	v, _ = pr.late.tail()
	rep.set("loadgen.late_p99_s", v)
	rep.notef("loadgen.late_*: the generator's own slack against due times; ack and complete are charged from due time, so this is part of them")
	return nil
}

// reportServeLayers sets the per-layer metrics from the traced phase,
// and the tracing overhead against the untraced phase of the same run.
func reportServeLayers(rep *report, ref, pr *phaseResult, before, after *promScrape) {
	rep.set("loadgen.late_p50_s", pr.late.quantile(0.5))
	v, _ := pr.late.tail()
	rep.set("loadgen.late_p99_s", v)
	rep.set("transport.register_p50_s", pr.transport.p50())
	reg := pr.handle[opRegister].sorted()
	rep.set("shard.http.register_p50_s", quantile(reg, 0.5))
	v, q := tail(reg)
	rep.set("shard.http.register_p99_s", v)
	rep.notef("shard.http.register_p99_s at q=%.2f of %d", q, len(reg))
	rep.set("shard.http.get_p50_s", pr.handle[opGet].p50())
	rep.set("shard.http.cancel_p50_s", pr.handle[opCancel].p50())
	rep.set("shard.http.metrics_p50_s", pr.handle[opMetrics].p50())
	rep.set("shard.http.prometheus_p50_s", pr.handle[opPrometheus].p50())
	rep.set("shard.http.busy_share", pr.busy.Seconds()/pr.wall.Seconds())

	h := func(name string, q float64) float64 { v, _ := histQuantile(before, after, name, q); return v }
	rep.set("daemon.tick_p50_s", h("coflowd_tick_seconds", 0.5))
	rep.set("daemon.tick_p99_s", h("coflowd_tick_seconds", 0.99))
	rep.set("online.step_p50_s", h("coflow_step_seconds", 0.5))
	rep.set("online.step_p99_s", h("coflow_step_seconds", 0.99))
	rep.set("online.sort_p50_s", h("coflow_step_sort_seconds", 0.5))
	rep.set("online.match_p50_s", h("coflow_step_match_seconds", 0.5))
	rep.set("online.replay_p50_s", h("coflow_step_replay_seconds", 0.5))
	hits := counterDelta(before, after, "coflow_step_matcher_warm_start_hits_total")
	misses := counterDelta(before, after, "coflow_step_matcher_warm_start_misses_total")
	if hits+misses > 0 {
		rep.set("online.warm_start_hit_rate", hits/(hits+misses))
	}
	_, n := histQuantile(before, after, "coflowd_tick_seconds", 0.5)
	rep.notef("daemon.tick_* and online.* come from the fabrics' obs histograms (%.0f ticks); see NOTES.md for their resolution", n)

	rep.set("daemon.queue_depth_max", float64(pr.queueMax))
	rep.set("daemon.live_coflows_max", float64(pr.liveMax))
	rep.set("daemon.slots_per_s", pr.slotsPerSec)
	if t := pr.ticks + pr.skippedTicks; t > 0 {
		rep.set("daemon.ticks_skipped_share", float64(pr.skippedTicks)/float64(t))
	}
	slots := pr.slots.sorted()
	rep.set("daemon.complete_slots_p50", quantile(slots, 0.5))
	v, _ = tail(slots)
	rep.set("daemon.complete_slots_p99", v)
	if ref.ack.quantile(0.5) > 0 {
		rep.set("tracing.overhead_share", pr.ack.quantile(0.5)/ref.ack.quantile(0.5)-1)
	}
}
