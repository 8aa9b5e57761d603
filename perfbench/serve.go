package main

// The serve workloads: the placement service hosted in-process exactly as
// cmd/placementd hosts it, driven by synchronous single-flight clients
// (a closed loop, one request in flight per connection). Every round
// replays the same seeded trace against a fresh (or freshly recovered)
// fleet, so a round's final state must match the reference computed once
// per invocation through service.Local.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"time"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
	"strippack/internal/service"
	"strippack/internal/workload"
)

type tenantSpec struct {
	name   string
	shards int
	route  fleet.Route
}

// serveSpec sizes a serve workload. Every tenant gets its own connection
// and its own churn stream offered at load × (that tenant's shard count).
type serveSpec struct {
	tenants     []tenantSpec
	cols        int
	load        float64 // offered load per shard
	tasksPerReq int
	reqs        int    // requests per tenant per round (after the history)
	history     int    // requests per tenant held by the pristine checkpoint; 0 = start empty
	ckptEvery   uint64 // the server checkpoints every N submit frames (with history > 0)
	replays     int    // untraced rounds per input set
	bestOf      bool   // each request counts the fastest of its set's replays
	minSets     int    // input sets a run measures at least
}

var serveSpecs = map[string]serveSpec{
	"serve-bulk": {
		tenants: []tenantSpec{{"bulk", 64, fleet.RouteLeast}},
		cols:    16, load: 0.95, tasksPerReq: 1024, reqs: 256, replays: 3, bestOf: true, minSets: 4,
	},
	"serve-rpc": {
		tenants: []tenantSpec{{"a", 8, fleet.RouteLeast}, {"b", 8, fleet.RouteLeast}},
		cols:    16, load: 0.5, tasksPerReq: 8, reqs: 8000, replays: 2, minSets: 3,
	},
	"ckpt-recover": {
		tenants: []tenantSpec{{"a", 32, fleet.RouteLeast}, {"b", 32, fleet.RouteP2C}},
		cols:    16, load: 0.8, tasksPerReq: 1024, reqs: 128, history: 150, ckptEvery: 32, replays: 2, minSets: 4,
	},
}

// extraSetups is how many set-ups without a submit phase a run times on
// top of one per round.
const extraSetups = 15

// shrink is the churn lifetime shrink floor cmd/fleetload defaults to.
const shrink = 0.3

func (s *serveSpec) config(seed int64) fleet.Config {
	cfg := fleet.Config{
		Columns:   s.cols,
		Policy:    fpga.ReclaimCompact,
		Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 64},
		Route:     s.tenants[0].route,
		Seed:      seed,
	}
	for _, t := range s.tenants {
		cfg.Shards += t.shards
		cfg.Tenants = append(cfg.Tenants, fleet.Tenant{Name: t.name, Shards: t.shards, Route: t.route})
	}
	return cfg
}

// genTrace draws each tenant's requests (history first) of one input set
// from its own stream, seeded from the workload seed, the set and the
// tenant index.
func genTrace(s *serveSpec, seed int64, set int) ([][][]fpga.TaskSpec, error) {
	trace := make([][][]fpga.TaskSpec, len(s.tenants))
	per := s.history + s.reqs
	n := per * s.tasksPerReq
	for ti, t := range s.tenants {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(set)*1009 + int64(ti)))
		st, err := workload.ChurnStream(rng, n, s.cols, s.load*float64(t.shards), shrink)
		if err != nil {
			return nil, err
		}
		tasks := make([]workload.ChurnTask, n)
		if got := st.NextChunk(tasks); got != n {
			return nil, fmt.Errorf("stream gave %d of %d tasks", got, n)
		}
		trace[ti] = make([][]fpga.TaskSpec, per)
		for r := range per {
			trace[ti][r] = fleet.Specs(tasks[r*s.tasksPerReq:(r+1)*s.tasksPerReq], ti*n+r*s.tasksPerReq)
		}
	}
	return trace, nil
}

// reference is the expected final state of every round, computed once by
// driving the same trace through service.Local in-process.
type reference struct {
	stats       *fleet.Stats
	hashes      [][sha256.Size]byte // per tenant, over its shards' encoded snapshots
	submitted   int
	heightRatio float64
}

func tenantHashes(p service.Placer, f fleet.Config) ([][sha256.Size]byte, int, error) {
	var out [][sha256.Size]byte
	bytes, first := 0, 0
	for _, t := range f.Tenants {
		h := sha256.New()
		for i := first; i < first+t.Shards; i++ {
			snap, err := p.SnapshotShard(i)
			if err != nil {
				return nil, 0, err
			}
			b := service.EncodeSnapshot(snap)
			bytes += len(b)
			h.Write(b)
		}
		out = append(out, [sha256.Size]byte(h.Sum(nil)))
		first += t.Shards
	}
	return out, bytes, nil
}

// buildReference runs the trace in-process. For a workload with history it
// also writes the pristine checkpoint after the history, then continues
// uninterrupted through the tail.
func buildReference(s *serveSpec, cfg fleet.Config, trace [][][]fpga.TaskSpec, pristine string) (*reference, error) {
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, err
	}
	loc := service.Local{Fleet: f}
	submit := func(from, to int) error {
		for ti := range trace {
			for r := from; r < to; r++ {
				if _, err := loc.Submit(ti, trace[ti][r]); err != nil {
					return fmt.Errorf("reference submit: %w", err)
				}
			}
		}
		return nil
	}
	if err := submit(0, s.history); err != nil {
		return nil, err
	}
	if pristine != "" {
		ck, err := service.CaptureCheckpoint(f, 1, 1)
		if err != nil {
			return nil, err
		}
		if err := service.WriteCheckpoint(pristine, ck); err != nil {
			return nil, err
		}
	}
	if err := submit(s.history, s.history+s.reqs); err != nil {
		return nil, err
	}
	st, err := loc.Finish()
	if err != nil {
		return nil, fmt.Errorf("reference finish: %w", err)
	}
	hashes, _, err := tenantHashes(loc, cfg)
	if err != nil {
		return nil, err
	}
	ref := &reference{stats: st, hashes: hashes, submitted: len(trace) * (s.history + s.reqs) * s.tasksPerReq}
	// Height ratio: the fleet makespan over the simplest lower bound on it
	// for the admitted tasks — total column-time over total columns, and
	// the latest release plus run time.
	var area, last float64
	cols := 0
	for i := 0; i < f.Shards(); i++ {
		cols += f.Cols(i)
		for _, t := range f.Shard(i).Schedule().Tasks {
			area += float64(t.Cols) * t.Duration
			last = math.Max(last, t.Release+t.Duration)
		}
	}
	if lb := math.Max(area/float64(cols), last); lb > 0 {
		ref.heightRatio = st.Makespan / lb
	}
	return ref, nil
}

// connRun is one connection's submit loop in one round.
type connRun struct {
	rts    []float64 // round trips, ms
	tasks  int
	failed int
	wall   time.Duration
	// traced only
	spans             []span // client.submit, one per request
	bytesIn, bytesOut int
	reads, writes     int
}

// serveRound is one round: set-up, the submit phase, then the checks.
type serveRound struct {
	setup time.Duration
	wall  time.Duration // submit phase, all connections
	conns []connRun
	live  uint64 // heap retained by the program over the round
	// traced only
	servers      []*serverConn
	placer       *timedPlacer
	cp           *checkpointer
	recover      time.Duration
	recoverAlloc uint64
	fpgaStart    fpgaCounters
	stats        *fleet.Stats
	snapBytes    int
	placed       int
	submitted    int
}

type serveBench struct {
	spec     serveSpec
	cfg      fleet.Config
	seed     int64
	set      int // input set of trace and ref
	trace    [][][]fpga.TaskSpec
	ref      *reference
	quality  []*reference // sets 0 to minSets-1, which every run covers
	workdir  string
	pristine string
	mutate   func(*reference)
}

// useSet generates input set n and its reference. A workload without
// history replays each set spec.replays times and then moves to the next,
// so a run covers more distinct requests than one round holds; a workload
// with history replays set 0, the one its pristine checkpoint was written
// from.
func (b *serveBench) useSet(n int) error {
	if b.trace != nil && (b.set == n || b.spec.history > 0) {
		return nil
	}
	b.trace, b.ref = nil, nil // release the previous set first
	trace, err := genTrace(&b.spec, b.seed, n)
	if err != nil {
		return err
	}
	ref, err := buildReference(&b.spec, b.cfg, trace, b.pristine)
	if err != nil {
		return err
	}
	if b.mutate != nil {
		b.mutate(ref)
	}
	b.set, b.trace, b.ref = n, trace, ref
	if n < b.spec.minSets {
		b.quality = append(b.quality, ref)
	}
	return nil
}

func runServe(spec serveSpec, o *options, h testHooks) (*outcome, error) {
	if spec.replays < 1 {
		return nil, fmt.Errorf("run sized to %d replays per input set", spec.replays)
	}
	// The figures pool one best round trip per request of every set, or
	// every round trip of the faster half of the rounds (e2e).
	nreq := spec.minSets * spec.reqs * len(spec.tenants)
	if !spec.bestOf {
		nreq = (spec.minSets*spec.replays + 1) / 2 * spec.reqs * len(spec.tenants)
	}
	if nreq < minP99Samples {
		return nil, fmt.Errorf("run sized to %d requests; submit_p99_ms needs at least %d", nreq, minP99Samples)
	}
	b := &serveBench{spec: spec, cfg: spec.config(o.seed), seed: o.seed, workdir: o.workdir, mutate: h.mutateRef}
	if spec.history > 0 {
		b.pristine = filepath.Join(o.workdir, "pristine.ckpt")
	}
	out := newOutcome()
	var plain, traced []*serveRound
	// One checked warm-up round fills caches and grows the heap before
	// anything is measured.
	if err := b.useSet(0); err != nil {
		return nil, err
	}
	if _, err := b.round(0, false, nil, out); err != nil {
		return nil, err
	}
	extra, err := b.setups(extraSetups)
	if err != nil {
		return nil, err
	}
	var pd procDelta
	start := time.Now()
	for i := 1; len(out.errs) == 0; i++ {
		// A traced run alternates untraced and traced rounds, and each
		// input set gets spec.replays of each.
		tr := o.trace && i%2 == 0
		n := i - 1
		if o.trace {
			n /= 2
		}
		if err := b.useSet(n / spec.replays); err != nil {
			return nil, err
		}
		var r *serveRound
		if tr {
			r, err = b.round(i, true, nil, out)
		} else {
			r, err = b.round(i, false, &pd, out)
		}
		if err != nil {
			return nil, err
		}
		if tr {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		setDone := len(plain)%spec.replays == 0 && (!o.trace || len(traced) == len(plain))
		if setDone && len(plain) >= spec.minSets*spec.replays && time.Since(start) >= o.seconds {
			break
		}
	}
	b.e2e(out, plain, extra)
	if o.trace {
		b.layers(out, traced, plain, &pd)
	}
	return out, nil
}

// stack is one hosted service: the fleet (fresh, or recovered from the
// pristine checkpoint), the server on its unix listener, and one
// handshaken client connection per tenant.
type stack struct {
	f          *fleet.Fleet
	ln         net.Listener
	sock       string
	clients    []*service.Client
	ccs        []*clientConn // traced only
	servers    []*serverConn // traced only; written by the accept loop
	placer     *timedPlacer  // traced only
	cp         *checkpointer
	offsets    []int         // each tenant's first request to submit
	meters     []fleet.Meter // tenant meters at the start
	recover    time.Duration
	recoverMem uint64
	serveWG    sync.WaitGroup
	acceptDone chan struct{}
	mu         sync.Mutex
	err        error // serve and checkpoint-hook errors
}

func (s *stack) fail(err error) {
	s.mu.Lock()
	s.err = errors.Join(s.err, err)
	s.mu.Unlock()
}

// open performs the set-up the way cmd/placementd starts: build or
// recover the fleet, listen, serve each accepted connection, and dial and
// handshake one client per tenant.
func (b *serveBench) open(round int, traced bool) (*stack, error) {
	s := &stack{acceptDone: make(chan struct{})}
	epoch := uint64(1)
	var err error
	if b.pristine != "" {
		t0, a := time.Now(), sampleProc()
		var ck *service.Checkpoint
		if s.f, ck, err = service.Recover(b.pristine, b.cfg, 1); err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		s.recover = time.Since(t0)
		s.recoverMem = sampleProc().allocBytes - a.allocBytes
		epoch = ck.Epoch + 1
	} else if s.f, err = fleet.New(b.cfg); err != nil {
		return nil, err
	}
	s.sock = filepath.Join(b.workdir, "s.sock")
	os.Remove(s.sock)
	if s.ln, err = net.Listen("unix", s.sock); err != nil {
		return nil, err
	}
	var placer service.Placer = service.Local{Fleet: s.f}
	if traced {
		s.placer = newTimedPlacer(s.f)
		placer = s.placer
	}
	srv := service.NewServer(placer)
	srv.SetEpoch(epoch)
	if b.spec.history > 0 && b.spec.ckptEvery > 0 {
		s.cp = &checkpointer{f: s.f, path: filepath.Join(b.workdir, "round.ckpt"), epoch: epoch, timed: traced}
		srv.SetCheckpointer(s.cp.run)
		every := b.spec.ckptEvery
		srv.AfterSubmit(func(total uint64) {
			if total%every == 0 {
				if _, _, err := srv.Checkpoint(); err != nil {
					s.fail(fmt.Errorf("checkpoint: %w", err))
				}
			}
		})
	}
	go func() { // accept loop; ends when the listener closes
		defer close(s.acceptDone)
		for i := 0; ; i++ {
			conn, err := s.ln.Accept()
			if err != nil {
				return
			}
			var rw net.Conn = conn
			if traced {
				sc := &serverConn{Conn: conn, round: round, idx: i}
				s.servers = append(s.servers, sc)
				rw = sc
			}
			s.serveWG.Add(1)
			go func() {
				defer s.serveWG.Done()
				defer conn.Close()
				if err := srv.Serve(rw); err != nil {
					s.fail(fmt.Errorf("serve: %w", err))
				}
			}()
		}
	}()

	// Dial one connection at a time: each Dial returns after its handshake,
	// so connection ti is the server's ti-th accepted connection.
	nt := len(b.spec.tenants)
	s.clients = make([]*service.Client, nt)
	s.ccs = make([]*clientConn, nt)
	for ti := range s.clients {
		c, err := service.Dial(func() (io.ReadWriter, error) {
			conn, err := net.Dial("unix", s.sock)
			if err != nil {
				return nil, err
			}
			if traced {
				s.ccs[ti] = &clientConn{Conn: conn}
				return s.ccs[ti], nil
			}
			return conn, nil
		}, service.RetryConfig{Attempts: 1})
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients[ti] = c
	}
	// Each tenant resumes where the fleet's meter says its stream stands.
	in, err := s.clients[0].Info()
	if err != nil {
		s.close()
		return nil, err
	}
	s.meters = in.Meters
	s.offsets = make([]int, nt)
	want := b.spec.history * b.spec.tasksPerReq
	for ti := range s.offsets {
		if sub := in.Meters[ti].Submitted; sub != want {
			s.close()
			return nil, fmt.Errorf("tenant %d resumes at task %d, want %d", ti, sub, want)
		}
		s.offsets[ti] = b.spec.history
	}
	return s, nil
}

// close disconnects the clients, stops the listener, waits for every
// serving goroutine and returns what they reported.
func (s *stack) close() error {
	for _, c := range s.clients {
		if c != nil {
			c.Close()
		}
	}
	s.ln.Close()
	<-s.acceptDone
	s.serveWG.Wait()
	os.Remove(s.sock)
	if s.cp != nil {
		os.Remove(s.cp.path)
	}
	return s.err
}

// round runs one set-up, submit phase and check. A returned error is a
// harness failure; failed checks go to out.
func (b *serveBench) round(idx int, traced bool, pd *procDelta, out *outcome) (*serveRound, error) {
	rr := &serveRound{}
	base := liveHeap()
	t0 := time.Now()
	s, err := b.open(idx, traced)
	if err != nil {
		return nil, err
	}
	rr.setup = time.Since(t0)
	if traced {
		rr.fpgaStart = readFPGA(s.f)
	}

	// Submit phase: every connection drives its tenant's requests
	// concurrently, one request in flight each.
	var a procSample
	if pd != nil {
		a = sampleProc()
	}
	rr.conns = make([]connRun, len(s.clients))
	start := time.Now()
	var wg sync.WaitGroup
	for ti := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr.conns[ti] = b.drive(s.clients[ti], s.ccs[ti], ti, s.offsets[ti], idx)
		}()
	}
	wg.Wait()
	rr.wall = time.Since(start)
	if pd != nil {
		pd.add(a, sampleProc())
	}
	if live := liveHeap(); live > base {
		rr.live = live - base
	}

	// Checks, outside the measured phase.
	if st, err := s.clients[0].Finish(); err != nil {
		out.checkf("round %d: finish: %v", idx, err)
	} else {
		rr.stats = st
		b.check(rr, s, idx, out)
	}
	if err := s.close(); err != nil {
		out.checkf("round %d: %v", idx, err)
	}
	for _, c := range rr.conns {
		out.attempted += len(c.rts) + c.failed
		out.failed += c.failed
	}
	if traced {
		// Keep the recorded timings, not the fleet they point at.
		s.placer.Placer, s.placer.f = nil, nil
		if s.cp != nil {
			s.cp.f = nil
		}
		rr.servers, rr.placer, rr.cp = s.servers, s.placer, s.cp
		rr.recover, rr.recoverAlloc = s.recover, s.recoverMem
	}
	return rr, nil
}

// setups times n set-ups with nothing submitted, so setup_s rests on
// more samples than there are rounds.
func (b *serveBench) setups(n int) ([]float64, error) {
	var out []float64
	for range n {
		t0 := time.Now()
		s, err := b.open(-1, false)
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
		if err := s.close(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// drive runs one connection's closed loop over its tenant's requests.
func (b *serveBench) drive(c *service.Client, cc *clientConn, ti, from, round int) connRun {
	var cr connRun
	reqs := b.trace[ti][from:]
	cr.rts = make([]float64, 0, len(reqs))
	var in0, out0, r0, w0 int
	if cc != nil {
		in0, out0, r0, w0 = cc.bytesIn, cc.bytesOut, cc.reads, cc.writes
	}
	start := time.Now()
	for _, specs := range reqs {
		t0 := time.Now()
		_, err := c.Submit(ti, specs)
		t1 := time.Now()
		if err != nil {
			// The fleet state no longer follows the trace; the round's
			// state checks will fail too.
			cr.failed++
			break
		}
		cr.rts = append(cr.rts, ms(t1.Sub(t0)))
		cr.tasks += len(specs)
		if cc != nil {
			cr.spans = append(cr.spans, span{Name: "client.submit", Start: t0, End: t1, Req: reqID(round, ti, cc.frames)})
		}
	}
	cr.wall = time.Since(start)
	if cc != nil {
		cr.bytesIn, cr.bytesOut = cc.bytesIn-in0, cc.bytesOut-out0
		cr.reads, cr.writes = cc.reads-r0, cc.writes-w0
	}
	return cr
}

// check compares a finished round with the reference: identical stats,
// identical per-tenant snapshot hashes, and every task accounted for.
func (b *serveBench) check(rr *serveRound, s *stack, idx int, out *outcome) {
	c := s.clients[0]
	st := rr.stats
	if st.Admitted+st.Rejected+st.Shed != st.Tasks {
		out.checkf("round %d: admitted %d + rejected %d + shed %d != tasks %d", idx, st.Admitted, st.Rejected, st.Shed, st.Tasks)
	}
	in, err := c.Info()
	if err != nil {
		out.checkf("round %d: info: %v", idx, err)
		return
	}
	submitted, refused := 0, 0
	for ti, m := range in.Meters {
		submitted += m.Submitted
		refused += m.Refused
		rr.submitted += m.Submitted - s.meters[ti].Submitted
		rr.placed += m.Placed - s.meters[ti].Placed
	}
	if submitted != b.ref.submitted || st.Tasks+refused != submitted {
		out.checkf("round %d: %d tasks submitted (%d reached shards, %d refused), want %d",
			idx, submitted, st.Tasks, refused, b.ref.submitted)
	}
	if !reflect.DeepEqual(st, b.ref.stats) {
		out.checkf("round %d: fleet stats differ from the in-process reference", idx)
	}
	hashes, n, err := tenantHashes(c, b.cfg)
	if err != nil {
		out.checkf("round %d: snapshots: %v", idx, err)
		return
	}
	rr.snapBytes = n
	for ti := range hashes {
		if hashes[ti] != b.ref.hashes[ti] {
			out.checkf("round %d: tenant %s snapshot sha256 %x, reference %x",
				idx, b.spec.tenants[ti].name, hashes[ti], b.ref.hashes[ti])
		}
	}
}

// e2e reports the end-to-end metrics over the untraced rounds, which come
// in sets of spec.replays replays of one input set. On a shared host a
// round trip that met a burst of CPU steal or a busy neighbour is slow for
// reasons outside the program, while the program's own cost is in every
// replay, so the figures keep the undisturbed measurements:
//
//   - bestOf (one connection): a request does the same work in every
//     replay of its set, so it counts the fastest of its round trips. A
//     set's throughput is its tasks (or requests) over the sum of those
//     round trips; the run reports the median set, and the latency
//     percentiles pool one round trip per request of every set.
//   - otherwise (concurrent connections, whose interleaving and so whose
//     checkpoints and lane contention differ between replays): the rounds
//     are ranked by wall-clock throughput and the slower half is set aside
//     (fasterHalf). Throughput is the median of the faster half and the
//     latency percentiles pool every round trip of it.
//
// The plain figures over every round are printed beside them.
func (b *serveBench) e2e(out *outcome, rounds []*serveRound, setups []float64) {
	var lives []float64
	for _, r := range rounds {
		setups = append(setups, r.setup.Seconds())
		lives = append(lives, float64(r.live)/(1<<20))
	}
	all := serveTimes(rounds)
	var kept roundTimes
	how := ""
	if b.spec.bestOf {
		kept = bestOfReplays(rounds, b.spec.replays)
		how = fmt.Sprintf("each request's fastest of %d replays gives the figures above", b.spec.replays)
	} else {
		kept = serveTimes(fasterHalf(rounds, func(r *serveRound) float64 { return serveTimes([]*serveRound{r}).taskRates[0] }))
		how = fmt.Sprintf("the faster %d rounds give the figures above", len(kept.taskRates))
	}
	// The quality metrics are deterministic: means over the input sets
	// every run covers, taken from their references.
	var util, wait, height, shed []float64
	admitted := 0
	for _, ref := range b.quality {
		st := ref.stats
		util = append(util, st.Utilization)
		wait = append(wait, st.MeanWait)
		height = append(height, ref.heightRatio)
		shed = append(shed, ratio(float64(ref.submitted-st.Admitted), float64(ref.submitted)))
		admitted += st.Admitted
	}
	out.e2e.add("setup_s", "s", median(setups), len(setups))
	out.e2e.add("tasks_per_s", "tasks/s", median(kept.taskRates), len(kept.taskRates))
	out.e2e.add("instances_per_s", "1/s", median(kept.reqRates), len(kept.reqRates))
	out.e2e.add("submit_p50_ms", "ms", quantile(kept.rts, 0.50), len(kept.rts))
	out.e2e.add("submit_p99_ms", "ms", quantile(kept.rts, 0.99), len(kept.rts))
	out.e2e.add("utilization", "ratio", mean(util), admitted)
	out.e2e.add("mean_wait", "tu", mean(wait), admitted)
	out.e2e.add("height_ratio", "ratio", mean(height), len(height))
	out.e2e.add("live_heap_mb", "MB", median(lives), len(lives))
	out.e2e.add("shed_ratio", "ratio", mean(shed), len(shed))
	out.notes = append(out.notes,
		fmt.Sprintf("requests %d over %d rounds (%d input sets of %d replays); %s",
			len(all.rts), len(rounds), len(rounds)/b.spec.replays, b.spec.replays, how),
		fmt.Sprintf("all rounds: tasks_per_s %.6g (median), submit_p50_ms %.6g, submit_p99_ms %.6g (n=%d)",
			median(all.taskRates), quantile(all.rts, 0.5), quantile(all.rts, 0.99), len(all.rts)))
}

// roundTimes are the timing figures of some rounds: each round's task and
// request rates and every request's round trip.
type roundTimes struct {
	taskRates, reqRates, rts []float64
}

// bestOfReplays gives, for each set of replays, its task and request
// rates over the sum of every request's fastest round trip, and those round
// trips.
func bestOfReplays(rounds []*serveRound, replays int) roundTimes {
	var t roundTimes
	for s := 0; s+replays <= len(rounds); s += replays {
		set := rounds[s : s+replays]
		var taskRate, reqRate float64
		for ti, c := range set[0].conns {
			best := slices.Clone(c.rts)
			for _, r := range set[1:] {
				for j, rt := range r.conns[ti].rts[:min(len(best), len(r.conns[ti].rts))] {
					best[j] = min(best[j], rt)
				}
			}
			sum := 0.0
			for _, rt := range best {
				sum += rt
			}
			taskRate += ratio(float64(c.tasks), sum/1e3)
			reqRate += ratio(float64(len(best)), sum/1e3)
			t.rts = append(t.rts, best...)
		}
		t.taskRates = append(t.taskRates, taskRate)
		t.reqRates = append(t.reqRates, reqRate)
	}
	return t
}

func serveTimes(rounds []*serveRound) roundTimes {
	var t roundTimes
	for _, r := range rounds {
		tasks, n := 0, 0
		for _, c := range r.conns {
			t.rts = append(t.rts, c.rts...)
			tasks += c.tasks
			n += len(c.rts)
		}
		t.taskRates = append(t.taskRates, ratio(float64(tasks), r.wall.Seconds()))
		t.reqRates = append(t.reqRates, ratio(float64(n), r.wall.Seconds()))
	}
	return t
}

// layers reports the per-layer metrics of the traced rounds. Each
// Submit's round trip splits into the client side (transport and client
// codec: round trip minus server busy), the server's own time (busy minus
// the fleet call: decode, lane lock, encode, checkpoint hook) and the
// fleet call itself.
func (b *serveBench) layers(out *outcome, traced, plain []*serveRound, pd *procDelta) {
	l := out.layer
	var clientSelf, busy, serverSelf, fleetUs, gaps []float64
	var sumRT, sumClient, sumServer, sumFleet, sumWall, sumGap time.Duration
	var bytesIn, bytesOut, reads, writes, nreq int
	var fleetDur time.Duration
	var tasks, fleetTasks, placed, submitted int
	var fp fpgaCounters
	var finish, capture, write, ckAlloc, recov, recovAlloc []float64
	ckCount, ckMax := 0, 0.0
	var ckBytes int64
	for _, r := range traced {
		busyBy := map[int64]span{}
		var busySpans []span
		for _, sc := range r.servers {
			for _, s := range sc.busy {
				busyBy[s.Req] = s
			}
		}
		for ti, c := range r.conns {
			bytesIn += c.bytesIn
			bytesOut += c.bytesOut
			reads += c.reads
			writes += c.writes
			nreq += len(c.spans)
			tasks += c.tasks
			fl := r.placer.submits[ti]
			var rtSum time.Duration
			for k, cs := range c.spans {
				bs, ok := busyBy[cs.Req]
				if !ok || k >= len(fl) {
					out.checkf("trace: request %x has no server or fleet span", cs.Req)
					continue
				}
				fs := fl[k]
				fs.Req = cs.Req
				rt, bd, fd := cs.dur(), bs.dur(), fs.dur()
				clientSelf = append(clientSelf, us(rt-bd))
				busy = append(busy, us(bd))
				serverSelf = append(serverSelf, us(bd-fd))
				fleetUs = append(fleetUs, us(fd))
				rtSum += rt
				sumClient += rt - bd
				sumServer += bd - fd
				sumFleet += fd
				fleetDur += fd
				busySpans = append(busySpans, bs)
				out.spans.add(cs, bs, fs)
			}
			fleetTasks += r.placer.tasks[ti]
			sumRT += rtSum
			sumWall += c.wall
			sumGap += c.wall - rtSum
			gaps = append(gaps, float64(c.wall-rtSum)/float64(c.wall))
		}
		finish = append(finish, ms(r.placer.finish))
		fp.passes += r.placer.atFinish.passes - r.fpgaStart.passes
		fp.moved += r.placer.atFinish.moved - r.fpgaStart.moved
		fp.shed += r.placer.atFinish.shed - r.fpgaStart.shed
		fp.peakBacklog = max(fp.peakBacklog, r.placer.atFinish.peakBacklog)
		placed += r.placed
		submitted += r.submitted
		if r.cp != nil {
			for i := range r.cp.capture {
				c, w := r.cp.capture[i], r.cp.write[i]
				// A checkpoint runs inside the busy span of the submit
				// frame whose AfterSubmit hook triggered it.
				for _, bs := range busySpans {
					if !bs.Start.After(c.Start) && !bs.End.Before(w.End) {
						c.Req, w.Req = bs.Req, bs.Req
						break
					}
				}
				out.spans.add(c, w)
				capture = append(capture, ms(c.dur()))
				write = append(write, ms(w.dur()))
				ckMax = max(ckMax, ms(w.dur()))
				ckAlloc = append(ckAlloc, float64(r.cp.allocs[i])/(1<<20))
			}
			ckCount += len(r.cp.capture)
			ckBytes = r.cp.bytes
			recov = append(recov, ms(r.recover))
			recovAlloc = append(recovAlloc, float64(r.recoverAlloc)/(1<<20))
		}
	}
	if nreq == 0 {
		return
	}
	rq := float64(nreq)
	l.set("service.client.bytes_out_per_req", float64(bytesOut)/rq, nreq)
	l.set("service.client.bytes_in_per_req", float64(bytesIn)/rq, nreq)
	l.set("service.client.writes_per_req", float64(writes)/rq, nreq)
	l.set("service.client.reads_per_req", float64(reads)/rq, nreq)
	l.set("service.client.self_us_p50", quantile(clientSelf, 0.5), len(clientSelf))
	l.set("service.server.busy_us_p50", quantile(busy, 0.5), len(busy))
	l.set("service.server.busy_us_p99", quantile(busy, 0.99), len(busy))
	l.set("service.server.self_us_p50", quantile(serverSelf, 0.5), len(serverSelf))
	l.set("service.server.self_us_p99", quantile(serverSelf, 0.99), len(serverSelf))
	l.set("fleet.submit_us_p50", quantile(fleetUs, 0.5), len(fleetUs))
	l.set("fleet.submit_us_p99", quantile(fleetUs, 0.99), len(fleetUs))
	l.set("fleet.submit_ns_per_task", float64(fleetDur.Nanoseconds())/float64(max(fleetTasks, 1)), fleetTasks)
	l.set("fleet.finish_ms", median(finish), len(finish))
	l.set("fleet.placed_ratio", float64(placed)/float64(max(submitted, 1)), submitted)
	st := traced[0].stats
	if st != nil && len(st.PerShard) > 0 {
		lo, hi := st.PerShard[0].Admitted, st.PerShard[0].Admitted
		for _, ps := range st.PerShard {
			lo, hi = min(lo, ps.Admitted), max(hi, ps.Admitted)
		}
		l.set("fleet.admitted_spread", float64(hi)/float64(max(lo, 1)), len(st.PerShard))
		l.set("fpga.snapshot_bytes_per_task", float64(traced[0].snapBytes)/float64(max(st.Tasks, 1)), st.Tasks)
	}
	kt := float64(tasks) / 1000
	l.set("fpga.compact_passes_per_ktask", float64(fp.passes)/kt, tasks)
	l.set("fpga.tasks_moved_per_ktask", float64(fp.moved)/kt, tasks)
	l.set("fpga.peak_backlog", float64(fp.peakBacklog), len(traced))
	l.set("fpga.shed_per_ktask", float64(fp.shed)/kt, tasks)
	if ckCount > 0 {
		l.set("service.checkpoint.count", float64(ckCount)/float64(len(traced)), len(traced))
		l.set("service.checkpoint.capture_ms_p50", quantile(capture, 0.5), len(capture))
		l.set("service.checkpoint.write_ms_p50", quantile(write, 0.5), len(write))
		l.set("service.checkpoint.write_ms_max", ckMax, len(write))
		l.set("service.checkpoint.file_mb", float64(ckBytes)/(1<<20), 1)
		l.set("service.checkpoint.alloc_mb_per_ckpt", mean(ckAlloc), len(ckAlloc))
	}
	if len(recov) > 0 {
		l.set("service.recover_ms", median(recov), len(recov))
		l.set("service.recover_alloc_mb", median(recovAlloc), len(recovAlloc))
	}

	plainTasks := 0
	var plainWall, tracedWall time.Duration
	for _, r := range plain {
		plainWall += r.wall
		for _, c := range r.conns {
			plainTasks += c.tasks
		}
	}
	for _, r := range traced {
		tracedWall += r.wall
	}
	pd.set(l, true, plainTasks, len(plain))
	l.set("loadgen.gap_share", mean(gaps), len(gaps))
	untracedRate := ratio(float64(plainTasks), plainWall.Seconds())
	tracedRate := ratio(float64(tasks), tracedWall.Seconds())
	l.set("trace.overhead_share", 1-ratio(tracedRate, untracedRate), len(traced)+len(plain))

	n := time.Duration(nreq)
	out.notes = append(out.notes,
		fmt.Sprintf("reconcile round trip %.1f us = transport+client self %.1f us + server self %.1f us + fleet %.1f us (means over %d requests, leftover %.3f us)",
			us(sumRT/n), us(sumClient/n), us(sumServer/n), us(sumFleet/n), nreq, us((sumRT-sumClient-sumServer-sumFleet)/n)),
		fmt.Sprintf("reconcile loadgen wall %.3f s - sum of round trips %.3f s = gap %.3f s (share %.4f over %d connection runs)",
			sumWall.Seconds(), sumRT.Seconds(), sumGap.Seconds(), float64(sumGap)/float64(sumWall), len(gaps)),
		fmt.Sprintf("trace overhead: traced %.0f tasks/s vs untraced %.0f tasks/s", tracedRate, untracedRate))
}
