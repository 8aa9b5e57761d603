package main

// Tracing for the per-layer run. Every span is recorded from the
// benchmark's own code around a call into a layer: the client round trip
// around service.Client.Submit, the server's busy interval from a
// net.Conn wrapper on the accepted connection, the fleet call from a
// Placer decorator, the checkpoint phases from a timed checkpointer, and
// the solver calls around each precedence/release function. Each recorder
// is owned by one goroutine (or guarded by the server's lane locks), so
// recording takes no lock; spans of one Submit are joined afterwards by
// (connection, frame) and written out when the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
	"strippack/internal/service"
)

// span is one timed interval at a layer boundary. Req joins the spans of
// one request (client -> server -> fleet) or one solved instance; Parent
// names the span that caused this one ("" for a root).
type span struct {
	Name       string
	Start, End time.Time
	Req        int64
	Parent     string
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// reqID joins a round, a connection index and a frame index on that
// connection (or an instance index, for solve).
func reqID(round, conn, frame int) int64 { return int64(round)<<40 | int64(conn)<<32 | int64(frame) }

// clientConn counts what the client sends and receives. A frame starts
// with the first Write after a Read; the client is single-flight, so the
// k-th frame on both ends of a connection is the same request.
type clientConn struct {
	net.Conn
	bytesIn, bytesOut int
	reads, writes     int
	frames            int
	writing           bool
}

func (c *clientConn) Write(p []byte) (int, error) {
	if !c.writing {
		c.frames++
		c.writing = true
	}
	n, err := c.Conn.Write(p)
	c.bytesOut += n
	c.writes++
	return n, err
}

func (c *clientConn) Read(p []byte) (int, error) {
	c.writing = false
	n, err := c.Conn.Read(p)
	c.bytesIn += n
	c.reads++
	return n, err
}

// serverConn records the server's busy interval for every frame: from the
// end of the last Read before a response to the end of the response's last
// Write. Only the Serve goroutine of this connection touches it.
type serverConn struct {
	net.Conn
	round    int
	idx      int
	frame    int
	writing  bool
	lastRead time.Time
	reqEnd   time.Time
	lastW    time.Time
	busy     []span
}

func (c *serverConn) Read(p []byte) (int, error) {
	c.finish()
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.lastRead = time.Now()
	}
	return n, err
}

func (c *serverConn) Write(p []byte) (int, error) {
	if !c.writing {
		c.writing = true
		c.frame++
		c.reqEnd = c.lastRead
	}
	n, err := c.Conn.Write(p)
	c.lastW = time.Now()
	return n, err
}

// finish closes the current frame's busy span once its response is out.
func (c *serverConn) finish() {
	if c.writing {
		c.busy = append(c.busy, span{Name: "server.busy", Start: c.reqEnd, End: c.lastW,
			Req: reqID(c.round, c.idx, c.frame), Parent: "client.submit"})
		c.writing = false
	}
}

// fpgaCounters sums the per-shard counters the fpga layer exposes.
type fpgaCounters struct {
	passes, moved, shed, peakBacklog int
}

func readFPGA(f *fleet.Fleet) fpgaCounters {
	var c fpgaCounters
	for i := 0; i < f.Shards(); i++ {
		o := f.Shard(i)
		_, p, m := o.ReclaimStats()
		ld := o.Load()
		c.passes += p
		c.moved += m
		c.shed += ld.Shed
		c.peakBacklog = max(c.peakBacklog, ld.MaxWaiting)
	}
	return c
}

// timedPlacer decorates the server's Placer with fleet-call timing. The
// server calls Submit for tenant ti only under ti's lane lock and every
// other method under all lanes, so each per-tenant slice has one writer
// at a time and the lane mutexes order the accesses.
type timedPlacer struct {
	service.Placer
	f        *fleet.Fleet
	submits  [][]span // per tenant, in submission order
	tasks    []int    // per tenant
	finish   time.Duration
	atFinish fpgaCounters
}

func newTimedPlacer(f *fleet.Fleet) *timedPlacer {
	return &timedPlacer{
		Placer:  service.Local{Fleet: f},
		f:       f,
		submits: make([][]span, f.Tenants()),
		tasks:   make([]int, f.Tenants()),
	}
}

func (p *timedPlacer) Submit(ti int, specs []fpga.TaskSpec) ([]fleet.Placement, error) {
	t0 := time.Now()
	placed, err := p.Placer.Submit(ti, specs)
	if ti >= 0 && ti < len(p.submits) {
		p.submits[ti] = append(p.submits[ti], span{Name: "fleet.submit", Start: t0, End: time.Now(), Parent: "server.busy"})
		p.tasks[ti] += len(specs)
	}
	return placed, err
}

// Finish reads the fpga counters before draining (the drain's own
// completions are not submit-phase work), then times the fleet's Finish.
func (p *timedPlacer) Finish() (*fleet.Stats, error) {
	p.atFinish = readFPGA(p.f)
	t0 := time.Now()
	st, err := p.Placer.Finish()
	p.finish = time.Since(t0)
	return st, err
}

// checkpointer is the daemon's checkpoint function as cmd/placementd wires
// it: capture the quiescent fleet, then write the file atomically. The
// server runs it with every lane held. With timed set it also records
// each phase's duration and the bytes allocated.
type checkpointer struct {
	f     *fleet.Fleet
	path  string
	epoch uint64
	timed bool

	mu      sync.Mutex
	seq     uint64
	capture []span
	write   []span
	allocs  []uint64
	bytes   int64
}

func (cp *checkpointer) run() (uint64, error) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.seq++
	var a procSample
	t0 := time.Now()
	if cp.timed {
		a = sampleProc()
	}
	ck, err := service.CaptureCheckpoint(cp.f, cp.epoch, cp.seq)
	if err != nil {
		return 0, err
	}
	t1 := time.Now()
	if err := service.WriteCheckpoint(cp.path, ck); err != nil {
		return 0, err
	}
	if cp.timed {
		t2 := time.Now()
		b := sampleProc()
		cp.capture = append(cp.capture, span{Name: "checkpoint.capture", Start: t0, End: t1, Parent: "server.busy"})
		cp.write = append(cp.write, span{Name: "checkpoint.write", Start: t1, End: t2, Parent: "server.busy"})
		cp.allocs = append(cp.allocs, b.allocBytes-a.allocBytes)
		if fi, err := os.Stat(cp.path); err == nil {
			cp.bytes = fi.Size()
		}
	}
	return cp.seq, nil
}

// spanLog accumulates the spans of every traced round and writes them as
// JSON lines with ids and resolved parent ids.
type spanLog struct {
	base  time.Time
	spans []span
}

func (l *spanLog) add(s ...span) { l.spans = append(l.spans, s...) }

func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type key struct {
		name string
		req  int64
	}
	ids := make(map[key]int, len(l.spans))
	for i, s := range l.spans {
		ids[key{s.Name, s.Req}] = i + 1
	}
	for i, s := range l.spans {
		parent := 0
		if s.Parent != "" {
			parent = ids[key{s.Parent, s.Req}]
		}
		rec := struct {
			ID      int    `json:"id"`
			Name    string `json:"name"`
			StartNs int64  `json:"start_ns"`
			EndNs   int64  `json:"end_ns"`
			Parent  int    `json:"parent"`
			Req     int64  `json:"req"`
		}{i + 1, s.Name, s.Start.Sub(l.base).Nanoseconds(), s.End.Sub(l.base).Nanoseconds(), parent, s.Req}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
