package service

import (
	"bufio"
	"bytes"
	"io"
	"math"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xab}, 1<<16)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for _, want := range payloads {
		got, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame round trip: %d bytes, want %d", len(got), len(want))
		}
	}
	// A length prefix beyond maxFrame must fail before allocating.
	var e enc
	e.uint(maxFrame + 1)
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(e.b))); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

// TestFrameLargeRoundTrip: frames past frameChunk, read in growing
// steps, arrive intact, including across short reads.
func TestFrameLargeRoundTrip(t *testing.T) {
	for _, n := range []int{frameChunk, frameChunk + 1, 3*frameChunk + 17} {
		want := make([]byte, n)
		for i := range want {
			want[i] = byte(i * 7)
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, want); err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(bufio.NewReader(iotest.HalfReader(&buf)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%d-byte frame: got %d bytes back", n, len(got))
		}
	}
}

// TestFrameHeaderBoundedAlloc: a header declaring a 1 GiB frame, followed
// by EOF or by a stalled peer, allocates a bounded buffer rather than the
// declared size, and fails with io.ErrUnexpectedEOF.
func TestFrameHeaderBoundedAlloc(t *testing.T) {
	const limit = 4 << 20
	var hdr enc
	hdr.uint(1 << 30)
	allocated := func(fn func()) uint64 {
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		fn()
		runtime.ReadMemStats(&b)
		return b.TotalAlloc - a.TotalAlloc
	}

	// Header, a few payload bytes, then EOF.
	var err error
	n := allocated(func() {
		data := append(append([]byte(nil), hdr.b...), make([]byte, 100)...)
		_, err = readFrame(bufio.NewReader(bytes.NewReader(data)))
	})
	if err != io.ErrUnexpectedEOF {
		t.Fatalf("header then EOF: err = %v, want io.ErrUnexpectedEOF", err)
	}
	if n >= limit {
		t.Fatalf("header then EOF: allocated %d bytes, want < %d", n, limit)
	}

	// Header, then a peer that stalls. The second write can only be
	// consumed once readFrame has made its buffer and is reading into it.
	pr, pw := io.Pipe()
	done := make(chan error, 1)
	n = allocated(func() {
		go func() {
			_, err := readFrame(bufio.NewReader(pr))
			done <- err
		}()
		if _, err := pw.Write(hdr.b); err != nil {
			t.Error(err)
		}
		if _, err := pw.Write(make([]byte, 100)); err != nil {
			t.Error(err)
		}
	})
	if n >= limit {
		t.Fatalf("stalled peer: allocated %d bytes while waiting, want < %d", n, limit)
	}
	pw.Close()
	if err := <-done; err != io.ErrUnexpectedEOF {
		t.Fatalf("stalled peer then close: err = %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestPrimitiveRoundTrip(t *testing.T) {
	var e enc
	e.uint(0)
	e.uint(1 << 40)
	e.int(-7)
	e.i64(math.MinInt64)
	e.f64(0.1)
	e.f64(math.Inf(-1))
	e.f64(math.Copysign(0, -1)) // -0.0 must survive: floats travel as bits
	e.bool(true)
	e.bool(false)
	e.str("")
	e.str("héllo\x00world")
	d := &dec{b: e.b}
	if d.uint() != 0 || d.uint() != 1<<40 || d.int() != -7 || d.i64() != math.MinInt64 {
		t.Fatal("int round trip")
	}
	if d.f64() != 0.1 || !math.IsInf(d.f64(), -1) {
		t.Fatal("float round trip")
	}
	if z := d.f64(); z != 0 || !math.Signbit(z) {
		t.Fatal("-0.0 did not survive")
	}
	if !d.bool() || d.bool() {
		t.Fatal("bool round trip")
	}
	if d.str() != "" || d.str() != "héllo\x00world" {
		t.Fatal("string round trip")
	}
	if err := d.done(); err != nil {
		t.Fatal(err)
	}
	// A bool byte other than 0/1 is malformed, not coerced.
	d = &dec{b: []byte{2}}
	d.bool()
	if d.err == nil {
		t.Fatal("bool byte 2 accepted")
	}
	// Truncated varint / float / string are sticky errors.
	for _, b := range [][]byte{{0x80}, {1, 2, 3}, {5, 'h', 'i'}} {
		d = &dec{b: b}
		d.uint()
		d.f64()
		d.str()
		if d.err == nil {
			t.Fatalf("truncated input %v accepted", b)
		}
	}
	// Trailing bytes are malformed.
	d = &dec{b: []byte{0, 0}}
	d.uint()
	if err := d.done(); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestCountGuard(t *testing.T) {
	// A huge element count with a tiny body must be rejected by the
	// allocation guard, not attempted.
	var e enc
	e.uint(1 << 50)
	d := &dec{b: e.b}
	if n := d.count(8); n != 0 || d.err == nil {
		t.Fatalf("count guard: n=%d err=%v", n, d.err)
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	// Build a real scheduler state rather than a synthetic snapshot so the
	// encoding is exercised against the canonical form.
	o, err := fpga.NewOnlineSchedulerAdmission(&fpga.Device{Columns: 8, ReconfigDelay: 0.25},
		fpga.ReclaimCompact, fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		dur := 1 + float64(i%3)
		if _, err := o.SubmitWithLifetime(i, "t", 1+i%5, dur,
			dur*(0.5+0.1*float64(i%4)), float64(i)*0.3); err != nil {
			t.Fatal(err)
		}
	}
	snap := o.Snapshot()
	b := EncodeSnapshot(snap)
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, snap) {
		t.Fatal("snapshot codec round trip diverges")
	}
	// Deterministic: equal values, equal bytes.
	if !bytes.Equal(EncodeSnapshot(got), b) {
		t.Fatal("snapshot encoding is not deterministic")
	}
	// The decoded snapshot must still restore.
	if _, err := fpga.RestoreScheduler(got); err != nil {
		t.Fatal(err)
	}
	// Trailing garbage after a valid snapshot is malformed.
	if _, err := DecodeSnapshot(append(append([]byte{}, b...), 0)); err == nil {
		t.Fatal("trailing byte after snapshot accepted")
	}
	if _, err := DecodeSnapshot(b[:len(b)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestStatsAndInfoCodecRoundTrip(t *testing.T) {
	st := &fleet.Stats{
		Shards: 2, Tasks: 10, Admitted: 8, Rejected: 1, Shed: 1,
		Makespan: 12.5, Utilization: 0.625, MeanWait: 0.25, MaxBacklog: 3,
		PerShard: []fpga.ChurnStats{
			{Makespan: 12.5, Utilization: 0.5, MeanWait: 0.25, ReclaimedColumnTime: 1.5,
				CompactPasses: 2, TasksMoved: 3, Admitted: 4, Rejected: 1, Shed: 0, MaxBacklog: 3},
			{Makespan: 11, Utilization: 0.75, Admitted: 4, Shed: 1},
		},
	}
	var e enc
	e.stats(st)
	d := &dec{b: e.b}
	if got := d.stats(); d.done() != nil || !reflect.DeepEqual(got, st) {
		t.Fatal("stats round trip diverges")
	}

	in := &Info{
		Shards: 3, Cols: []int{4, 4, 8}, ReconfigDelay: 0.25,
		Policy: fpga.ReclaimCompact,
		Admission: fpga.AdmissionConfig{Policy: fpga.AdmitShed, MaxBacklog: 16},
		Route: fleet.RouteLeast, Seed: -9,
		Tenants: []TenantInfo{
			{Name: "alpha", First: 0, Count: 2, Route: fleet.RouteRR},
			{Name: "beta", First: 2, Count: 1, Route: fleet.RouteP2C},
		},
	}
	e = enc{}
	e.info(in)
	d = &dec{b: e.b}
	if got := d.info(); d.done() != nil || !reflect.DeepEqual(got, in) {
		t.Fatal("info round trip diverges")
	}

	l := fpga.LoadStats{Now: 3, Horizon: 9, Window: 6, CommittedColTime: 24,
		Load: 0.5, Waiting: 1, Running: 2, Done: 3, Shed: 4, Rejected: 5, MaxWaiting: 6}
	e = enc{}
	e.loadStats(&l)
	d = &dec{b: e.b}
	if got := d.loadStats(); d.done() != nil || got != l {
		t.Fatal("load stats round trip diverges")
	}
}

// FuzzServiceCodec hammers every decoder reachable from the wire with
// arbitrary bytes. Two invariants: decoding never panics (the allocation
// guard and sticky errors hold), and anything that decodes cleanly
// re-encodes and re-decodes to an equal value (the codec is canonical on
// its image).
func FuzzServiceCodec(f *testing.F) {
	o := fpga.NewOnlineSchedulerPolicy(fpga.NewDevice(4), fpga.Reclaim)
	for i := 0; i < 6; i++ {
		if _, err := o.Submit(i, "f", 1+i%3, 1, 0); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(byte(0), EncodeSnapshot(o.Snapshot()))
	var e enc
	e.stats(&fleet.Stats{Shards: 1, PerShard: []fpga.ChurnStats{{Admitted: 3}}})
	f.Add(byte(1), e.b)
	e = enc{}
	e.info(&Info{Shards: 2, Cols: []int{4, 4}, Tenants: []TenantInfo{{Name: "x", Count: 2}}})
	f.Add(byte(2), e.b)
	e = enc{}
	e.taskSpec(&fpga.TaskSpec{ID: 3, Name: "n", Cols: 2, Duration: 1.5, Release: 0.5})
	f.Add(byte(3), e.b)
	f.Add(byte(4), []byte{opSubmit, 2, 1})

	f.Fuzz(func(t *testing.T, which byte, data []byte) {
		switch which % 5 {
		case 0:
			s, err := DecodeSnapshot(data)
			if err != nil {
				return
			}
			b := EncodeSnapshot(s)
			s2, err := DecodeSnapshot(b)
			if err != nil || !reflect.DeepEqual(s2, s) {
				t.Fatalf("snapshot re-decode diverges: %v", err)
			}
		case 1:
			d := &dec{b: data}
			st := d.stats()
			if d.done() != nil {
				return
			}
			var e enc
			e.stats(st)
			d2 := &dec{b: e.b}
			if st2 := d2.stats(); d2.done() != nil || !reflect.DeepEqual(st2, st) {
				t.Fatal("stats re-decode diverges")
			}
		case 2:
			d := &dec{b: data}
			in := d.info()
			if d.done() != nil {
				return
			}
			var e enc
			e.info(in)
			d2 := &dec{b: e.b}
			if in2 := d2.info(); d2.done() != nil || !reflect.DeepEqual(in2, in) {
				t.Fatal("info re-decode diverges")
			}
		case 3:
			d := &dec{b: data}
			sp := d.taskSpec()
			if d.done() != nil {
				return
			}
			var e enc
			e.taskSpec(&sp)
			d2 := &dec{b: e.b}
			if sp2 := d2.taskSpec(); d2.done() != nil || sp2 != sp {
				t.Fatal("task spec re-decode diverges")
			}
		case 4:
			// The server request dispatcher itself must never panic on an
			// arbitrary payload; errors come back as opErr frames.
			srv := NewServer(stubPlacer{})
			resp := srv.handle(data)
			if len(resp) == 0 {
				t.Fatal("handle returned an empty response")
			}
		}
	})
}

// stubPlacer keeps the fuzz dispatcher cheap: decoding is the target, not
// fleet execution.
type stubPlacer struct{}

func (stubPlacer) Info() (*Info, error) { return &Info{}, nil }
func (stubPlacer) Submit(int, []fpga.TaskSpec) ([]fleet.Placement, error) {
	return nil, nil
}
func (stubPlacer) Drain() error                            { return nil }
func (stubPlacer) Loads() ([]fpga.LoadStats, error)        { return nil, nil }
func (stubPlacer) SnapshotShard(int) (*fpga.Snapshot, error) {
	return &fpga.Snapshot{}, nil
}
func (stubPlacer) RestoreShard(int, *fpga.Snapshot) error { return nil }
func (stubPlacer) Restored() ([]int, error)               { return nil, nil }
func (stubPlacer) Finish() (*fleet.Stats, error)          { return &fleet.Stats{}, nil }
