package fpga

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"strippack/internal/workload"
)

// TestIndexedHeapMatchesSorted drives the indexed heap with random
// set/decrease/remove/pop sequences over a small key alphabet (so ties are
// frequent) and checks every step against a flat reference: the pop order
// must be ascending (key, index) over the live set, and the position index
// must agree with the entry slots.
func TestIndexedHeapMatchesSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		var h indexedHeap
		ref := map[int]float64{} // live task index -> key
		n := 1 + rng.Intn(40)
		for step := 0; step < 300; step++ {
			idx := rng.Intn(n)
			switch op := rng.Intn(8); {
			case op < 3: // insert or move anywhere
				k := float64(rng.Intn(6))
				h.set(k, idx)
				ref[idx] = k
			case op < 5: // decrease an existing key (a compaction slide)
				if k, ok := ref[idx]; ok {
					k -= float64(rng.Intn(3))
					h.set(k, idx)
					ref[idx] = k
				}
			case op < 6:
				h.remove(idx)
				delete(ref, idx)
			default:
				if len(ref) == 0 {
					if h.len() != 0 {
						t.Fatalf("trial %d step %d: heap holds %d entries, reference none", trial, step, h.len())
					}
					continue
				}
				wantIdx := -1
				for i, k := range ref {
					if wantIdx < 0 || k < ref[wantIdx] || (k == ref[wantIdx] && i < wantIdx) {
						wantIdx = i
					}
				}
				k, i := h.pop()
				if i != wantIdx || k != ref[wantIdx] {
					t.Fatalf("trial %d step %d: pop (%g, %d), want (%g, %d)", trial, step, k, i, ref[wantIdx], wantIdx)
				}
				delete(ref, i)
			}
			checkHeap(t, &h, ref)
		}
		// Draining must yield the live set in ascending (key, index) order.
		want := make([]taskEvent, 0, len(ref))
		for i, k := range ref {
			want = append(want, taskEvent{k, int32(i)})
		}
		slices.SortFunc(want, func(a, b taskEvent) int {
			if a.less(b) {
				return -1
			}
			return 1
		})
		for _, w := range want {
			if k, i := h.pop(); k != w.key || i != int(w.idx) {
				t.Fatalf("trial %d drain: pop (%g, %d), want (%g, %d)", trial, k, i, w.key, w.idx)
			}
		}
		if h.len() != 0 {
			t.Fatalf("trial %d: %d entries left after drain", trial, h.len())
		}
	}
}

func checkHeap(t *testing.T, h *indexedHeap, ref map[int]float64) {
	t.Helper()
	if h.len() != len(ref) {
		t.Fatalf("heap holds %d entries, reference %d", h.len(), len(ref))
	}
	for i, e := range h.ents {
		if i > 0 && e.less(h.ents[(i-1)/2]) {
			t.Fatalf("heap order violated at slot %d", i)
		}
		if h.pos[e.idx] != int32(i) {
			t.Fatalf("task %d at slot %d but indexed at %d", e.idx, i, h.pos[e.idx])
		}
		if ref[int(e.idx)] != e.key {
			t.Fatalf("task %d keyed %g, reference %g", e.idx, e.key, ref[int(e.idx)])
		}
	}
	for i := range h.pos {
		if _, live := ref[i]; live != h.has(i) {
			t.Fatalf("has(%d) = %v, reference %v", i, h.has(i), live)
		}
	}
}

// driveChurnBatches feeds a churn trace to o in fixed-size batches, half
// the tasks with registered lifetimes, and after every other batch
// completes one running task manually ahead of (or instead of) its
// registered event. check runs after every batch and after the final
// drain. The drive is a pure function of its arguments.
func driveChurnBatches(t *testing.T, o *OnlineScheduler, seed int64, n, batch int, load float64, check func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tasks, err := workload.Churn(rng, n, o.device.Columns, load, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for base, step := 0, 0; base < n; base, step = base+batch, step+1 {
		specs := make([]TaskSpec, 0, batch)
		for i := base; i < min(base+batch, n); i++ {
			ct := tasks[i]
			sp := TaskSpec{ID: i, Cols: ct.Cols, Duration: ct.Duration, Release: ct.Release}
			if i%2 == 0 {
				sp.Actual = ct.Lifetime
			}
			specs = append(specs, sp)
		}
		if _, err := o.SubmitBatch(specs); err != nil {
			t.Fatalf("batch %d: %v", step, err)
		}
		if step%2 == 0 {
			completeOneRunning(t, o, rng)
		}
		check()
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	check()
}

// completeOneRunning completes a randomly chosen running task whose
// declared end lies ahead of the clock, at a random time inside its
// remaining occupancy.
func completeOneRunning(t *testing.T, o *OnlineScheduler, rng *rand.Rand) {
	t.Helper()
	s := o.Snapshot()
	var running []int
	for i, tk := range s.Tasks {
		if s.Started[i] && !s.Done[i] && tk.End() > s.Now+0.01 && tk.End() > tk.Start+0.01 {
			running = append(running, i)
		}
	}
	if len(running) == 0 {
		return
	}
	tk := s.Tasks[running[rng.Intn(len(running))]]
	lo := max(s.Now, tk.Start)
	at := lo + (tk.End()-lo)*(0.25+0.75*rng.Float64())
	if err := o.Complete(tk.ID, at); err != nil && !errors.Is(err, ErrAlreadyCompleted) {
		t.Fatalf("complete task %d at %g: %v", tk.ID, at, err)
	}
}

// driveShedSequential submits a churn trace one task at a time and checks,
// on every shed, that the victim is the lowest-index waiting task — the
// AdmitShed contract, computed here from the canonical snapshot rather
// than from the engine's FIFO. check runs after every submission.
func driveShedSequential(t *testing.T, o *OnlineScheduler, seed int64, n int, load float64, check func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tasks, err := workload.Churn(rng, n, o.device.Columns, load, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for id, ct := range tasks {
		before := o.Snapshot()
		oldest := -1
		for i := range before.Tasks {
			if !before.Started[i] && !before.Shed[i] {
				oldest = before.Tasks[i].ID
				break
			}
		}
		if _, err := o.SubmitWithLifetime(id, "", ct.Cols, ct.Duration, ct.Lifetime, ct.Release); err != nil && !errors.Is(err, ErrRejected) {
			t.Fatalf("submit %d: %v", id, err)
		}
		if shed := o.ShedIDs(); len(shed) > len(before.ShedIDs) && shed[len(shed)-1] != oldest {
			t.Fatalf("submit %d shed task %d, want oldest waiting task %d", id, shed[len(shed)-1], oldest)
		}
		check()
	}
	if err := o.Drain(); err != nil {
		t.Fatal(err)
	}
	check()
}

func snapshotSHA(t *testing.T, o *OnlineScheduler) string {
	t.Helper()
	sum := sha256.Sum256(snapJSON(t, o))
	return hex.EncodeToString(sum[:])
}

// checkQueues asserts that every event queue holds exactly its live
// entries, at their current keys, and that the shed FIFO's head is the
// oldest waiting task.
func checkQueues(t *testing.T, o *OnlineScheduler) {
	t.Helper()
	if got, want := o.startQ.len(), o.Load().Waiting; got != want {
		t.Fatalf("startQ holds %d entries, %d tasks wait", got, want)
	}
	if n := o.candQ.len(); n != 0 {
		t.Fatalf("candQ holds %d entries between passes", n)
	}
	delay := o.device.ReconfigDelay
	live := 0
	for i, tk := range o.tasks {
		waiting := !o.started[i] && !o.shed[i]
		if waiting != o.startQ.has(i) {
			t.Fatalf("task %d waiting=%v but startQ.has=%v", i, waiting, o.startQ.has(i))
		}
		// The start key is the pre-delay occupancy the placement computed,
		// so it matches Start-delay only up to rounding.
		if waiting {
			if k := o.startQ.ents[o.startQ.pos[i]].key; math.Abs(k-(tk.Start-delay)) > 1e-9 {
				t.Fatalf("task %d startQ key %g, want %g", i, k, tk.Start-delay)
			}
		}
		pending := !o.done[i] && !o.shed[i] && o.actual[i] == o.actual[i]
		if pending != o.compQ.has(i) {
			t.Fatalf("task %d completion pending=%v but compQ.has=%v", i, pending, o.compQ.has(i))
		}
		if pending {
			live++
			if k := o.compQ.ents[o.compQ.pos[i]].key; k != tk.Start+o.actual[i] {
				t.Fatalf("task %d compQ key %g, want %g", i, k, tk.Start+o.actual[i])
			}
		}
		if o.policy == ReclaimCompact && waiting != (o.firstNode[i] >= 0) {
			t.Fatalf("task %d waiting=%v but firstNode=%d", i, waiting, o.firstNode[i])
		}
	}
	if o.compQ.len() != live {
		t.Fatalf("compQ holds %d entries, %d completions pending", o.compQ.len(), live)
	}
	if o.admission.Policy == AdmitShed {
		if len(o.waitFIFO) > 0 && (o.started[o.waitFIFO[0]] || o.shed[o.waitFIFO[0]]) {
			t.Fatalf("waitFIFO head %d is not waiting", o.waitFIFO[0])
		}
		if o.waiting == 0 && len(o.waitFIFO) != 0 {
			t.Fatalf("no task waits but waitFIFO holds %d entries", len(o.waitFIFO))
		}
	}
}

// TestQueueInvariantsUnderChurn runs compaction, shedding and manual
// completions together and checks the queue invariants after every batch;
// the final snapshot must match the one recorded before the queues were
// indexed, so the rewrite changed no decision.
func TestQueueInvariantsUnderChurn(t *testing.T) {
	for _, tc := range []struct {
		load float64
		want string
	}{
		{0.7, "0ca023d639ea1f36fdab225610ab5b0bafdf9e83c6ae2889def922ce468169e2"},
		{0.95, "30c60d728329f3cd07d2d29e9e014861a41e2fae3ac2690bcf20703f01726a36"},
	} {
		d := &Device{Columns: 16, ReconfigDelay: 0.05}
		o, err := NewOnlineSchedulerAdmission(d, ReclaimCompact, AdmissionConfig{Policy: AdmitShed, MaxBacklog: 16})
		if err != nil {
			t.Fatal(err)
		}
		driveChurnBatches(t, o, 17, 3000, 8, tc.load, func() { checkQueues(t, o) })
		if got := snapshotSHA(t, o); got != tc.want {
			t.Errorf("load %g: final snapshot sha256 %s, want %s", tc.load, got, tc.want)
		}
	}
}

// TestWaitFIFOTrimmed checks that the shed FIFO drops promoted tasks as
// they leave the backlog instead of only when a shed happens — it is empty
// whenever no task waits — while the eviction order (every victim the
// oldest waiting task, ShedIDs, snapshot bytes) stays what it was.
func TestWaitFIFOTrimmed(t *testing.T) {
	for _, tc := range []struct {
		policy Policy
		load   float64
		want   string
	}{
		{NoReclaim, 0.5, "98f2d76e2388c424826af883c1d1912cf7ba30070c746f8bdf622d53212d92d1"},
		{NoReclaim, 0.95, "0d8ba31d80f922248434ebab78533d7aa5634c1bc40726ae349b7d8615e29897"},
		{Reclaim, 0.5, "c2b32d0c01fe348ae5005800746d445b02d46da7d224efe9663deabd1d810b4d"},
		{Reclaim, 0.95, "9c42d47cfe5606096cc12d2b446143e412c0c58cddcc84cb5a8d5502a42bceeb"},
		{ReclaimCompact, 0.5, "9b557bb139a93f55083710e76c8bba3ce2ae3510b4ba9c8d7b5649d308a242b5"},
		{ReclaimCompact, 0.95, "1954176e022ea1894e0739844a1aafc357ab0fcf14db0d157a94d9582021fb08"},
	} {
		o, err := NewOnlineSchedulerAdmission(&Device{Columns: 16}, tc.policy, AdmissionConfig{Policy: AdmitShed, MaxBacklog: 8})
		if err != nil {
			t.Fatal(err)
		}
		driveShedSequential(t, o, 23, 2000, tc.load, func() { checkQueues(t, o) })
		if len(o.waitFIFO) != 0 {
			t.Errorf("%v load %g: %d waitFIFO entries left after drain", tc.policy, tc.load, len(o.waitFIFO))
		}
		if got := snapshotSHA(t, o); got != tc.want {
			t.Errorf("%v load %g: final snapshot sha256 %s (%d shed), want %s", tc.policy, tc.load, got, len(o.ShedIDs()), tc.want)
		}
	}
}
