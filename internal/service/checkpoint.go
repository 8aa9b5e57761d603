package service

// Durable checkpointing: the on-disk image of a whole fleet, written by
// cmd/placementd periodically and on shutdown, consumed by -recover.
//
// A checkpoint is one file in the service wire codec (the same
// deterministic encoding the protocol uses, so a shard's snapshot bytes
// on disk are exactly its opSnapData bytes):
//
//	payload  = version:uvarint epoch:uvarint seq:uvarint
//	           shape:info
//	           nLanes:uvarint laneState*
//	           nShards:uvarint snapshot*
//	file     = payload sha256(payload)
//
// The manifest half (epoch, shape, lane states with their meters) makes
// recovery self-validating: -recover refuses a checkpoint whose shape
// differs from the daemon's configured fleet (ErrCheckpointShape), whose
// bytes fail the checksum or don't decode exactly (ErrBadCheckpoint), or
// whose epoch is stale (ErrStaleCheckpoint). Validation happens against
// a freshly built fleet that is discarded on error, so a refused
// checkpoint never leaves a partially restored daemon.
//
// The per-shard work runs in parallel on the fleet's Config.Workers
// goroutines (par.ForEach; 0 = GOMAXPROCS), and the bytes do not depend
// on the worker count:
//
//   - capture snapshots every shard of the quiescent fleet at once;
//   - encode sizes each snapshot exactly (snapshotSize), allocates one
//     buffer for the whole file, and encodes each snapshot straight
//     into its own sub-slice of it; the sha256 over the payload is
//     then written into the buffer's tail;
//   - Recover restores (validates and rebuilds) every shard at once on
//     the fresh fleet, reporting the lowest-index shard's error.
//
// A checkpoint therefore costs one file-sized buffer plus the captured
// snapshots, and nothing is kept between calls.
//
// Checkpoints are written with one Write to a temp file in the same
// directory, then renamed over the target, and only at batch barriers
// (the server holds every lane while capturing). A *process* crash at
// any instant leaves either the old or the new checkpoint, never a torn
// one, and a recovered fleet resumes byte-identically: canonical
// snapshots restore shard state, LaneState replays routing
// cursors/rngs/meters, and `make determinism` pins kill+recover+replay
// against the uninterrupted run. Nothing is fsynced, so this does not
// hold across power loss or an OS crash: the rename may reach the disk
// before the file's data does.

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"

	"strippack/internal/fleet"
	"strippack/internal/fpga"
	"strippack/internal/par"
)

// checkpointVersion is the on-disk format version.
const checkpointVersion = 1

// Typed recovery errors: every way a checkpoint can be refused maps to
// exactly one of these (wrapped with detail), so -recover's caller and
// the corruption table tests can dispatch on errors.Is.
var (
	// ErrBadCheckpoint marks a checkpoint file that is unreadable,
	// fails its checksum, does not decode exactly, or whose contents
	// fail semantic validation (snapshot or lane restore).
	ErrBadCheckpoint = errors.New("service: bad checkpoint")
	// ErrCheckpointShape marks a structurally valid checkpoint whose
	// fleet shape differs from the configured fleet.
	ErrCheckpointShape = errors.New("service: checkpoint shape mismatch")
	// ErrStaleCheckpoint marks a checkpoint whose epoch is below the
	// minimum the caller will accept (or zero, which no daemon writes).
	ErrStaleCheckpoint = errors.New("service: stale checkpoint")
)

// Checkpoint is the in-memory image of a checkpoint file: the run
// manifest (epoch, write sequence, fleet shape, per-tenant lane states
// with their cumulative meters) plus every shard's canonical snapshot.
type Checkpoint struct {
	Epoch uint64
	Seq   uint64
	Shape *Info
	Lanes []fleet.LaneState
	Snaps []*fpga.Snapshot

	// workers bounds EncodeCheckpoint's goroutines: the captured fleet's
	// Config.Workers, or 0 (GOMAXPROCS) for a decoded checkpoint.
	workers int
}

// CaptureCheckpoint snapshots a quiescent fleet into a Checkpoint,
// every shard in parallel. Requires exclusive access to the fleet (the
// server's Checkpoint method holds every lane while calling this).
func CaptureCheckpoint(f *fleet.Fleet, epoch, seq uint64) (*Checkpoint, error) {
	in, err := (Local{Fleet: f}).Info()
	if err != nil {
		return nil, err
	}
	ck := &Checkpoint{Epoch: epoch, Seq: seq, Shape: in.Shape(), workers: f.Config().Workers}
	ck.Lanes = make([]fleet.LaneState, f.Tenants())
	for ti := range ck.Lanes {
		if ck.Lanes[ti], err = f.LaneState(ti); err != nil {
			return nil, err
		}
	}
	ck.Snaps = make([]*fpga.Snapshot, f.Shards())
	err = par.ForEach(len(ck.Snaps), ck.workers, func(i int) error {
		var err error
		ck.Snaps[i], err = f.SnapshotShard(i)
		return err
	})
	if err != nil {
		return nil, err
	}
	return ck, nil
}

// EncodeCheckpoint returns the checkpoint file bytes: the codec payload
// followed by its sha256, in one exactly sized buffer. The snapshots are
// sized and then encoded in parallel, each into its own sub-slice.
func EncodeCheckpoint(ck *Checkpoint) []byte {
	var hdr enc
	hdr.uint(checkpointVersion)
	hdr.uint(ck.Epoch)
	hdr.uint(ck.Seq)
	hdr.info(ck.Shape)
	hdr.count(len(ck.Lanes))
	for i := range ck.Lanes {
		hdr.laneState(&ck.Lanes[i])
	}
	hdr.count(len(ck.Snaps))

	workers := ck.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// off[i] is where snapshot i starts; off[len] is the payload length.
	off := make([]int, len(ck.Snaps)+1)
	par.ForEach(len(ck.Snaps), workers, func(i int) error {
		off[i+1] = snapshotSize(ck.Snaps[i])
		return nil
	})
	off[0] = len(hdr.b)
	for i := range ck.Snaps {
		off[i+1] += off[i]
	}
	n := off[len(ck.Snaps)]
	b := make([]byte, n+sha256.Size)
	copy(b, hdr.b)
	par.ForEach(len(ck.Snaps), workers, func(i int) error {
		// The capacity cap makes a size mismatch show up as a length
		// mismatch instead of an overwrite of the next snapshot.
		e := enc{b: b[off[i]:off[i]:off[i+1]]}
		e.snapshot(ck.Snaps[i])
		if len(e.b) != off[i+1]-off[i] {
			panic(fmt.Sprintf("service: snapshot %d encodes to %d bytes, sized %d", i, len(e.b), off[i+1]-off[i]))
		}
		return nil
	})
	sum := sha256.Sum256(b[:n])
	copy(b[n:], sum[:])
	return b
}

// DecodeCheckpoint decodes EncodeCheckpoint's output, verifying the
// checksum and exact consumption. Structural only; Recover adds the
// semantic validation.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	if len(b) < sha256.Size {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the checksum", ErrBadCheckpoint, len(b))
	}
	payload, trailer := b[:len(b)-sha256.Size], b[len(b)-sha256.Size:]
	if sum := sha256.Sum256(payload); [sha256.Size]byte(trailer) != sum {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrBadCheckpoint)
	}
	d := &dec{b: payload}
	if v := d.uint(); d.err == nil && v != checkpointVersion {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrBadCheckpoint, v, checkpointVersion)
	}
	ck := &Checkpoint{}
	ck.Epoch = d.uint()
	ck.Seq = d.uint()
	ck.Shape = d.info()
	n := d.count(4)
	if n > 0 {
		ck.Lanes = make([]fleet.LaneState, n)
		for i := range ck.Lanes {
			ck.Lanes[i] = d.laneState()
		}
	}
	n = d.count(8)
	if n > 0 {
		ck.Snaps = make([]*fpga.Snapshot, n)
		for i := range ck.Snaps {
			ck.Snaps[i] = d.snapshot()
		}
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return ck, nil
}

// WriteCheckpoint writes the checkpoint file: encode, one Write to a
// temp file in the target directory, rename over the final path. A
// process crash mid-write leaves the previous checkpoint intact; there
// is no fsync, so power loss can (see the file comment).
func WriteCheckpoint(path string, ck *Checkpoint) error {
	b := EncodeCheckpoint(ck)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckpt-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// ReadCheckpoint reads and structurally decodes a checkpoint file.
func ReadCheckpoint(path string) (*Checkpoint, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	return DecodeCheckpoint(b)
}

// Recover reads the checkpoint at path, validates it against cfg, and
// returns a freshly built fleet with every shard and lane restored —
// the daemon's -recover path. minEpoch rejects checkpoints older than
// the caller will accept (pass 1 to accept any daemon-written one;
// epoch 0 is always stale — no daemon runs at epoch 0).
//
// All-or-nothing: every restore happens on the fresh fleet, which is
// only returned after the last one succeeds, so a refused checkpoint
// (any typed error above) cannot leave partial state anywhere. Shards
// are restored in parallel; when several fail, the lowest-index shard's
// error is reported, whatever the worker count.
func Recover(path string, cfg fleet.Config, minEpoch uint64) (*fleet.Fleet, *Checkpoint, error) {
	ck, err := ReadCheckpoint(path)
	if err != nil {
		return nil, nil, err
	}
	if minEpoch < 1 {
		minEpoch = 1
	}
	if ck.Epoch < minEpoch {
		return nil, nil, fmt.Errorf("%w: epoch %d, want >= %d", ErrStaleCheckpoint, ck.Epoch, minEpoch)
	}
	f, err := fleet.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	want, err := (Local{Fleet: f}).Info()
	if err != nil {
		return nil, nil, err
	}
	if !reflect.DeepEqual(ck.Shape, want.Shape()) {
		return nil, nil, fmt.Errorf("%w: checkpoint %+v, configured %+v", ErrCheckpointShape, ck.Shape, want.Shape())
	}
	if len(ck.Snaps) != f.Shards() {
		return nil, nil, fmt.Errorf("%w: %d snapshots for %d shards", ErrBadCheckpoint, len(ck.Snaps), f.Shards())
	}
	if len(ck.Lanes) != f.Tenants() {
		return nil, nil, fmt.Errorf("%w: %d lane states for %d tenants", ErrBadCheckpoint, len(ck.Lanes), f.Tenants())
	}
	err = par.ForEach(len(ck.Snaps), f.Config().Workers, func(i int) error {
		return f.RestoreShard(i, ck.Snaps[i])
	})
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	for ti, ls := range ck.Lanes {
		if err := f.RestoreLane(ti, ls); err != nil {
			return nil, nil, fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
		}
	}
	return f, ck, nil
}
