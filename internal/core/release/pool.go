package release

import (
	"encoding/binary"
	"math"
)

// This file implements the persistent configuration pool behind Solver: a
// per-width-set store of every configuration ever generated by a solve over
// that width set. A configuration is a multiset of widths fitting the strip,
// so it is feasible for *every* instance sharing the (strip width, distinct
// width set) pair — which is exactly what the pool is keyed by. Seeding a
// new solve's restricted master from the pool turns column generation into a
// cross-request engine: most warm solves converge in one or two pricing
// rounds, at the price of a larger master (see Solver for what that costs).

// poolKey canonicalizes the (strip width, distinct width set) pair a column
// pool is keyed by. Two instances share a key exactly when a configuration
// over one's widths is, index for index, a configuration over the other's
// (DistinctWidths returns the set sorted ascending, so the key is order-
// canonical for free).
func poolKey(strip float64, widths []float64) string {
	b := make([]byte, 0, 8*(1+len(widths)))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(strip))
	for _, w := range widths {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w))
	}
	return string(b)
}

// countsKey packs a configuration's multiplicity vector into the pool's
// dedup key, reusing buf.
func countsKey(buf []byte, counts []int) []byte {
	buf = buf[:0]
	for _, c := range counts {
		buf = binary.AppendUvarint(buf, uint64(c))
	}
	return buf
}

// configPool stores the configurations generated over one width set, deduped
// by packed multiplicity vector. Entries are append-only in insertion order,
// so a snapshot taken at solve start is an immutable prefix that later
// solves extend without invalidating it. All mutation happens under the
// owning Solver's mutex.
type configPool struct {
	configs []Config
	seen    map[string]struct{}
	keyBuf  []byte
}

func newConfigPool() *configPool {
	return &configPool{seen: make(map[string]struct{})}
}

// add inserts c when its multiplicity vector is new and reports whether it
// did. c.Counts is retained and shared read-only across future solves;
// callers must never mutate it afterwards.
func (p *configPool) add(c Config) bool {
	p.keyBuf = countsKey(p.keyBuf, c.Counts)
	if _, ok := p.seen[string(p.keyBuf)]; ok {
		return false
	}
	p.seen[string(p.keyBuf)] = struct{}{}
	p.configs = append(p.configs, c)
	return true
}

// snapshot returns the current entries with capacity clamped to length, so
// concurrent appends by later solves can never write through it.
func (p *configPool) snapshot() []Config {
	return p.configs[:len(p.configs):len(p.configs)]
}
