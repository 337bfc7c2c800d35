package monitord

import (
	"cmp"
	"encoding/binary"
	"net/netip"
	"slices"
	"sync"
	"time"

	"quicksand/internal/bgp"
)

// Route is one session's live path for a prefix.
type Route struct {
	Session int
	Path    []bgp.ASN
	Updated time.Time
}

// RIBEntry is the live state of one prefix: every session's current path.
// Snapshots returned by lookups are copies and safe to retain.
type RIBEntry struct {
	Prefix netip.Prefix
	Routes []Route // ascending session id
}

// Best returns the entry's best path under the collector's simple rule:
// shortest AS path, ties broken by lowest session id. ok is false when
// every session has withdrawn the prefix.
func (e *RIBEntry) Best() (Route, bool) {
	best := -1
	for i, r := range e.Routes {
		if len(r.Path) == 0 {
			continue
		}
		if best < 0 || len(r.Path) < len(e.Routes[best].Path) {
			best = i
		}
	}
	if best < 0 {
		return Route{}, false
	}
	return e.Routes[best], true
}

// liveRIB is the daemon's sharded routing table: prefix -> per-session
// path state. Each shard is one hash map keyed by the packed IPv4 prefix
// (ribKey) whose value holds the prefix's routes in ascending session
// order, so a re-announcement from a known session is one probe and an
// in-place overwrite. Each shard is guarded by its own RWMutex; the
// dispatcher routes every update for a prefix to the same shard, so
// writes per shard come from a single worker while HTTP lookups take
// read locks.
type liveRIB struct {
	shards []ribShard
}

type ribShard struct {
	mu     sync.RWMutex
	routes map[uint64][]Route // ribKey -> routes, ascending session, never empty
}

func newLiveRIB(shards int) *liveRIB {
	r := &liveRIB{shards: make([]ribShard, shards)}
	for i := range r.shards {
		r.shards[i].routes = make(map[uint64][]Route)
	}
	return r
}

// ribKey packs a masked IPv4 prefix as address<<8 | length. Ascending
// keys order prefixes by address, then shorter first. ok is false for
// anything but a valid IPv4 prefix.
func ribKey(p netip.Prefix) (key uint64, ok bool) {
	if !p.IsValid() || !p.Addr().Is4() {
		return 0, false
	}
	a := p.Masked().Addr().As4()
	return uint64(binary.BigEndian.Uint32(a[:]))<<8 | uint64(p.Bits()), true
}

// keyPrefix is the inverse of ribKey.
func keyPrefix(k uint64) netip.Prefix {
	var a [4]byte
	binary.BigEndian.PutUint32(a[:], uint32(k>>8))
	return netip.PrefixFrom(netip.AddrFrom4(a), int(k&0xFF))
}

// shardOf maps a prefix to its shard by FNV-1a over the masked address
// bytes and the prefix length.
func (r *liveRIB) shardOf(p netip.Prefix) int {
	a := p.Masked().Addr().As4()
	h := uint32(2166136261)
	for _, b := range a {
		h = (h ^ uint32(b)) * 16777619
	}
	h = (h ^ uint32(p.Bits())) * 16777619
	return int(h % uint32(len(r.shards)))
}

// apply folds one update into the RIB: an announcement replaces the
// session's path, a withdrawal (nil path) removes it, and a prefix whose
// last session withdraws leaves the table entirely. A non-nil empty path
// is a legal announcement (AS_PATH present with zero segments) and is
// stored, not treated as a withdrawal.
func (r *liveRIB) apply(t time.Time, session int, prefix netip.Prefix, path []bgp.ASN) {
	k, ok := ribKey(prefix)
	if !ok {
		return // non-IPv4 prefix; the decode layer never produces one
	}
	sh := &r.shards[r.shardOf(prefix)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	routes := sh.routes[k]
	i, found := slices.BinarySearchFunc(routes, session, func(rt Route, s int) int {
		return cmp.Compare(rt.Session, s)
	})
	if path == nil {
		if !found {
			return
		}
		if routes = slices.Delete(routes, i, i+1); len(routes) == 0 {
			delete(sh.routes, k)
		} else {
			sh.routes[k] = routes
		}
		return
	}
	rt := Route{Session: session, Path: path, Updated: t}
	if found {
		routes[i] = rt
		return
	}
	sh.routes[k] = slices.Insert(routes, i, rt)
}

// snapshotEntry deep-copies a shard's routes for p so the caller can
// retain it after the shard lock is released.
func snapshotEntry(p netip.Prefix, routes []Route) *RIBEntry {
	e := &RIBEntry{Prefix: p, Routes: make([]Route, len(routes))}
	for i, rt := range routes {
		e.Routes[i] = rt
		// append onto a non-nil base so an empty-AS_PATH announcement
		// stays distinguishable from a withdrawal in the snapshot.
		e.Routes[i].Path = append([]bgp.ASN{}, rt.Path...)
	}
	return e
}

// Lookup returns the live entry stored at exactly prefix p.
func (r *liveRIB) Lookup(p netip.Prefix) (*RIBEntry, bool) {
	k, ok := ribKey(p)
	if !ok {
		return nil, false
	}
	sh := &r.shards[r.shardOf(p)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	routes, ok := sh.routes[k]
	if !ok {
		return nil, false
	}
	return snapshotEntry(p.Masked(), routes), true
}

// LookupAddr returns the most specific live entry covering addr: one
// exact-prefix probe per length, /32 down to /0, each in the shard that
// owns that prefix.
func (r *liveRIB) LookupAddr(addr netip.Addr) (*RIBEntry, bool) {
	for bits := 32; bits >= 0; bits-- {
		if e, ok := r.Lookup(netip.PrefixFrom(addr, bits)); ok {
			return e, true
		}
	}
	return nil, false
}

// Size returns the number of prefixes with at least one live route.
func (r *liveRIB) Size() int {
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		n += len(sh.routes)
		sh.mu.RUnlock()
	}
	return n
}

// Walk visits a snapshot of every live entry, shard by shard; within a
// shard, by address and then shorter prefix first.
func (r *liveRIB) Walk(fn func(*RIBEntry) bool) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.RLock()
		keys := make([]uint64, 0, len(sh.routes))
		for k := range sh.routes {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		entries := make([]*RIBEntry, len(keys))
		for j, k := range keys {
			entries[j] = snapshotEntry(keyPrefix(k), sh.routes[k])
		}
		sh.mu.RUnlock()
		for _, e := range entries {
			if !fn(e) {
				return
			}
		}
	}
}
