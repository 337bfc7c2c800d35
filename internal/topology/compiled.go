package topology

import (
	"fmt"
	"math"
	"slices"

	"quicksand/internal/bgp"
)

// Compiled is an immutable snapshot of a Graph specialised for route
// computation: ASNs are interned to dense int32 ids (assigned in
// ascending ASN order, so comparing ids is comparing ASNs) and the three
// adjacency classes are stored in CSR form — one flat neighbor slice plus
// an offset slice per class. A snapshot is safe for concurrent use; the
// Graph invalidates it on mutation and recompiles cheaply (see
// Graph.Compiled).
type Compiled struct {
	version uint64
	asns    []bgp.ASN // id -> ASN, ascending
	idOf    map[bgp.ASN]int32

	custOff, peerOff, provOff []int32 // len(asns)+1 offsets into the rows
	cust, peer, prov          []int32 // neighbor ids, ascending per row
}

// Len returns the number of ASes in the snapshot.
func (c *Compiled) Len() int { return len(c.asns) }

// ASN returns the ASN interned at id i.
func (c *Compiled) ASN(i int) bgp.ASN { return c.asns[i] }

// ASNs returns the interned ASNs in id (= ascending ASN) order. The
// slice is the snapshot's own storage: callers must treat it as
// read-only. Bulk consumers (the resilience matrix, differential
// harnesses) iterate it instead of re-sorting Graph.ASNs per call.
func (c *Compiled) ASNs() []bgp.ASN { return c.asns }

// ID returns the dense id of asn, with ok=false when absent.
func (c *Compiled) ID(asn bgp.ASN) (int32, bool) {
	id, ok := c.idOf[asn]
	return id, ok
}

func (c *Compiled) customers(id int32) []int32 {
	return c.cust[c.custOff[id]:c.custOff[id+1]]
}
func (c *Compiled) peers(id int32) []int32 {
	return c.peer[c.peerOff[id]:c.peerOff[id+1]]
}
func (c *Compiled) providers(id int32) []int32 {
	return c.prov[c.provOff[id]:c.provOff[id+1]]
}

// rowsOf projects one adjacency class out of an AS node.
type rowsOf func(a *AS) []bgp.ASN

func buildCSR(g *Graph, asns []bgp.ASN, idOf map[bgp.ASN]int32, pick rowsOf) (off, adj []int32) {
	off = make([]int32, len(asns)+1)
	total := 0
	for i, asn := range asns {
		total += len(pick(g.ases[asn]))
		off[i+1] = int32(total)
	}
	adj = make([]int32, 0, total)
	for _, asn := range asns {
		// Per-AS adjacency is kept ASN-sorted and ids follow ASN order,
		// so the converted row is id-sorted too.
		for _, nb := range pick(g.ases[asn]) {
			adj = append(adj, idOf[nb])
		}
	}
	return off, adj
}

// compileFull builds a snapshot from scratch.
func compileFull(g *Graph) *Compiled {
	asns := g.ASNs()
	c := &Compiled{version: g.version, asns: asns, idOf: make(map[bgp.ASN]int32, len(asns))}
	for i, a := range asns {
		c.idOf[a] = int32(i)
	}
	c.custOff, c.cust = buildCSR(g, asns, c.idOf, func(a *AS) []bgp.ASN { return a.customers })
	c.peerOff, c.peer = buildCSR(g, asns, c.idOf, func(a *AS) []bgp.ASN { return a.peers })
	c.provOff, c.prov = buildCSR(g, asns, c.idOf, func(a *AS) []bgp.ASN { return a.providers })
	return c
}

// recompileDelta rebuilds only the rows of ASes marked dirty since old
// was compiled, reusing the interning and every clean row. Valid only
// while the AS set is unchanged (link mutations never add or remove
// ASes). Each run of clean rows between two dirty ids is copied with one
// append and its offsets shifted, so only the dirty rows are looked up in
// the graph.
func recompileDelta(g *Graph, old *Compiled) *Compiled {
	c := &Compiled{version: g.version, asns: old.asns, idOf: old.idOf}
	dirty := make([]int32, 0, len(g.dirty))
	for asn := range g.dirty {
		dirty = append(dirty, old.idOf[asn])
	}
	slices.Sort(dirty)
	rebuild := func(oldOff, oldAdj []int32, pick rowsOf) (off, adj []int32) {
		total := len(oldAdj)
		for _, d := range dirty {
			total += len(pick(g.ases[c.asns[d]])) - int(oldOff[d+1]-oldOff[d])
		}
		off = make([]int32, len(c.asns)+1)
		adj = make([]int32, 0, total)
		// copyClean appends the clean rows [from, to) and their shifted
		// offsets.
		copyClean := func(from, to int32) {
			shift := int32(len(adj)) - oldOff[from]
			adj = append(adj, oldAdj[oldOff[from]:oldOff[to]]...)
			for i := from + 1; i <= to; i++ {
				off[i] = oldOff[i] + shift
			}
		}
		next := int32(0) // first row not yet emitted
		for _, d := range dirty {
			copyClean(next, d)
			for _, nb := range pick(g.ases[c.asns[d]]) {
				adj = append(adj, c.idOf[nb])
			}
			off[d+1] = int32(len(adj))
			next = d + 1
		}
		copyClean(next, int32(len(c.asns)))
		return off, adj
	}
	c.custOff, c.cust = rebuild(old.custOff, old.cust, func(a *AS) []bgp.ASN { return a.customers })
	c.peerOff, c.peer = rebuild(old.peerOff, old.peer, func(a *AS) []bgp.ASN { return a.peers })
	c.provOff, c.prov = rebuild(old.provOff, old.prov, func(a *AS) []bgp.ASN { return a.providers })
	return c
}

// Compiled returns a route-engine snapshot of the current graph,
// recompiling lazily when mutations occurred since the last call. Link
// mutations (AddLink/AddPeering/RemoveLink on existing ASes) recompile
// only the touched rows; growing the AS set forces a full compile. The
// returned snapshot is shared — callers must not retain it across graph
// mutations if they need fresh adjacency, but an old snapshot stays
// internally consistent.
func (g *Graph) Compiled() *Compiled {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c := g.compiled; c != nil && c.version == g.version {
		return c
	}
	if g.compiled != nil && !g.asAdded {
		g.compiled = recompileDelta(g, g.compiled)
	} else {
		g.compiled = compileFull(g)
	}
	g.dirty = nil
	g.asAdded = false
	return g.compiled
}

// Version returns the graph's mutation counter. Snapshots and caches tag
// themselves with it to detect staleness.
func (g *Graph) Version() uint64 { return g.version }

// Scratch holds the reusable working memory of ComputeRoutesInto so a
// caller computing many tables (one per churn event, one per trial)
// allocates nothing after the first call. The zero value is ready to
// use. A Scratch must not be used concurrently.
type Scratch struct {
	origIDs        []int32
	frontier, next []int32

	// Per-id phase-1 candidate state, epoch-stamped so rounds reset in
	// O(1) instead of clearing arrays.
	candSeen []uint32
	candNext []int32
	candOrig []bgp.ASN
	epoch    uint32

	// Phase-2 buffered peer adoptions.
	peerIDs    []int32
	peerRoutes []Route

	// Phase-3 shortest-first queue: one bucket of ids per path length,
	// replacing container/heap. Buckets keep their capacity across runs.
	buckets [][]int32
	used    int // buckets touched by the previous run
}

func (s *Scratch) reset(n int) {
	if cap(s.frontier) < n {
		s.frontier = make([]int32, 0, n)
		s.next = make([]int32, 0, n)
	}
	s.frontier, s.next = s.frontier[:0], s.next[:0]
	if len(s.candSeen) < n {
		s.candSeen = make([]uint32, n)
		s.candNext = make([]int32, n)
		s.candOrig = make([]bgp.ASN, n)
		s.epoch = 0
	}
	if s.epoch >= math.MaxUint32-1 {
		clear(s.candSeen)
		s.epoch = 0
	}
	s.peerIDs, s.peerRoutes = s.peerIDs[:0], s.peerRoutes[:0]
	for i := 0; i < s.used && i < len(s.buckets); i++ {
		s.buckets[i] = s.buckets[i][:0]
	}
	s.used = 0
}

// bucket returns the queue bucket for path length l, growing the bucket
// list as needed.
func (s *Scratch) bucket(l int) *[]int32 {
	for len(s.buckets) <= l {
		s.buckets = append(s.buckets, nil)
	}
	if l+1 > s.used {
		s.used = l + 1
	}
	return &s.buckets[l]
}

// CompiledRoutes is an array-backed route table over a Compiled
// snapshot: routes[id] is the best route of the AS interned at id, with
// Type RouteNone for unrouted ASes. It is the allocation-lean
// counterpart of RouteTable and converts back via Table.
type CompiledRoutes struct {
	c      *Compiled
	routes []Route
}

// Len returns the number of ASes covered (routed or not).
func (r *CompiledRoutes) Len() int { return len(r.routes) }

// ASN returns the ASN interned at id i.
func (r *CompiledRoutes) ASN(i int) bgp.ASN { return r.c.asns[i] }

// At returns the route of the AS interned at id i; Type is RouteNone
// when it has no route.
func (r *CompiledRoutes) At(i int) Route { return r.routes[i] }

// Route returns asn's best route, with ok=false when asn is unknown or
// unrouted — exactly the two-value map access on the legacy RouteTable.
func (r *CompiledRoutes) Route(asn bgp.ASN) (Route, bool) {
	id, ok := r.c.idOf[asn]
	if !ok || r.routes[id].Type == RouteNone {
		return Route{}, false
	}
	return r.routes[id], true
}

// PathFrom reconstructs the AS path from src to its origin, inclusive on
// both ends, mirroring RouteTable.PathFrom.
func (r *CompiledRoutes) PathFrom(src bgp.ASN) (path []bgp.ASN, ok bool) {
	id, ok := r.c.idOf[src]
	if !ok || r.routes[id].Type == RouteNone {
		return nil, false
	}
	path = append(path, src)
	cur := id
	for r.routes[cur].Type != RouteOrigin {
		nh := r.routes[cur].NextHop
		path = append(path, nh)
		nid, ok := r.c.idOf[nh]
		if !ok || r.routes[nid].Type == RouteNone {
			return nil, false // inconsistent table; should not happen
		}
		cur = nid
		if len(path) > len(r.routes)+1 {
			return nil, false // cycle guard
		}
	}
	return path, true
}

// ASPathFrom is PathFrom rendered as a bgp.ASPath.
func (r *CompiledRoutes) ASPathFrom(src bgp.ASN) (bgp.ASPath, bool) {
	p, ok := r.PathFrom(src)
	if !ok {
		return bgp.ASPath{}, false
	}
	return bgp.Sequence(p...), true
}

// Table converts to the legacy map representation (unrouted ASes
// absent).
func (r *CompiledRoutes) Table() RouteTable {
	rt := make(RouteTable, len(r.routes))
	for i := range r.routes {
		if r.routes[i].Type != RouteNone {
			rt[r.c.asns[i]] = r.routes[i]
		}
	}
	return rt
}

// Routes computes a fresh table on the snapshot; a convenience wrapper
// over ComputeRoutesInto for callers without buffers to reuse.
func (c *Compiled) Routes(s *Scratch, filter ImportFilter, origins ...Origin) (*CompiledRoutes, error) {
	if s == nil {
		s = &Scratch{}
	}
	routes, err := c.ComputeRoutesInto(nil, s, filter, origins...)
	if err != nil {
		return nil, err
	}
	return &CompiledRoutes{c: c, routes: routes}, nil
}

// ComputeRoutesInto is the compiled counterpart of
// Graph.ComputeRoutesFiltered: it fills dst (grown as needed) with every
// AS's best policy-compliant route toward the given origins and returns
// it. The decision process, export rules, and every deterministic
// tiebreak match the legacy implementation bit for bit; ids are
// ASN-ordered, so id comparisons reproduce the lowest-next-hop-ASN rule.
//
// No id list is ever sorted, because the result does not depend on the
// processing order within a phase-1 round or a phase-3 bucket:
//   - Phase 1 keeps, per provider, the minimum (next hop, origin) over
//     the round's offers, and writes dst only after the round, so every
//     offer in a round sees the same settled state.
//   - Phase 3 processes buckets in length order. A provider route of
//     length l+1 is set only while bucket l is processed, and is then
//     overwritten only by a lower next-hop ASN at the same length; each
//     id enters its bucket once, when it first gets a route. So every
//     entry of bucket l is final before bucket l is read, no entry goes
//     stale, and each customer ends with the lowest next hop among its
//     length-l providers whatever their order.
func (c *Compiled) ComputeRoutesInto(dst []Route, s *Scratch, filter ImportFilter, origins ...Origin) ([]Route, error) {
	if len(origins) == 0 {
		return dst, fmt.Errorf("topology: no origins")
	}
	n := len(c.asns)
	origIDs := s.origIDs[:0]
	scoped := false
	for _, o := range origins {
		id, ok := c.idOf[o.ASN]
		if !ok {
			return dst, fmt.Errorf("topology: origin %v not in graph", o.ASN)
		}
		if slices.Contains(origIDs, id) {
			return dst, fmt.Errorf("topology: duplicate origin %v", o.ASN)
		}
		origIDs = append(origIDs, id)
		if len(o.WithholdFrom) > 0 || len(o.AnnounceOnly) > 0 {
			scoped = true
		}
	}
	s.origIDs = origIDs

	if cap(dst) < n {
		dst = make([]Route, n)
	} else {
		dst = dst[:n]
		clear(dst)
	}
	s.reset(n)

	// exports reports whether the AS at id u announces its route to
	// neighbor "to"; only origins ever scope their announcements.
	exports := func(u int32, to bgp.ASN) bool {
		for i, oid := range origIDs {
			if oid == u {
				return origins[i].announces(to)
			}
		}
		return true
	}

	// Phase 1 — customer routes, propagated upward in rounds of
	// increasing path length. The per-round candidate map becomes three
	// epoch-stamped arrays; the minimum by (next-hop, origin) is taken
	// in id space, which equals ASN space by construction.
	for _, id := range origIDs {
		dst[id] = Route{Type: RouteOrigin, Origin: c.asns[id]}
	}
	s.frontier = append(s.frontier, origIDs...)
	for length := 1; len(s.frontier) > 0; length++ {
		s.epoch++
		s.next = s.next[:0]
		for _, u := range s.frontier {
			ru := &dst[u]
			if ru.Type != RouteOrigin && ru.Type != RouteCustomer {
				continue
			}
			for _, p := range c.providers(u) {
				if dst[p].Type != RouteNone {
					continue // settled in an earlier round
				}
				if scoped && !exports(u, c.asns[p]) {
					continue
				}
				if filter != nil && !filter(c.asns[p], ru.Origin) {
					continue
				}
				if s.candSeen[p] != s.epoch {
					s.candSeen[p] = s.epoch
					s.candNext[p], s.candOrig[p] = u, ru.Origin
					s.next = append(s.next, p)
				} else if u < s.candNext[p] || (u == s.candNext[p] && ru.Origin < s.candOrig[p]) {
					s.candNext[p], s.candOrig[p] = u, ru.Origin
				}
			}
		}
		for _, p := range s.next {
			dst[p] = Route{Type: RouteCustomer, NextHop: c.asns[s.candNext[p]], PathLen: length, Origin: s.candOrig[p]}
		}
		s.frontier, s.next = s.next, s.frontier
	}

	// Phase 2 — single-hop peer routes for unsettled ASes, buffered so
	// peer routes never chain off each other.
	s.peerIDs, s.peerRoutes = s.peerIDs[:0], s.peerRoutes[:0]
	for id := int32(0); id < int32(n); id++ {
		if dst[id].Type != RouteNone {
			continue
		}
		best := Route{Type: RouteNone}
		for _, p := range c.peers(id) {
			rp := &dst[p]
			if rp.Type != RouteCustomer && rp.Type != RouteOrigin {
				continue
			}
			if scoped && !exports(p, c.asns[id]) {
				continue
			}
			if filter != nil && !filter(c.asns[id], rp.Origin) {
				continue
			}
			r := Route{Type: RoutePeer, NextHop: c.asns[p], PathLen: rp.PathLen + 1, Origin: rp.Origin}
			if best.Type == RouteNone || r.PathLen < best.PathLen ||
				(r.PathLen == best.PathLen && r.NextHop < best.NextHop) {
				best = r
			}
		}
		if best.Type != RouteNone {
			s.peerIDs = append(s.peerIDs, id)
			s.peerRoutes = append(s.peerRoutes, best)
		}
	}
	for i, id := range s.peerIDs {
		dst[id] = s.peerRoutes[i]
	}

	// Phase 3 — provider routes, shortest-first. Every routed AS enters
	// the bucket of its path length; buckets are processed in length
	// order (see the doc comment for why order within one is free).
	for id := int32(0); id < int32(n); id++ {
		if dst[id].Type != RouteNone {
			b := s.bucket(dst[id].PathLen)
			*b = append(*b, id)
		}
	}
	for l := 0; l < s.used; l++ {
		for _, u := range s.buckets[l] {
			ru := dst[u]
			nl := l + 1
			for _, ch := range c.customers(u) {
				if scoped && !exports(u, c.asns[ch]) {
					continue
				}
				if filter != nil && !filter(c.asns[ch], ru.Origin) {
					continue
				}
				rc := &dst[ch]
				if rc.Type != RouteNone && (rc.Type != RouteProvider || rc.PathLen < nl ||
					(rc.PathLen == nl && rc.NextHop <= c.asns[u])) {
					continue
				}
				wasNone := rc.Type == RouteNone
				*rc = Route{Type: RouteProvider, NextHop: c.asns[u], PathLen: nl, Origin: ru.Origin}
				if wasNone {
					b := s.bucket(nl)
					*b = append(*b, ch)
				}
			}
		}
	}
	return dst, nil
}
