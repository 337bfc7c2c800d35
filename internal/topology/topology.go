// Package topology models the AS-level Internet: a graph of autonomous
// systems annotated with Gao-Rexford business relationships
// (customer-provider and peer-peer), plus policy-compliant interdomain
// route computation.
//
// Route computation follows the standard model used by the AS-path
// simulators the paper builds on (Gao 2001): routes must be valley-free,
// ASes prefer customer routes over peer routes over provider routes, then
// shorter AS paths, then the lowest next-hop ASN as a deterministic
// tiebreak. Multiple simultaneous origins for the same prefix are
// supported, which is exactly the configuration of a prefix hijack: the
// legitimate origin and the attacker both claim the prefix and every other
// AS picks a side according to policy.
package topology

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"

	"quicksand/internal/bgp"
)

// Rel is the business relationship of a neighbor, from the point of view
// of the AS holding the adjacency.
type Rel int

const (
	// RelCustomer marks a neighbor that pays us for transit.
	RelCustomer Rel = iota
	// RelPeer marks a settlement-free peer.
	RelPeer
	// RelProvider marks a neighbor we pay for transit.
	RelProvider
)

// String returns the lower-case relationship name.
func (r Rel) String() string {
	switch r {
	case RelCustomer:
		return "customer"
	case RelPeer:
		return "peer"
	case RelProvider:
		return "provider"
	}
	return fmt.Sprintf("Rel(%d)", int(r))
}

// AS is one autonomous system in the graph.
type AS struct {
	ASN bgp.ASN
	// Tier records the generator's placement (1 = clique core,
	// 2 = regional, 3 = stub); it is advisory and not used by routing.
	Tier int

	customers []bgp.ASN
	peers     []bgp.ASN
	providers []bgp.ASN
}

// Customers returns the ASNs of the customers of a (sorted).
func (a *AS) Customers() []bgp.ASN { return a.customers }

// Peers returns the ASNs of the peers of a (sorted).
func (a *AS) Peers() []bgp.ASN { return a.peers }

// Providers returns the ASNs of the providers of a (sorted).
func (a *AS) Providers() []bgp.ASN { return a.providers }

// Degree returns the total number of adjacencies.
func (a *AS) Degree() int { return len(a.customers) + len(a.peers) + len(a.providers) }

// Graph is an AS-level topology. The zero value is empty; use AddAS and
// AddLink to build it, or Generate for a synthetic Internet.
//
// A Graph is safe for concurrent reads (including Compiled, Routes, and
// RouteCache lookups); mutations must not race with reads or each other.
type Graph struct {
	ases map[bgp.ASN]*AS

	// version counts structural mutations; compiled snapshots and route
	// caches tag themselves with it to detect staleness.
	version uint64
	// dirty collects ASes whose adjacency changed since the last
	// compile, bounding the delta recompile; asAdded flags growth of the
	// AS set itself, which forces a full compile.
	dirty   map[bgp.ASN]bool
	asAdded bool

	mu       sync.Mutex // serialises lazy compilation across readers
	compiled *Compiled
}

// noteMutation records a structural change touching the given ASes.
// Before the first compile, or once an AS was added, the next compile is
// a full one that never reads dirty, so only the version moves.
func (g *Graph) noteMutation(asns ...bgp.ASN) {
	g.version++
	if g.compiled == nil || g.asAdded {
		return
	}
	if g.dirty == nil {
		g.dirty = make(map[bgp.ASN]bool)
	}
	for _, a := range asns {
		g.dirty[a] = true
	}
}

// NewGraph returns an empty topology.
func NewGraph() *Graph { return &Graph{ases: make(map[bgp.ASN]*AS)} }

// AddAS inserts an AS with the given number, returning it. Adding an
// existing ASN returns the existing node.
func (g *Graph) AddAS(asn bgp.ASN) *AS {
	if a, ok := g.ases[asn]; ok {
		return a
	}
	a := &AS{ASN: asn}
	g.ases[asn] = a
	g.version++
	g.asAdded = true
	return a
}

// AS returns the node for asn, or nil.
func (g *Graph) AS(asn bgp.ASN) *AS { return g.ases[asn] }

// Len returns the number of ASes.
func (g *Graph) Len() int { return len(g.ases) }

// ASNs returns every ASN in ascending order.
func (g *Graph) ASNs() []bgp.ASN {
	out := make([]bgp.ASN, 0, len(g.ases))
	for a := range g.ases {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func insertSorted(s []bgp.ASN, v bgp.ASN) []bgp.ASN {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []bgp.ASN, v bgp.ASN) ([]bgp.ASN, bool) {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i == len(s) || s[i] != v {
		return s, false
	}
	return append(s[:i], s[i+1:]...), true
}

func containsSorted(s []bgp.ASN, v bgp.ASN) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}

// AddLink records that customer buys transit from provider (a
// customer-provider edge), creating the ASes if needed. It is an error if
// the pair already has any relationship.
func (g *Graph) AddLink(provider, customer bgp.ASN) error {
	if provider == customer {
		return fmt.Errorf("topology: self link at %v", provider)
	}
	if _, ok := g.RelBetween(provider, customer); ok {
		return fmt.Errorf("topology: %v and %v already linked", provider, customer)
	}
	p := g.AddAS(provider)
	c := g.AddAS(customer)
	p.customers = insertSorted(p.customers, customer)
	c.providers = insertSorted(c.providers, provider)
	g.noteMutation(provider, customer)
	return nil
}

// AddPeering records a settlement-free peering between a and b, creating
// the ASes if needed. It is an error if the pair already has any
// relationship.
func (g *Graph) AddPeering(a, b bgp.ASN) error {
	if a == b {
		return fmt.Errorf("topology: self peering at %v", a)
	}
	if _, ok := g.RelBetween(a, b); ok {
		return fmt.Errorf("topology: %v and %v already linked", a, b)
	}
	na := g.AddAS(a)
	nb := g.AddAS(b)
	na.peers = insertSorted(na.peers, b)
	nb.peers = insertSorted(nb.peers, a)
	g.noteMutation(a, b)
	return nil
}

// RemoveLink deletes whatever relationship exists between a and b,
// reporting whether one was removed. Simulated link failures use this.
func (g *Graph) RemoveLink(a, b bgp.ASN) bool {
	na, nb := g.ases[a], g.ases[b]
	if na == nil || nb == nil {
		return false
	}
	removed := false
	if s, ok := removeSorted(na.customers, b); ok {
		na.customers = s
		nb.providers, _ = removeSorted(nb.providers, a)
		removed = true
	}
	if s, ok := removeSorted(na.providers, b); ok {
		na.providers = s
		nb.customers, _ = removeSorted(nb.customers, a)
		removed = true
	}
	if s, ok := removeSorted(na.peers, b); ok {
		na.peers = s
		nb.peers, _ = removeSorted(nb.peers, a)
		removed = true
	}
	if removed {
		g.noteMutation(a, b)
	}
	return removed
}

// RelBetween returns the relationship of b as seen from a (RelCustomer
// means b is a's customer), with ok=false when the ASes are not adjacent.
func (g *Graph) RelBetween(a, b bgp.ASN) (Rel, bool) {
	na := g.ases[a]
	if na == nil {
		return 0, false
	}
	switch {
	case containsSorted(na.customers, b):
		return RelCustomer, true
	case containsSorted(na.peers, b):
		return RelPeer, true
	case containsSorted(na.providers, b):
		return RelProvider, true
	}
	return 0, false
}

// Neighbors returns every AS adjacent to asn, in ascending order.
func (g *Graph) Neighbors(asn bgp.ASN) []bgp.ASN {
	a := g.ases[asn]
	if a == nil {
		return nil
	}
	out := make([]bgp.ASN, 0, a.Degree())
	out = append(out, a.customers...)
	out = append(out, a.peers...)
	out = append(out, a.providers...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a deep copy of the graph. The simulator clones before
// applying failures so the pristine topology survives.
func (g *Graph) Clone() *Graph {
	out := NewGraph()
	for asn, a := range g.ases {
		n := out.AddAS(asn)
		n.Tier = a.Tier
		n.customers = append([]bgp.ASN(nil), a.customers...)
		n.peers = append([]bgp.ASN(nil), a.peers...)
		n.providers = append([]bgp.ASN(nil), a.providers...)
	}
	return out
}

// RouteType classifies how an AS learned its best route, in decreasing
// order of preference.
type RouteType int

const (
	// RouteNone means the AS has no policy-compliant route.
	RouteNone RouteType = iota
	// RouteOrigin means the AS originates the prefix itself.
	RouteOrigin
	// RouteCustomer means the best route was learned from a customer.
	RouteCustomer
	// RoutePeer means the best route was learned from a peer.
	RoutePeer
	// RouteProvider means the best route was learned from a provider.
	RouteProvider
)

// String returns the route-type name.
func (t RouteType) String() string {
	switch t {
	case RouteNone:
		return "none"
	case RouteOrigin:
		return "origin"
	case RouteCustomer:
		return "customer"
	case RoutePeer:
		return "peer"
	case RouteProvider:
		return "provider"
	}
	return fmt.Sprintf("RouteType(%d)", int(t))
}

// Route is one AS's best route toward the computed destination.
type Route struct {
	Type    RouteType
	PathLen int     // number of AS hops to the origin (0 at the origin)
	NextHop bgp.ASN // meaningless for RouteOrigin
	Origin  bgp.ASN // which origin this AS ends up routing to
}

// RouteTable maps each AS to its best route for one destination prefix.
// ASes with no route are absent.
type RouteTable map[bgp.ASN]Route

// Origin describes one AS originating the destination prefix. WithholdFrom
// suppresses the origin's announcement to specific direct neighbors (used
// by interception attacks to keep a clean path back to the victim);
// AnnounceOnly, when non-empty, restricts the announcement to exactly
// those neighbors (used by community-scoped stealth hijacks).
type Origin struct {
	ASN          bgp.ASN
	WithholdFrom map[bgp.ASN]bool
	AnnounceOnly map[bgp.ASN]bool
}

// announces reports whether the origin exports the prefix to neighbor n.
func (o Origin) announces(n bgp.ASN) bool {
	if o.WithholdFrom[n] {
		return false
	}
	if len(o.AnnounceOnly) > 0 {
		return o.AnnounceOnly[n]
	}
	return true
}

// ImportFilter lets an AS reject routes by origin before the decision
// process — the hook through which route-origin validation (RPKI/ROV) is
// modelled: a validating AS refuses announcements whose origin does not
// match the prefix's ROA. Returning false means "at" drops routes toward
// "origin" (and therefore never propagates them either).
type ImportFilter func(at, origin bgp.ASN) bool

// ComputeRoutes computes every AS's best policy-compliant route to a
// prefix originated by the given origins, applying the Gao-Rexford export
// rules and the BGP decision process (customer > peer > provider, then
// shortest AS path, then lowest next-hop ASN). The result is a stable
// routing outcome — the unique one under these preferences.
func (g *Graph) ComputeRoutes(origins ...Origin) (RouteTable, error) {
	return g.ComputeRoutesFiltered(nil, origins...)
}

// ComputeRoutesFiltered is ComputeRoutes with a per-AS import filter
// (nil means accept everything).
func (g *Graph) ComputeRoutesFiltered(filter ImportFilter, origins ...Origin) (RouteTable, error) {
	if len(origins) == 0 {
		return nil, fmt.Errorf("topology: no origins")
	}
	originSpec := make(map[bgp.ASN]Origin, len(origins))
	for _, o := range origins {
		if g.ases[o.ASN] == nil {
			return nil, fmt.Errorf("topology: origin %v not in graph", o.ASN)
		}
		if _, dup := originSpec[o.ASN]; dup {
			return nil, fmt.Errorf("topology: duplicate origin %v", o.ASN)
		}
		originSpec[o.ASN] = o
	}

	rt := make(RouteTable, len(g.ases))
	for asn := range originSpec {
		rt[asn] = Route{Type: RouteOrigin, Origin: asn}
	}

	// exports reports whether 'from' announces its current route to
	// neighbor 'to'; origins apply their announcement scoping.
	exports := func(from, to bgp.ASN) bool {
		if o, isOrigin := originSpec[from]; isOrigin {
			return o.announces(to)
		}
		return true
	}
	// accepts reports whether 'at' imports routes toward 'origin'.
	accepts := func(at, origin bgp.ASN) bool {
		return filter == nil || filter(at, origin)
	}

	// Phase 1 — customer routes. Propagate upward from the origins along
	// customer→provider edges in rounds of increasing path length. An AS
	// reached here gets a customer route (or keeps its origin route).
	type cand struct {
		nextHop bgp.ASN
		origin  bgp.ASN
	}
	better := func(a, b cand) bool {
		if a.nextHop != b.nextHop {
			return a.nextHop < b.nextHop
		}
		return a.origin < b.origin
	}

	frontier := make([]bgp.ASN, 0, len(originSpec))
	for asn := range originSpec {
		frontier = append(frontier, asn)
	}
	sort.Slice(frontier, func(i, j int) bool { return frontier[i] < frontier[j] })
	for length := 1; len(frontier) > 0; length++ {
		cands := make(map[bgp.ASN]cand)
		for _, u := range frontier {
			ru := rt[u]
			// Customer (and origin) routes are exported to providers.
			if ru.Type != RouteOrigin && ru.Type != RouteCustomer {
				continue
			}
			for _, p := range g.ases[u].providers {
				if !exports(u, p) {
					continue
				}
				if !accepts(p, ru.Origin) {
					continue
				}
				if _, settled := rt[p]; settled {
					continue
				}
				c := cand{nextHop: u, origin: ru.Origin}
				if prev, ok := cands[p]; !ok || better(c, prev) {
					cands[p] = c
				}
			}
		}
		next := make([]bgp.ASN, 0, len(cands))
		for p, c := range cands {
			rt[p] = Route{Type: RouteCustomer, NextHop: c.nextHop, PathLen: length, Origin: c.origin}
			next = append(next, p)
		}
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		frontier = next
	}

	// Phase 2 — peer routes. An AS without a customer/origin route takes
	// the best single-peer-hop route to a neighbor holding a
	// customer/origin route. Peer routes are not re-exported to peers.
	type peerRoute struct {
		r  Route
		to bgp.ASN
	}
	peerAdds := make([]peerRoute, 0)
	for asn, a := range g.ases {
		if _, settled := rt[asn]; settled {
			continue
		}
		best := Route{Type: RouteNone}
		for _, p := range a.peers {
			rp, ok := rt[p]
			if !ok || (rp.Type != RouteCustomer && rp.Type != RouteOrigin) {
				continue
			}
			if !exports(p, asn) {
				continue
			}
			if !accepts(asn, rp.Origin) {
				continue
			}
			r := Route{Type: RoutePeer, NextHop: p, PathLen: rp.PathLen + 1, Origin: rp.Origin}
			if best.Type == RouteNone || r.PathLen < best.PathLen ||
				(r.PathLen == best.PathLen && r.NextHop < best.NextHop) {
				best = r
			}
		}
		if best.Type != RouteNone {
			peerAdds = append(peerAdds, peerRoute{best, asn})
		}
	}
	for _, pa := range peerAdds {
		rt[pa.to] = pa.r
	}

	// Phase 3 — provider routes. Any routed AS exports to its customers;
	// unrouted customers adopt, preferring shorter paths. Sources enter a
	// priority queue at their current path length so mixed-length
	// frontiers settle shortest-first.
	pq := &routeHeap{}
	heap.Init(pq)
	for asn, r := range rt {
		heap.Push(pq, heapItem{pathLen: r.PathLen, asn: asn})
	}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(heapItem)
		u := it.asn
		ru := rt[u]
		if ru.PathLen != it.pathLen {
			continue // stale entry
		}
		for _, c := range g.ases[u].customers {
			if !exports(u, c) {
				continue
			}
			if !accepts(c, ru.Origin) {
				continue
			}
			rc, settled := rt[c]
			nl := ru.PathLen + 1
			if settled && (rc.Type != RouteProvider || rc.PathLen < nl ||
				(rc.PathLen == nl && rc.NextHop <= u)) {
				continue
			}
			rt[c] = Route{Type: RouteProvider, NextHop: u, PathLen: nl, Origin: ru.Origin}
			heap.Push(pq, heapItem{pathLen: nl, asn: c})
		}
	}
	return rt, nil
}

type heapItem struct {
	pathLen int
	asn     bgp.ASN
}

type routeHeap []heapItem

func (h routeHeap) Len() int { return len(h) }
func (h routeHeap) Less(i, j int) bool {
	if h[i].pathLen != h[j].pathLen {
		return h[i].pathLen < h[j].pathLen
	}
	return h[i].asn < h[j].asn
}
func (h routeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *routeHeap) Push(x any)   { *h = append(*h, x.(heapItem)) }
func (h *routeHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// PathFrom reconstructs the AS path from src to its origin according to
// rt, inclusive on both ends. ok is false when src has no route. The
// returned path always starts with src and ends with the origin AS.
func (rt RouteTable) PathFrom(src bgp.ASN) (path []bgp.ASN, ok bool) {
	r, ok := rt[src]
	if !ok {
		return nil, false
	}
	path = append(path, src)
	cur := src
	for r.Type != RouteOrigin {
		cur = r.NextHop
		path = append(path, cur)
		r, ok = rt[cur]
		if !ok {
			return nil, false // inconsistent table; should not happen
		}
		if len(path) > len(rt)+1 {
			return nil, false // cycle guard
		}
	}
	return path, true
}

// ASPathFrom is PathFrom rendered as a bgp.ASPath (src first, origin
// last), matching what src's BGP neighbors upstream would see minus their
// own prepending.
func (rt RouteTable) ASPathFrom(src bgp.ASN) (bgp.ASPath, bool) {
	p, ok := rt.PathFrom(src)
	if !ok {
		return bgp.ASPath{}, false
	}
	return bgp.Sequence(p...), true
}

// ValleyFree reports whether the hop sequence path (src..origin) is
// valley-free in g: once the path goes down (provider→customer) or
// across a peering link, it can never go up or across again. The paper's
// routing model guarantees this for every computed path; the checker
// backs the property tests.
//
// The path is read destination-last, i.e. traffic flows src → origin.
func (g *Graph) ValleyFree(path []bgp.ASN) bool {
	// Walking from src toward the origin, classify each hop from the
	// perspective of the sender: up (to provider), across (to peer),
	// down (to customer). Valley-free: ups, then at most one across,
	// then downs.
	const (
		stageUp = iota
		stageAcross
		stageDown
	)
	stage := stageUp
	for i := 0; i+1 < len(path); i++ {
		rel, ok := g.RelBetween(path[i], path[i+1])
		if !ok {
			return false
		}
		switch rel {
		case RelProvider: // hop goes up
			if stage != stageUp {
				return false
			}
		case RelPeer: // hop goes across
			if stage != stageUp {
				return false
			}
			stage = stageAcross
		case RelCustomer: // hop goes down
			stage = stageDown
		}
	}
	return true
}
