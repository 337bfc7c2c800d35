package monitord

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/iptrie"
)

// trieRIB is the bit-level trie RIB that liveRIB replaced, kept as the
// differential reference: one iptrie.Trie per shard with a per-session
// route map at each prefix, sharded by the same shardOf.
type trieRIB struct {
	shards []trieShard
	hash   *liveRIB // supplies shardOf
}

type trieShard struct {
	trie iptrie.Trie[map[int]Route]
	size int
}

func newTrieRIB(shards int) *trieRIB {
	return &trieRIB{shards: make([]trieShard, shards), hash: newLiveRIB(shards)}
}

func (r *trieRIB) shardOf(p netip.Prefix) *trieShard {
	return &r.shards[r.hash.shardOf(p)]
}

func (r *trieRIB) apply(t time.Time, session int, prefix netip.Prefix, path []bgp.ASN) {
	sh := r.shardOf(prefix)
	routes, ok := sh.trie.Get(prefix)
	if path == nil {
		if !ok {
			return
		}
		delete(routes, session)
		if len(routes) == 0 {
			if removed, _ := sh.trie.Delete(prefix); removed {
				sh.size--
			}
		}
		return
	}
	if !ok {
		routes = make(map[int]Route, 1)
		if added, err := sh.trie.Insert(prefix, routes); err != nil {
			return
		} else if added {
			sh.size++
		}
	}
	routes[session] = Route{Session: session, Path: path, Updated: t}
}

func trieSnapshot(p netip.Prefix, routes map[int]Route) *RIBEntry {
	e := &RIBEntry{Prefix: p, Routes: make([]Route, 0, len(routes))}
	for _, rt := range routes {
		cp := rt
		cp.Path = append([]bgp.ASN{}, rt.Path...)
		e.Routes = append(e.Routes, cp)
	}
	for i := 1; i < len(e.Routes); i++ {
		for j := i; j > 0 && e.Routes[j].Session < e.Routes[j-1].Session; j-- {
			e.Routes[j], e.Routes[j-1] = e.Routes[j-1], e.Routes[j]
		}
	}
	return e
}

func (r *trieRIB) Lookup(p netip.Prefix) (*RIBEntry, bool) {
	routes, ok := r.shardOf(p).trie.Get(p)
	if !ok {
		return nil, false
	}
	return trieSnapshot(p.Masked(), routes), true
}

func (r *trieRIB) LookupAddr(addr netip.Addr) (*RIBEntry, bool) {
	var best *RIBEntry
	bestBits := -1
	for i := range r.shards {
		if p, routes, ok := r.shards[i].trie.LongestMatch(addr); ok && p.Bits() > bestBits {
			best = trieSnapshot(p, routes)
			bestBits = p.Bits()
		}
	}
	return best, best != nil
}

func (r *trieRIB) Size() int {
	n := 0
	for i := range r.shards {
		n += r.shards[i].size
	}
	return n
}

func (r *trieRIB) Walk(fn func(*RIBEntry) bool) {
	for i := range r.shards {
		ok := r.shards[i].trie.Walk(func(p netip.Prefix, routes map[int]Route) bool {
			return fn(trieSnapshot(p, routes))
		})
		if !ok {
			return
		}
	}
}

func walkAll(walk func(func(*RIBEntry) bool)) []*RIBEntry {
	var out []*RIBEntry
	walk(func(e *RIBEntry) bool {
		out = append(out, e)
		return true
	})
	return out
}

// TestRIBDifferential drives liveRIB and the trie reference with the
// same seeded random streams — announcements and withdrawals from four
// sessions, withdrawals by a session that never announced, empty
// AS_PATHs, and overlapping prefixes of every length /0–/32, some given
// unmasked — and requires equal Lookup, LookupAddr, Size and Walk order
// after every step.
func TestRIBDifferential(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				ribDifferential(t, shards, seed, 800)
			})
		}
	}
}

func ribDifferential(t *testing.T, shards int, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	// A few base addresses sharing long common prefixes, so prefixes of
	// different lengths nest inside each other.
	bases := make([]netip.Addr, 6)
	for i := range bases {
		v := 0x0A000000 | uint32(rng.Intn(4))<<16 | uint32(rng.Intn(4))<<8 | uint32(rng.Intn(256))
		bases[i] = netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}
	bases = append(bases, netip.MustParseAddr("192.0.2.77"))
	randPrefix := func() netip.Prefix {
		p := netip.PrefixFrom(bases[rng.Intn(len(bases))], rng.Intn(33))
		if rng.Intn(2) == 0 {
			p = p.Masked()
		}
		return p
	}
	randAddr := func() netip.Addr {
		a := bases[rng.Intn(len(bases))].As4()
		a[3] ^= byte(rng.Intn(4))
		return netip.AddrFrom4(a)
	}

	got, want := newLiveRIB(shards), newTrieRIB(shards)
	t0 := time.Unix(1000, 0)
	for step := 0; step < steps; step++ {
		p := randPrefix()
		session := rng.Intn(4)
		var path []bgp.ASN
		switch op := rng.Intn(10); {
		case op < 5: // announce
			path = asns(64500+uint32(session), uint32(64600+rng.Intn(8)))
		case op == 5: // present-but-empty AS_PATH
			path = []bgp.ASN{}
		case op == 6: // withdrawal by a session that never announces
			session = 9
		default: // withdrawal
		}
		ts := t0.Add(time.Duration(step) * time.Second)
		got.apply(ts, session, p, path)
		want.apply(ts, session, p, path)

		if g, w := got.Size(), want.Size(); g != w {
			t.Fatalf("step %d: Size = %d, reference %d", step, g, w)
		}
		for _, q := range []netip.Prefix{p, randPrefix()} {
			ge, gok := got.Lookup(q)
			we, wok := want.Lookup(q)
			if gok != wok || !reflect.DeepEqual(ge, we) {
				t.Fatalf("step %d: Lookup(%v) = %+v, %v; reference %+v, %v", step, q, ge, gok, we, wok)
			}
		}
		for _, a := range []netip.Addr{p.Addr(), randAddr()} {
			ge, gok := got.LookupAddr(a)
			we, wok := want.LookupAddr(a)
			if gok != wok || !reflect.DeepEqual(ge, we) {
				t.Fatalf("step %d: LookupAddr(%v) = %+v, %v; reference %+v, %v", step, a, ge, gok, we, wok)
			}
		}
		if g, w := walkAll(got.Walk), walkAll(want.Walk); !reflect.DeepEqual(g, w) {
			t.Fatalf("step %d: Walk differs:\n got %v\nwant %v", step, g, w)
		}
	}
}
