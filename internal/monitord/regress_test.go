package monitord

import (
	"net"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/bgpd"
	"quicksand/internal/bgpsim"
)

// TestFlappingCollectorBoundedDials pins the dialLoop backoff fix: a
// collector that establishes and immediately hangs up (no updates) must
// not reset the exponential backoff, so the redial rate stays bounded
// instead of hot-looping at DialBackoffBase.
func TestFlappingCollectorBoundedDials(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	collectorCfg := bgpd.Config{
		ASN: 64501, BGPID: netip.MustParseAddr("203.0.113.1"),
		HoldTime: 3 * time.Second,
	}
	var established atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Flap: complete the handshake, then drop with no updates.
			if s, err := bgpd.Establish(c, collectorCfg); err == nil {
				established.Add(1)
				s.Close()
			} else {
				c.Close()
			}
		}
	}()

	d := newTestDaemon(t, Config{
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
			HoldTime: 3 * time.Second,
		},
		Collectors:      []string{ln.Addr().String()},
		Shards:          2,
		DialBackoffBase: 20 * time.Millisecond,
		// DialHealthyAfter default (30s) is far beyond the window, so no
		// flapping session ever counts as healthy.
	})
	_ = d

	// Exponential backoff from 20ms (jitter in [0.5, 1.5)) admits at most
	// ~7 establishes in 700ms even at minimum jitter; the broken reset
	// admitted dozens. Leave headroom for scheduler noise.
	time.Sleep(700 * time.Millisecond)
	if got := established.Load(); got < 2 || got > 12 {
		t.Errorf("flapping collector saw %d establishes in 700ms, want 2..12 (bounded backoff)", got)
	}
}

// TestEmptyASPathAnnounce pins the nil-vs-empty path distinction: an
// announcement whose AS_PATH attribute is present but has zero segments
// must be stored as a route, not misclassified as a withdrawal.
func TestEmptyASPathAnnounce(t *testing.T) {
	d := newTestDaemon(t, Config{Shards: 2})
	si := d.RegisterSource("test", 64501)
	t0 := time.Unix(1000, 0)

	if err := d.Ingest(si, t0, watchedPrefix, []bgp.ASN{}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	e, ok := d.rib.Lookup(watchedPrefix)
	if !ok || len(e.Routes) != 1 {
		t.Fatalf("RIB[%v] = %+v, %v; want one route from the empty-path announce", watchedPrefix, e, ok)
	}
	if e.Routes[0].Path == nil || len(e.Routes[0].Path) != 0 {
		t.Errorf("stored path = %#v, want non-nil empty", e.Routes[0].Path)
	}
	if got := d.met.withdrawals.Value(); got != 0 {
		t.Errorf("withdrawals counter = %d, want 0 (announce, not withdrawal)", got)
	}

	// A real withdrawal (nil path) still removes the route and counts.
	if err := d.Ingest(si, t0.Add(time.Minute), watchedPrefix, nil); err != nil {
		t.Fatalf("Ingest withdraw: %v", err)
	}
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	if _, ok := d.rib.Lookup(watchedPrefix); ok {
		t.Error("withdrawal left the route live")
	}
	if got := d.met.withdrawals.Value(); got != 1 {
		t.Errorf("withdrawals counter = %d, want 1", got)
	}
}

// TestEmptyASPathAnnounceWire drives the same distinction through the
// wire decode: an UPDATE with a present-but-empty AS_PATH attribute
// arriving over a real session must land in the RIB as an announcement.
func TestEmptyASPathAnnounceWire(t *testing.T) {
	d := newTestDaemon(t, Config{
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
			HoldTime: 3 * time.Second,
		},
		ListenBGP: "127.0.0.1:0",
		Shards:    2,
	})
	sess := dialDaemon(t, d)
	defer sess.Close()

	if err := sess.SendUpdate(&bgp.Update{
		NLRI: []netip.Prefix{watchedPrefix},
		Attrs: bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			HasASPath: true, ASPath: bgp.ASPath{}, // present, zero segments
			NextHop: netip.MustParseAddr("203.0.113.1"),
		},
	}); err != nil {
		t.Fatalf("SendUpdate: %v", err)
	}
	waitCounter(t, &counterWait{get: d.met.updates.Value, want: 1, what: "updates"})
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	e, ok := d.rib.Lookup(watchedPrefix)
	if !ok || len(e.Routes) != 1 || e.Routes[0].Path == nil || len(e.Routes[0].Path) != 0 {
		t.Fatalf("RIB[%v] = %+v, %v; want one empty-path route", watchedPrefix, e, ok)
	}
	if got := d.met.withdrawals.Value(); got != 0 {
		t.Errorf("withdrawals counter = %d, want 0", got)
	}
}

// TestDroppedNoASPathCounted pins the silent-discard fix: NLRI arriving
// without any AS_PATH attribute is still dropped (there is no path to
// monitor), but now increments monitord_updates_dropped_total.
func TestDroppedNoASPathCounted(t *testing.T) {
	d := newTestDaemon(t, Config{
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
			HoldTime: 3 * time.Second,
		},
		ListenBGP: "127.0.0.1:0",
		Shards:    2,
	})
	sess := dialDaemon(t, d)
	defer sess.Close()

	// No AS_PATH attribute at all — two prefixes, so the counter
	// reflects dropped NLRI, not dropped messages.
	if err := sess.SendUpdate(&bgp.Update{
		NLRI: []netip.Prefix{watchedPrefix, netip.MustParsePrefix("192.0.2.0/24")},
		Attrs: bgp.PathAttributes{
			HasOrigin: true, Origin: bgp.OriginIGP,
			NextHop: netip.MustParseAddr("203.0.113.1"),
		},
	}); err != nil {
		t.Fatalf("SendUpdate: %v", err)
	}
	waitCounter(t, &counterWait{get: d.met.droppedNoASPath.Value, want: 2, what: "dropped no-as-path"})
	if _, ok := d.rib.Lookup(watchedPrefix); ok {
		t.Error("pathless NLRI entered the RIB")
	}
	if got := d.met.updates.Value(); got != 0 {
		t.Errorf("updates counter = %d, want 0 (nothing ingested)", got)
	}
}

// TestBatchSizeEquivalence replays the same interception scenario over
// TCP against a ReadBatch=1 daemon and a ReadBatch=256 daemon and
// demands identical alert streams: batching is a transport optimization
// and must not change what the monitor sees.
func TestBatchSizeEquivalence(t *testing.T) {
	other := netip.MustParsePrefix("192.0.2.0/24")
	moreSpec := netip.MustParsePrefix("10.0.2.0/24")
	t0 := time.Unix(3000, 0)
	st := &bgpsim.Stream{
		Sessions: []bgpsim.Session{
			bgpsim.NewSession("rrc00", 64501, []netip.Prefix{watchedPrefix, other}),
		},
		Initial: map[int]map[netip.Prefix][]bgp.ASN{0: {
			watchedPrefix: asns(64501, 64500, 64496),
			other:         asns(64501, 64510),
		}},
		Updates: []bgpsim.UpdateEvent{
			{Time: t0, Session: 0, Prefix: watchedPrefix, Path: asns(64501, 666)},
			{Time: t0.Add(time.Minute), Session: 0, Prefix: other, Path: asns(64501, 64511, 64510)},
			{Time: t0.Add(2 * time.Minute), Session: 0, Prefix: moreSpec, Path: asns(64501, 666, 64496)},
			{Time: t0.Add(3 * time.Minute), Session: 0, Prefix: other}, // withdrawal
			{Time: t0.Add(4 * time.Minute), Session: 0, Prefix: watchedPrefix, Path: asns(64501, 667)},
		},
	}
	const wantUpdates = 7 // 2 initial + 5 stream

	run := func(readBatch int) []string {
		d := newTestDaemon(t, Config{
			Speaker: bgpd.Config{
				ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
				HoldTime: 3 * time.Second,
			},
			ListenBGP: "127.0.0.1:0",
			Shards:    4,
			ReadBatch: readBatch,
		})
		sess := dialDaemon(t, d)
		defer sess.Close()
		if _, err := bgpd.Replay(sess, st, 0); err != nil {
			t.Fatalf("replay: %v", err)
		}
		waitCounter(t, &counterWait{get: d.met.updates.Value, want: wantUpdates, what: "updates"})
		if !d.WaitQuiesce(5 * time.Second) {
			t.Fatal("pipeline did not quiesce")
		}
		alerts, _, _ := d.Alerts(0, 0)
		// Arrival wall-clock differs between runs; compare the semantic
		// alert content as a sorted multiset.
		keys := make([]string, 0, len(alerts))
		for _, a := range alerts {
			keys = append(keys, a.Prefix.String()+"|"+a.Kind.String()+"|"+a.Observed.String())
		}
		sort.Strings(keys)
		return keys
	}

	one, many := run(1), run(256)
	if len(one) == 0 {
		t.Fatal("scenario raised no alerts at ReadBatch=1")
	}
	if !equalStrings(one, many) {
		t.Errorf("alert streams diverge:\n ReadBatch=1:   %v\n ReadBatch=256: %v", one, many)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dialDaemon establishes a loopback BGP session with the daemon's
// listener as a second in-process speaker.
func dialDaemon(t *testing.T, d *Daemon) *bgpd.Session {
	t.Helper()
	conn, err := net.Dial("tcp", d.BGPAddr())
	if err != nil {
		t.Fatalf("dial daemon: %v", err)
	}
	sess, err := bgpd.Establish(conn, bgpd.Config{
		ASN: 64501, BGPID: netip.MustParseAddr("203.0.113.1"),
		HoldTime: 3 * time.Second,
	})
	if err != nil {
		conn.Close()
		t.Fatalf("establish: %v", err)
	}
	return sess
}

type counterWait struct {
	get  func() uint64
	want uint64
	what string
}

func waitCounter(t *testing.T, w *counterWait) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for w.get() < w.want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= %d", w.what, w.get(), w.want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRecycledBatchesConcurrentSessions floods one daemon from several
// BGP sessions at once through tiny shard queues, so dispatch batches
// are recycled between the session readers and the workers constantly,
// and requires the RIB to hold exactly each session's last path for
// every prefix: a batch buffer reused while a worker still reads it
// would mix paths across sessions or rounds.
func TestRecycledBatchesConcurrentSessions(t *testing.T) {
	const sessions, rounds, nPrefixes = 3, 8, 256
	d := newTestDaemon(t, Config{
		Speaker: bgpd.Config{
			ASN: 64500, BGPID: netip.MustParseAddr("198.51.100.1"),
			HoldTime: 3 * time.Second,
		},
		ListenBGP:  "127.0.0.1:0",
		Shards:     4,
		QueueDepth: 2,
		ReadBatch:  8,
	})
	prefixes := make([]netip.Prefix, nPrefixes)
	for i := range prefixes {
		prefixes[i] = netip.PrefixFrom(netip.AddrFrom4([4]byte{11, 0, byte(i), 0}), 24)
	}
	var wg sync.WaitGroup
	for s := 0; s < sessions; s++ {
		sess := dialDaemon(t, d)
		defer sess.Close()
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for r := 1; r <= rounds; r++ {
				updates := make([]*bgp.Update, nPrefixes)
				for i, p := range prefixes {
					updates[i] = &bgp.Update{
						NLRI: []netip.Prefix{p},
						Attrs: bgp.PathAttributes{
							HasOrigin: true, Origin: bgp.OriginIGP,
							HasASPath: true, ASPath: bgp.Sequence(asns(64501, uint32(65000+s), uint32(r))...),
							NextHop: netip.MustParseAddr("203.0.113.1"),
						},
					}
				}
				if err := sess.SendUpdates(updates); err != nil {
					t.Errorf("session %d round %d: %v", s, r, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	waitCounter(t, &counterWait{get: d.met.updates.Value, want: sessions * rounds * nPrefixes, what: "updates"})
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	for _, p := range prefixes {
		e, ok := d.rib.Lookup(p)
		if !ok || len(e.Routes) != sessions {
			t.Fatalf("%v: %+v, %v; want one route per session", p, e, ok)
		}
		seen := make(map[bgp.ASN]bool)
		for _, rt := range e.Routes {
			if len(rt.Path) != 3 || rt.Path[2] != rounds || seen[rt.Path[1]] {
				t.Fatalf("%v: routes %+v, want each session's round-%d path once", p, e.Routes, rounds)
			}
			seen[rt.Path[1]] = true
		}
	}
}
