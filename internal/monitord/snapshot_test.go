package monitord

import (
	"bytes"
	"context"
	"errors"
	"net/netip"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"quicksand/internal/bgp"
	"quicksand/internal/defense"
)

// ribDump flattens a daemon's RIB into a deterministic map for equality
// checks across save/restore.
func ribDump(d *Daemon) map[string][]Route {
	out := make(map[string][]Route)
	d.rib.Walk(func(e *RIBEntry) bool {
		out[e.Prefix.String()] = e.Routes
		return true
	})
	return out
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := newTestDaemon(t, Config{Shards: 4})
	s0 := src.RegisterSource("rrc00", 64501)
	s1 := src.RegisterSource("rrc01", 64502)
	t0 := time.Unix(5000, 0)

	other := netip.MustParsePrefix("192.0.2.0/24")
	gone := netip.MustParsePrefix("198.51.100.0/24")
	src.Ingest(s0, t0, watchedPrefix, asns(64501, 64500, 64496))
	src.Ingest(s1, t0.Add(time.Second), watchedPrefix, asns(64502, 64500, 64496))
	src.Ingest(s0, t0.Add(2*time.Second), other, asns(64501, 64510))
	// Empty-AS_PATH announcement: must survive the round trip as an
	// announcement, not become a withdrawal.
	src.Ingest(s1, t0.Add(3*time.Second), other, []bgp.ASN{})
	// Withdrawn before the snapshot: must not reappear after restore.
	src.Ingest(s0, t0.Add(4*time.Second), gone, asns(64501, 64511))
	src.Ingest(s0, t0.Add(5*time.Second), gone, nil)
	if !src.WaitQuiesce(5 * time.Second) {
		t.Fatal("source pipeline did not quiesce")
	}

	var buf bytes.Buffer
	stats, err := src.SaveSnapshot(&buf)
	if err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if stats.Sessions != 2 || stats.Prefixes != 2 || stats.Routes != 4 {
		t.Errorf("save stats = %+v, want 2 sessions / 2 prefixes / 4 routes", stats)
	}

	dst := newTestDaemon(t, Config{Shards: 2}) // different shard count on purpose
	rstats, err := dst.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if !dst.WaitQuiesce(5 * time.Second) {
		t.Fatal("restore pipeline did not quiesce")
	}
	if rstats.Sessions != 2 || rstats.Routes != 4 {
		t.Errorf("restore stats = %+v, want 2 sessions / 4 routes", rstats)
	}

	// Both daemons were fresh, so saved ids map onto identical new ids
	// and the RIBs must match exactly — paths, timestamps, sessions.
	want, got := ribDump(src), ribDump(dst)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("restored RIB differs:\n want %+v\n  got %+v", want, got)
	}
	if _, ok := dst.rib.Lookup(gone); ok {
		t.Errorf("withdrawn prefix %v reappeared after restore", gone)
	}
	// Restored routes replayed through the monitor: the benign table
	// raises no alarms here, but the pipeline observed every route.
	if n := dst.met.updates.Value(); n != 4 {
		t.Errorf("restore ingested %d updates, want 4", n)
	}
}

// TestSnapshotReplaysThroughMonitor pins the restore path going through
// the full pipeline: a snapshot taken during an active hijack re-raises
// the alert on the restored daemon instead of silently trusting it.
func TestSnapshotReplaysThroughMonitor(t *testing.T) {
	src := newTestDaemon(t, Config{Shards: 2})
	si := src.RegisterSource("rrc00", 64501)
	src.Ingest(si, time.Unix(5000, 0), watchedPrefix, asns(64501, 666))
	if !src.WaitQuiesce(5 * time.Second) {
		t.Fatal("source pipeline did not quiesce")
	}

	var buf bytes.Buffer
	if _, err := src.SaveSnapshot(&buf); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	dst := newTestDaemon(t, Config{Shards: 2})
	if _, err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if !dst.WaitQuiesce(5 * time.Second) {
		t.Fatal("restore pipeline did not quiesce")
	}
	alerts, _, _ := dst.Alerts(0, 0)
	if len(alerts) != 1 || alerts[0].Kind != defense.AlertOriginChange || alerts[0].Observed != 666 {
		t.Fatalf("restored alerts = %+v, want one origin-change by AS666", alerts)
	}
}

func TestSnapshotFileRoundTrip(t *testing.T) {
	src := newTestDaemon(t, Config{Shards: 2})
	si := src.RegisterSource("rrc00", 64501)
	src.Ingest(si, time.Unix(5000, 0), watchedPrefix, asns(64501, 64500, 64496))
	if !src.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	path := filepath.Join(t.TempDir(), "rib.qsrib")
	if _, err := src.SaveSnapshotFile(path); err != nil {
		t.Fatalf("SaveSnapshotFile: %v", err)
	}
	dst := newTestDaemon(t, Config{Shards: 2})
	if _, err := dst.LoadSnapshotFile(path); err != nil {
		t.Fatalf("LoadSnapshotFile: %v", err)
	}
	if !dst.WaitQuiesce(5 * time.Second) {
		t.Fatal("restore pipeline did not quiesce")
	}
	if !reflect.DeepEqual(ribDump(src), ribDump(dst)) {
		t.Error("file round trip changed the RIB")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	d := newTestDaemon(t, Config{Shards: 2})
	for name, data := range map[string][]byte{
		"empty":       {},
		"bad-magic":   []byte("NOTRIB\x01rest"),
		"bad-version": append([]byte(snapshotMagic), 99),
		"truncated":   append([]byte(snapshotMagic), 1, 0, 0),
	} {
		if _, err := d.LoadSnapshot(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: LoadSnapshot succeeded", name)
		} else if !strings.Contains(err.Error(), "snapshot") {
			t.Errorf("%s: error %v does not wrap ErrSnapshotFormat", name, err)
		}
	}
}

// TestSnapshotHostileSessionCount pins that the session count in a
// snapshot header is not trusted for allocation: a 10-byte file claiming
// 2^28 sessions fails on the missing rows without reserving memory for
// them.
func TestSnapshotHostileSessionCount(t *testing.T) {
	d := newTestDaemon(t, Config{Shards: 2})
	data := append([]byte(snapshotMagic), snapshotVersion, 0x10, 0, 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := d.LoadSnapshot(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSnapshotFormat) {
		t.Fatalf("LoadSnapshot = %v, want ErrSnapshotFormat", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("LoadSnapshot of a %d-byte file allocated %d bytes", len(data), n)
	}
}

// snapshotBytes saves d's snapshot, failing the test on error.
func snapshotBytes(t *testing.T, d *Daemon) []byte {
	t.Helper()
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	var buf bytes.Buffer
	if _, err := d.SaveSnapshot(&buf); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	return buf.Bytes()
}

// FuzzLoadSnapshot: LoadSnapshot must never panic or over-allocate on
// arbitrary bytes, and any file it accepts must save to a canonical
// snapshot that a fresh daemon restores and saves again byte for byte.
// The corpus is seeded from SaveSnapshot so the fuzzer starts inside
// the valid format.
func FuzzLoadSnapshot(f *testing.F) {
	f.Add([]byte{})
	f.Add(append([]byte(snapshotMagic), snapshotVersion, 0x10, 0, 0, 0))
	for _, withRoutes := range []bool{false, true} {
		d, err := New(Config{Watched: map[netip.Prefix]bgp.ASN{watchedPrefix: watchedOrigin}, Shards: 1})
		if err != nil {
			f.Fatal(err)
		}
		s0 := d.RegisterSource("rrc00", 64501)
		s1 := d.RegisterSource("rrc01", 64502)
		if withRoutes {
			t0 := time.Unix(5000, 0)
			d.Ingest(s0, t0, watchedPrefix, asns(64501, 64500, 64496))
			d.Ingest(s1, t0, watchedPrefix, []bgp.ASN{})
			d.Ingest(s1, t0.Add(time.Second), netip.MustParsePrefix("192.0.2.0/24"), asns(64502, 64510))
		}
		d.WaitQuiesce(5 * time.Second)
		var buf bytes.Buffer
		if _, err := d.SaveSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		d.Shutdown(context.Background())
		f.Add(buf.Bytes())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{Shards: 1, QueueDepth: 16}
		d := newTestDaemon(t, cfg)
		if _, err := d.LoadSnapshot(bytes.NewReader(data)); err != nil {
			return
		}
		first := snapshotBytes(t, d)
		d2 := newTestDaemon(t, cfg)
		if _, err := d2.LoadSnapshot(bytes.NewReader(first)); err != nil {
			t.Fatalf("restoring a saved snapshot: %v", err)
		}
		if second := snapshotBytes(t, d2); !bytes.Equal(first, second) {
			t.Fatalf("save/restore/save is not a fixed point:\n%x\n%x", first, second)
		}
	})
}
