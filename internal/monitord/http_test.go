package monitord

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"testing"
	"time"

	"quicksand/internal/bgp"
)

// newHTTPDaemon starts a daemon serving HTTP on loopback with two
// ingested routes and one alert, and returns it with its base URL.
func newHTTPDaemon(t *testing.T) (*Daemon, string) {
	t.Helper()
	d := newTestDaemon(t, Config{Shards: 4, ListenHTTP: "127.0.0.1:0"})
	si := d.RegisterSource("test", 64501)
	t0 := time.Unix(1000, 0)
	d.Ingest(si, t0, watchedPrefix, asns(64501, 64500, 64496))
	d.Ingest(si, t0.Add(time.Minute), netip.MustParsePrefix("10.0.1.0/24"), asns(64501, 666))
	if !d.WaitQuiesce(5 * time.Second) {
		t.Fatal("pipeline did not quiesce")
	}
	return d, "http://" + d.HTTPAddr()
}

func httpGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, body
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	code, body := httpGet(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, code, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: decoding %q: %v", url, body, err)
	}
}

func TestHTTPAlerts(t *testing.T) {
	_, base := newHTTPDaemon(t)

	var resp alertsResponse
	getJSON(t, base+"/alerts", &resp)
	if len(resp.Alerts) != 1 || resp.Next != 1 || resp.Dropped != 0 {
		t.Fatalf("/alerts = %+v, want exactly the more-specific alert", resp)
	}
	a := resp.Alerts[0]
	if a.Kind != "more-specific" || a.Prefix != "10.0.1.0/24" || a.ObservedAS != 666 {
		t.Errorf("alert = %+v", a)
	}

	// Cursor resume: nothing new.
	getJSON(t, base+fmt.Sprintf("/alerts?since=%d", resp.Next), &resp)
	if len(resp.Alerts) != 0 {
		t.Errorf("resumed poll returned %+v, want none", resp.Alerts)
	}

	for _, bad := range []string{"/alerts?since=x", "/alerts?max=0", "/alerts?max=x"} {
		if code, _ := httpGet(t, base+bad); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", bad, code)
		}
	}

	// An ahead-of-head cursor (stale client after a restart) resyncs:
	// empty page, next == live head, no drops — the Daemon.Alerts
	// contract over HTTP.
	getJSON(t, base+"/alerts?since=999999", &resp)
	if len(resp.Alerts) != 0 || resp.Next != 1 || resp.Dropped != 0 {
		t.Errorf("/alerts?since=999999 = %+v, want empty resync page at head 1", resp)
	}
}

// TestHTTPAlertsMaxClamp pins that a hostile ?max= cannot force an
// O(max) allocation: the server clamps to MaxAlertsPerRequest and still
// answers 200 with whatever alerts exist.
func TestHTTPAlertsMaxClamp(t *testing.T) {
	_, base := newHTTPDaemon(t)
	var resp alertsResponse
	getJSON(t, base+fmt.Sprintf("/alerts?max=%d", 1<<40), &resp)
	if len(resp.Alerts) != 1 || resp.Next != 1 {
		t.Errorf("/alerts with huge max = %+v, want the one real alert", resp)
	}
}

// TestHTTPMethodNotAllowed pins that every handler rejects non-GET: the
// API is read-only and must say so rather than treating a POST like a
// GET.
func TestHTTPMethodNotAllowed(t *testing.T) {
	_, base := newHTTPDaemon(t)
	for _, path := range []string{"/alerts", "/rib?prefix=10.0.0.0/16", "/healthz", "/metrics"} {
		resp, err := http.Post(base+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != "GET" {
			t.Errorf("POST %s: Allow = %q, want GET", path, allow)
		}
	}
}

// TestWriteJSONEncodeFailure pins that an unencodable value yields a
// 500, not a silent empty 200 (the old streaming encoder had already
// written the status line before discovering the error).
func TestWriteJSONEncodeFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, math.NaN()) // NaN is not representable in JSON
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("writeJSON(NaN) status = %d, want 500", rec.Code)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, map[string]int{"ok": 1})
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok": 1`) {
		t.Errorf("writeJSON(valid) = %d %q", rec.Code, rec.Body.String())
	}
}

func TestHTTPRIB(t *testing.T) {
	_, base := newHTTPDaemon(t)

	var resp ribResponse
	getJSON(t, base+"/rib?prefix=10.0.0.0/16", &resp)
	if resp.Prefix != "10.0.0.0/16" || len(resp.Routes) != 1 {
		t.Fatalf("/rib?prefix = %+v", resp)
	}
	want := []uint32{64501, 64500, 64496}
	if len(resp.Routes[0].Path) != 3 || resp.Routes[0].Path[2] != want[2] {
		t.Errorf("path = %v, want %v", resp.Routes[0].Path, want)
	}
	if resp.Best == nil || resp.Best.Session != resp.Routes[0].Session {
		t.Errorf("best = %+v", resp.Best)
	}

	// Address lookup takes the most specific covering prefix.
	getJSON(t, base+"/rib?addr=10.0.1.7", &resp)
	if resp.Prefix != "10.0.1.0/24" {
		t.Errorf("/rib?addr LPM = %q, want the /24", resp.Prefix)
	}

	// IPv6 queries parse but can never match the IPv4 RIB.
	for _, missing := range []string{"/rib?prefix=172.16.0.0/12", "/rib?prefix=2001:db8::/32", "/rib?addr=2001:db8::1"} {
		if code, _ := httpGet(t, base+missing); code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", missing, code)
		}
	}
	for _, bad := range []string{"/rib", "/rib?prefix=nope", "/rib?addr=nope"} {
		if code, _ := httpGet(t, base+bad); code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", bad, code)
		}
	}
}

func TestHTTPHealthz(t *testing.T) {
	_, base := newHTTPDaemon(t)
	var h healthResponse
	getJSON(t, base+"/healthz", &h)
	if h.Status != "ok" || h.Updates != 2 || h.RIBPrefixes != 2 || h.Alerts != 1 {
		t.Errorf("/healthz = %+v", h)
	}
	if h.WatchedPrefix != 1 || h.SessionsActive != 1 {
		t.Errorf("/healthz watched/sessions = %+v", h)
	}
}

func TestHTTPMetrics(t *testing.T) {
	_, base := newHTTPDaemon(t)
	code, body := httpGet(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	text := string(body)
	for _, want := range []string{
		"monitord_updates_ingested_total 2",
		"monitord_withdrawals_total 0",
		"monitord_rib_prefixes 2",
		`monitord_alerts_total{kind="origin-change"} 0`,
		`monitord_alerts_total{kind="more-specific"} 1`,
		`monitord_alerts_total{kind="new-upstream"} 0`,
		"monitord_alerts_dropped_total 0",
		`monitord_ingest_queue_depth{shard="0"} 0`,
		"monitord_sessions_accepted_total 1",
		"monitord_sessions_active 1",
		`monitord_session_updates_total{session="0",peer_as="64501",source="local",state="established"} 2`,
		"# TYPE monitord_updates_per_second gauge",
		"# TYPE monitord_uptime_seconds gauge",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q\n%s", want, text)
		}
	}
}

// FuzzHTTPQuery drives the /alerts and /rib handlers with arbitrary raw
// query strings. Whatever the query, the API must not panic or answer
// 5xx, every 200 must carry valid JSON, and /alerts must never return
// more than MaxAlertsPerRequest alerts. The daemon holds more alerts
// than that ceiling, so an unclamped ?max= would show.
func FuzzHTTPQuery(f *testing.F) {
	for _, q := range []string{
		"", "since=0", "since=1&max=5", "max=0", "max=-1", "max=99999999999999999999",
		"since=18446744073709551615", "since=x", "max=10001", "since=%zz",
		"prefix=10.0.0.0/16", "prefix=10.0.1.7/32", "addr=10.0.1.7", "addr=::1",
		"addr=fe80::1%25eth0", "prefix=::/0", "prefix=nope", "addr=", "prefix=&addr=10.0.0.1",
		"prefix=10.0.0.0/16&prefix=junk", ";;&&==",
	} {
		f.Add(q)
	}

	d, err := New(Config{
		Watched:     map[netip.Prefix]bgp.ASN{watchedPrefix: watchedOrigin},
		Shards:      2,
		AlertBuffer: MaxAlertsPerRequest + 64,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	si := d.RegisterSource("fuzz", 64501)
	t0 := time.Unix(1000, 0)
	d.Ingest(si, t0, watchedPrefix, asns(64501, 64500, 64496))
	base := watchedPrefix.Addr().As4()
	for i := 0; i < MaxAlertsPerRequest+32; i++ {
		a := base
		a[2], a[3] = byte(i>>8), byte(i)
		d.Ingest(si, t0, netip.PrefixFrom(netip.AddrFrom4(a), 32), asns(64501, 666))
	}
	if !d.WaitQuiesce(30 * time.Second) {
		f.Fatal("pipeline did not quiesce")
	}
	if n := d.rng.total(); n <= MaxAlertsPerRequest {
		f.Fatalf("setup raised %d alerts, want more than %d", n, MaxAlertsPerRequest)
	}
	h := d.handler()

	f.Fuzz(func(t *testing.T, raw string) {
		for _, path := range []string{"/alerts", "/rib"} {
			req := httptest.NewRequest(http.MethodGet, path, nil)
			req.URL.RawQuery = raw
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("GET %s?%s: status %d: %s", path, raw, rec.Code, rec.Body)
			}
			if rec.Code != http.StatusOK {
				continue
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("GET %s?%s: 200 with invalid JSON %q", path, raw, rec.Body)
			}
			if path == "/alerts" {
				var resp alertsResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatalf("GET %s?%s: decoding: %v", path, raw, err)
				}
				if len(resp.Alerts) > MaxAlertsPerRequest {
					t.Fatalf("GET %s?%s: %d alerts, ceiling %d", path, raw, len(resp.Alerts), MaxAlertsPerRequest)
				}
			}
		}
	})
}
