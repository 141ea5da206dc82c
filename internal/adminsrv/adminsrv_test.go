package adminsrv

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"canopus/admin"
	"canopus/internal/metrics"
)

func get(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHealthzPhases pins the bind-early contract: 503 "recovering" until
// SetPhase("ok"), then 200.
func TestHealthzPhases(t *testing.T) {
	h := NewHandler(Config{Node: 2})
	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("recovering /healthz = %d, want 503", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), `"recovering"`) {
		t.Fatalf("recovering body = %q", rec.Body.String())
	}

	// /status during recovery still identifies the node.
	rec = get(t, h, "/status")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"node":2`) {
		t.Fatalf("recovering /status = %d %q", rec.Code, rec.Body.String())
	}

	h.SetPhase("ok")
	rec = get(t, h, "/healthz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		t.Fatalf("ready /healthz = %d %q", rec.Code, rec.Body.String())
	}
}

// TestMetricsEndpoint serves a registry and checks the admin client's
// parser can read back what the encoder wrote.
func TestMetricsEndpoint(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("canopus_test_total", "help", metrics.Label{Key: "node", Value: "0"}).Add(7)
	h := NewHandler(Config{Registry: reg})
	rec := get(t, h, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	series, err := admin.ParseMetrics(rec.Body)
	if err != nil {
		t.Fatal(err)
	}
	if series[`canopus_test_total{node="0"}`] != 7 {
		t.Fatalf("parsed series = %v", series)
	}
}

// TestStatusDocument checks the Status source is consulted only once
// ready and the JSON round-trips through the admin types.
func TestStatusDocument(t *testing.T) {
	h := NewHandler(Config{
		Node: 1,
		Status: func() admin.Status {
			return admin.Status{
				Node: 1, Applied: 41, Ordered: 42,
				StateDigest: "00000000000000ab", LogDigest: "00000000000000cd",
			}
		},
	})
	h.SetPhase("ok")
	srv := httptest.NewServer(h)
	defer srv.Close()

	c := admin.New(srv.URL)
	s, err := c.Status(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if s.Phase != "ok" || s.Applied != 41 || s.Ordered != 42 {
		t.Fatalf("status = %+v", s)
	}
	d, err := c.Digest(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if d.Cycle != 41 || d.State != 0xab || d.Log != 0xcd {
		t.Fatalf("digest = %+v", d)
	}
}

// TestSnapshotVerb pins the optional-verb semantics: 404 without a WAL,
// 202 with one.
func TestSnapshotVerb(t *testing.T) {
	h := NewHandler(Config{})
	if rec := post(t, h, "/snapshot", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("no-WAL /snapshot = %d, want 404", rec.Code)
	}
	called := false
	h = NewHandler(Config{Snapshot: func() error { called = true; return nil }})
	if rec := post(t, h, "/snapshot", ""); rec.Code != http.StatusAccepted || !called {
		t.Fatalf("/snapshot = %d called=%v, want 202 true", rec.Code, called)
	}
}

// TestChaosVerb pins the gating: 403 unless enabled, 400 on bad
// action/body, 200 on success.
func TestChaosVerb(t *testing.T) {
	h := NewHandler(Config{})
	if rec := post(t, h, "/chaos", `{"action":"kill"}`); rec.Code != http.StatusForbidden {
		t.Fatalf("ungated /chaos = %d, want 403", rec.Code)
	}
	var got string
	h = NewHandler(Config{Chaos: func(a string) error {
		if a == "bogus" {
			return errors.New("unknown action")
		}
		got = a
		return nil
	}})
	if rec := post(t, h, "/chaos", `not json`); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad body /chaos = %d, want 400", rec.Code)
	}
	if rec := post(t, h, "/chaos", `{"action":"bogus"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown action /chaos = %d, want 400", rec.Code)
	}
	if rec := post(t, h, "/chaos", `{"action":"drop-replies"}`); rec.Code != http.StatusOK || got != "drop-replies" {
		t.Fatalf("/chaos = %d got=%q", rec.Code, got)
	}
}

// TestDegradedHook pins the liveness surface: while the phase is "ok", a
// non-empty Degraded turns /healthz into 503 "degraded: <reason>" and
// fills Status.Degraded; recovery flips both back with no restart.
func TestDegradedHook(t *testing.T) {
	reason := ""
	h := NewHandler(Config{
		Node:     1,
		Status:   func() admin.Status { return admin.Status{Node: 1} },
		Degraded: func() string { return reason },
	})

	// Pre-ready the hook is irrelevant: recovery already reports 503.
	reason = "stalled"
	if rec := get(t, h, "/healthz"); !strings.Contains(rec.Body.String(), `"recovering"`) {
		t.Fatalf("recovering body = %q", rec.Body.String())
	}

	h.SetPhase("ok")
	rec := get(t, h, "/healthz")
	if rec.Code != http.StatusServiceUnavailable ||
		!strings.Contains(rec.Body.String(), `"degraded: stalled"`) {
		t.Fatalf("degraded /healthz = %d %q, want 503 degraded: stalled", rec.Code, rec.Body.String())
	}
	var s admin.Status
	if err := json.Unmarshal(get(t, h, "/status").Body.Bytes(), &s); err != nil || s.Degraded != "stalled" {
		t.Fatalf("degraded /status = %+v, %v", s, err)
	}

	reason = ""
	if rec := get(t, h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("recovered /healthz = %d, want 200", rec.Code)
	}
	var s2 admin.Status
	if err := json.Unmarshal(get(t, h, "/status").Body.Bytes(), &s2); err != nil || s2.Degraded != "" {
		t.Fatalf("recovered /status = %+v, %v", s2, err)
	}
}
