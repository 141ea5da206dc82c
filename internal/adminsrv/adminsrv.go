// Package adminsrv is the per-node HTTP admin gateway: the operations
// plane's on-ramp. Each node serves its own gateway (canopus-server
// -admin-addr) with four endpoints — /metrics (Prometheus text from the
// node's metrics.Registry), /healthz (readiness, "recovering" during WAL
// replay), /status (the admin.Status JSON document), and the admin verb
// POST /snapshot.
//
// The gateway follows the client port's bind-early/accept-late shape,
// shifted one notch: it binds AND serves before recovery starts, but
// /healthz answers 503 "recovering" until SetPhase("ok"). A restarting
// node is therefore observable throughout replay — pollers see the phase
// flip rather than connection-refused.
package adminsrv

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"canopus/admin"
	"canopus/internal/metrics"
)

// Config wires one node's data sources into its gateway. Registry and
// Status are required for their endpoints to be useful but may be nil
// (the endpoint then serves an empty document); Snapshot is an
// optional verb — a nil Snapshot answers 404 (no WAL).
type Config struct {
	// Registry backs GET /metrics.
	Registry *metrics.Registry
	// Status backs GET /status. It may block briefly (it reads the
	// replica at a cycle boundary); it is never called before
	// SetPhase("ok").
	Status func() admin.Status
	// Node identifies the node in pre-recovery /status documents, before
	// the Status source is safe to call.
	Node int32
	// Snapshot backs POST /snapshot (wal.Manager.RequestSnapshot).
	Snapshot func() error
	// Degraded, when set, is consulted on every /healthz and /status
	// while the phase is "ok": a non-empty return (e.g. "stalled") makes
	// /healthz answer 503 with status "degraded: <reason>" and fills
	// Status.Degraded. It must be cheap and safe from any goroutine.
	Degraded func() string
}

// Handler is the gateway's http.Handler with its readiness state; tests
// drive it through httptest without sockets.
type Handler struct {
	cfg   Config
	phase atomic.Value // string: "recovering" -> "ok"
	mux   *http.ServeMux
}

// NewHandler builds the gateway handler in the "recovering" phase.
func NewHandler(cfg Config) *Handler {
	h := &Handler{cfg: cfg, mux: http.NewServeMux()}
	h.phase.Store("recovering")
	h.mux.HandleFunc("GET /metrics", h.handleMetrics)
	h.mux.HandleFunc("GET /healthz", h.handleHealthz)
	h.mux.HandleFunc("GET /status", h.handleStatus)
	h.mux.HandleFunc("POST /snapshot", h.handleSnapshot)
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// SetPhase publishes the node's readiness ("ok" once recovery finished
// and the client port accepts connections).
func (h *Handler) SetPhase(phase string) { h.phase.Store(phase) }

// Phase returns the current readiness phase.
func (h *Handler) Phase() string { return h.phase.Load().(string) }

func (h *Handler) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if h.cfg.Registry == nil {
		return
	}
	h.cfg.Registry.WritePrometheus(w)
}

func (h *Handler) handleHealthz(w http.ResponseWriter, r *http.Request) {
	phase := h.Phase()
	code := http.StatusOK
	if phase != "ok" {
		code = http.StatusServiceUnavailable
	} else if reason := h.degraded(); reason != "" {
		// Serving but not making progress (stall detector): distinct
		// from recovery — the phase is ok, the protocol is wedged.
		code = http.StatusServiceUnavailable
		phase = "degraded: " + reason
	}
	writeJSON(w, code, admin.Health{Status: phase})
}

// degraded consults the optional liveness hook; "" when healthy.
func (h *Handler) degraded() string {
	if h.cfg.Degraded == nil {
		return ""
	}
	return h.cfg.Degraded()
}

func (h *Handler) handleStatus(w http.ResponseWriter, r *http.Request) {
	phase := h.Phase()
	if phase != "ok" || h.cfg.Status == nil {
		// Mid-recovery the replica is not readable at a cycle boundary;
		// serve the phase and identity so pollers can watch replay finish.
		writeJSON(w, http.StatusOK, admin.Status{Node: h.cfg.Node, Phase: phase})
		return
	}
	s := h.cfg.Status()
	s.Phase = phase
	if s.Degraded == "" {
		s.Degraded = h.degraded()
	}
	writeJSON(w, http.StatusOK, s)
}

func (h *Handler) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if h.cfg.Snapshot == nil {
		http.Error(w, "no durable storage configured", http.StatusNotFound)
		return
	}
	if err := h.cfg.Snapshot(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	// The snapshot is taken at the next group commit, not inline.
	w.WriteHeader(http.StatusAccepted)
	io.WriteString(w, "snapshot requested\n")
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// Server is one node's bound, serving gateway.
type Server struct {
	*Handler
	ln   net.Listener
	http *http.Server
}

// Listen binds addr and serves the gateway immediately — before node
// recovery, per the package contract. Fail here is a boot error (bad
// address, port taken), surfaced before any recovery work starts.
func Listen(addr string, cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("adminsrv: listen %s: %w", addr, err)
	}
	h := NewHandler(cfg)
	s := &Server{
		Handler: h,
		ln:      ln,
		http: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 5 * time.Second,
		},
	}
	go s.http.Serve(ln)
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the gateway, severing open connections.
func (s *Server) Close() error { return s.http.Close() }
