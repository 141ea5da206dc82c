// Package admin is the typed Go client for a canopus node's HTTP admin
// gateway (internal/adminsrv): health probes, the /status JSON document,
// digest extraction for convergence checks, snapshot triggering, chaos
// injection, and a one-shot Prometheus scrape parsed into a flat map.
// The gateway and this client share the wire types defined here, so the
// JSON contract has exactly one definition.
package admin

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Health is the /healthz body. Status is "ok" once the node serves
// clients, "recovering" while WAL replay still runs (the gateway binds
// before recovery starts, mirroring the client port's bind-early
// pattern).
type Health struct {
	Status string `json:"status"`
}

// SuperLeaf is one super-leaf's membership in the node's current view.
// Evicted marks a leaf whose membership the committed view saw go empty
// (an eviction tombstone landing): it is excluded from the LOT merge
// until a member rejoins. EvictedAt is the committing cycle.
type SuperLeaf struct {
	Index     int     `json:"index"`
	Members   []int32 `json:"members"`
	Alive     []int32 `json:"alive"`
	Failed    bool    `json:"failed"`
	Evicted   bool    `json:"evicted,omitempty"`
	EvictedAt uint64  `json:"evicted_at,omitempty"`
}

// Durability is the /status durability block; absent when the node runs
// without a WAL.
type Durability struct {
	DurableCycle  uint64 `json:"durable_cycle"`
	Syncs         uint64 `json:"syncs"`
	SyncedRecords uint64 `json:"synced_records"`
	LastBatch     uint64 `json:"last_batch"`
	Snapshots     uint64 `json:"snapshots"`
}

// Status is the /status body: one node's operational snapshot. The
// digests are the store's rolling state/log digests rendered as
// fixed-width hex; two nodes whose Applied cycles match must have equal
// digest strings.
type Status struct {
	Node    int32  `json:"node"`
	Phase   string `json:"phase"` // "ok" or "recovering"
	Started uint64 `json:"started_cycle"`
	Ordered uint64 `json:"ordered_cycle"`
	Applied uint64 `json:"applied_cycle"`
	Stalled bool   `json:"stalled"`
	// Degraded carries the liveness detector's verdict: "stalled" while
	// the node sees no commit progress for 4 × FetchTimeout with cycles
	// outstanding (e.g. the minority side of a partition) or has
	// hard-halted; empty when healthy. /healthz mirrors it as
	// "degraded: stalled" with a 503.
	Degraded string `json:"degraded,omitempty"`
	// Watchers counts the live watch registrations on the node's event
	// hub (0 when the event plane is disabled).
	Watchers int `json:"watchers,omitempty"`
	// StateDigest and LogDigest are coherent with Applied: all three are
	// read at one commit boundary.
	StateDigest string      `json:"state_digest"`
	LogDigest   string      `json:"log_digest"`
	Membership  []SuperLeaf `json:"membership,omitempty"`
	Durability  *Durability `json:"durability,omitempty"`
}

// Digest is the (cycle, state, log) triple convergence checks compare:
// one replica's committed cycle and its state and log digests, read as a
// consistent cut.
type Digest struct {
	Cycle uint64
	State uint64
	Log   uint64
}

// Client talks to one node's admin gateway.
type Client struct {
	base string
	hc   *http.Client
}

// New creates a client for the gateway at addr — a bare host:port or a
// full http:// URL.
func New(addr string) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	return &Client{
		base: base,
		hc:   &http.Client{Timeout: 10 * time.Second},
	}
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return err
	}
	// /healthz deliberately serves 503 with a JSON body while the node
	// recovers; decode it rather than failing so pollers can watch the
	// phase change.
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("admin: GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, out)
}

func (c *Client) post(ctx context.Context, path string, body io.Reader) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, body)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode >= 300 {
		return fmt.Errorf("admin: POST %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return nil
}

// Health fetches /healthz. A "recovering" status is not an error; a
// connection failure is.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.get(ctx, "/healthz", &h)
	return h, err
}

// Status fetches /status.
func (c *Client) Status(ctx context.Context) (Status, error) {
	var s Status
	err := c.get(ctx, "/status", &s)
	return s, err
}

// Digest fetches /status and extracts the convergence triple. It fails
// if the node is still recovering (the digests are not yet meaningful).
func (c *Client) Digest(ctx context.Context) (Digest, error) {
	s, err := c.Status(ctx)
	if err != nil {
		return Digest{}, err
	}
	if s.Phase != "ok" {
		return Digest{}, fmt.Errorf("admin: node %d is %s", s.Node, s.Phase)
	}
	state, err := strconv.ParseUint(s.StateDigest, 16, 64)
	if err != nil {
		return Digest{}, fmt.Errorf("admin: bad state digest %q: %w", s.StateDigest, err)
	}
	logd, err := strconv.ParseUint(s.LogDigest, 16, 64)
	if err != nil {
		return Digest{}, fmt.Errorf("admin: bad log digest %q: %w", s.LogDigest, err)
	}
	return Digest{Cycle: s.Applied, State: state, Log: logd}, nil
}

// TriggerSnapshot asks the node to snapshot at its next group commit
// (POST /snapshot). It returns an error when the node has no WAL.
func (c *Client) TriggerSnapshot(ctx context.Context) error {
	return c.post(ctx, "/snapshot", nil)
}

// Metrics scrapes /metrics once and parses the Prometheus text into a
// flat map keyed `name{labels}` (the exact series line prefix; unlabeled
// series are keyed by bare name). Histogram series appear under their
// _bucket/_sum/_count names like any other.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("admin: GET /metrics: %s", resp.Status)
	}
	return ParseMetrics(resp.Body)
}

// ParseMetrics parses Prometheus text exposition into a series map. It
// handles the subset the registry emits: comment lines, and one
// `name{labels} value` or `name value` sample per line.
func ParseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		// The value follows the last space outside braces; labels may
		// contain escaped spaces only inside quotes, which the registry
		// never emits, so the final space split is sound for our encoder.
		i := bytes.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(string(line[i+1:]), 64)
		if err != nil {
			return nil, fmt.Errorf("admin: bad sample line %q: %w", line, err)
		}
		out[string(bytes.TrimSpace(line[:i]))] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
