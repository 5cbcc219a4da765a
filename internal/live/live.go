// Package live is the runtime introspection server: an HTTP endpoint a
// running flexsim scenario or flexfarm sweep exposes so operators can
// watch progress, scrape metrics, and profile without stopping the run.
//
//   - /status   — a JSON snapshot of progress (whatever the host binary
//     publishes: sweep done/total + per-worker points, or a scenario's
//     sim-clock position and flow counts)
//   - /metrics  — Prometheus text exposition bridging the obs registry
//   - /debug/pprof/* — the standard Go runtime profiler
//
// The simulation engine is single-threaded and none of its state is safe
// to read from an HTTP goroutine, so the server never touches engine or
// registry state directly: the host publishes snapshots into a
// mutex-protected board (RunBoard here, farm.Tracker for sweeps) and the
// handlers read only those.
package live

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"flexpass/internal/obs"
)

// Server serves the introspection endpoints over a snapshot pair: status
// returns any JSON-marshalable progress object, readings returns the
// metric readings to bridge into Prometheus form. Both callbacks are
// invoked from HTTP goroutines and must be safe for concurrent use.
type Server struct {
	status   func() any
	readings func() []obs.CounterData

	mux *http.ServeMux
	ln  net.Listener
	srv *http.Server
}

// NewServer builds a server over the two snapshot callbacks. Either may
// be nil: a nil status serves an empty object, a nil readings serves an
// empty exposition.
func NewServer(status func() any, readings func() []obs.CounterData) *Server {
	s := &Server{status: status, readings: readings, mux: http.NewServeMux()}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/status", s.handleStatus)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler exposes the mux (mainly for tests via httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// Start binds addr (e.g. ":8080", "127.0.0.1:0") and serves in a
// background goroutine. It returns the bound address, which differs from
// addr when port 0 asked the kernel to pick one.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return ln.Addr().String(), nil
}

// Close stops the listener. In-flight requests are abandoned — the
// server exists for the lifetime of a run, not a deployment.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, `<html><body><h1>flexpass introspection</h1><ul>
<li><a href="/status">/status</a> — run progress (JSON)</li>
<li><a href="/metrics">/metrics</a> — Prometheus exposition</li>
<li><a href="/debug/pprof/">/debug/pprof/</a> — runtime profiles</li>
</ul></body></html>`)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	var v any = struct{}{}
	if s.status != nil {
		v = s.status()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var rs []obs.CounterData
	if s.readings != nil {
		rs = s.readings()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, rs)
}

// WriteMetrics renders readings in Prometheus text exposition format
// (version 0.0.4): readings sharing a metric become one family named
// flexpass_<metric> with the entity as a label, preceded by a single
// # TYPE line (counter for cumulative readings, gauge for instant ones).
func WriteMetrics(w io.Writer, readings []obs.CounterData) error {
	rs := make([]obs.CounterData, len(readings))
	copy(rs, readings)
	// Registry.Final sorts entity-then-metric; exposition groups families
	// by metric, so re-sort.
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].Metric != rs[j].Metric {
			return rs[i].Metric < rs[j].Metric
		}
		return rs[i].Entity < rs[j].Entity
	})
	prev := ""
	for _, r := range rs {
		name := "flexpass_" + sanitizeMetricName(r.Metric)
		if r.Metric != prev {
			typ := "gauge"
			if r.Kind == obs.Cumulative.String() {
				typ = "counter"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, typ); err != nil {
				return err
			}
			prev = r.Metric
		}
		if _, err := fmt.Fprintf(w, "%s{entity=%q} %d\n", name, escapeLabelValue(r.Entity), r.Value); err != nil {
			return err
		}
	}
	return nil
}

// sanitizeMetricName maps a registry metric name onto the Prometheus
// metric charset [a-zA-Z0-9_].
func sanitizeMetricName(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "unnamed"
	}
	return b.String()
}

// escapeLabelValue handles the exposition format's label escapes. %q
// already escapes quote and backslash the same way Prometheus expects;
// this pre-pass only needs to keep newlines out of the raw value.
func escapeLabelValue(s string) string {
	return strings.ReplaceAll(s, "\n", "\\n")
}

// RunStatus is the /status payload a single running scenario publishes:
// where the sim clock is (the minimum over its engines), how fast it is
// moving (events summed over them), and flow progress.
type RunStatus struct {
	SimNowPs     int64   `json:"sim_now_ps"`
	SimEndPs     int64   `json:"sim_end_ps"`
	Events       uint64  `json:"events"`
	EventsPerSec float64 `json:"events_per_sec"`
	FlowsTotal   int     `json:"flows_total"`
	FlowsStarted int     `json:"flows_started"`
	FlowsDone    int     `json:"flows_done"`
	WallMS       float64 `json:"wall_ms"`
	Done         bool    `json:"done"`
}

// RunBoard is the snapshot mailbox between a running scenario (publishers:
// its engine goroutines, one per shard) and the server (reader, HTTP
// goroutines).
type RunBoard struct {
	mu       sync.Mutex
	st       RunStatus
	readings []obs.CounterData
}

// Publish replaces the board's snapshot. Called from inside the sim
// loop, on every engine's clock.
func (b *RunBoard) Publish(st RunStatus, readings []obs.CounterData) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.st = st
	b.readings = readings
	b.mu.Unlock()
}

// Status returns the latest published status.
func (b *RunBoard) Status() RunStatus {
	if b == nil {
		return RunStatus{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.st
}

// Readings returns the latest published metric readings.
func (b *RunBoard) Readings() []obs.CounterData {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.readings
}

// Serve starts a Server over the board.
func (b *RunBoard) Serve(addr string) (*Server, string, error) {
	s := NewServer(func() any { return b.Status() }, b.Readings)
	bound, err := s.Start(addr)
	if err != nil {
		return nil, "", err
	}
	return s, bound, nil
}
