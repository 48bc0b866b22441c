package probe

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is a small Prometheus-text metrics registry for the service
// layer: counters owned by the registry (Counter, atomically updated),
// and counters and gauges computed at scrape time from a callback
// (CounterFunc / GaugeFunc, e.g. the simcache hit/miss counters).  It
// exists so `-http` runs can expose live run state without depending
// on a metrics library; the exposition format is the Prometheus text
// format version 0.0.4, which Prometheus, Grafana Agent and `promtool`
// all scrape natively.
//
// Registration is idempotent: re-registering a name returns the
// existing instrument (Func variants replace the callback), so the
// per-run wiring in cmd/experiments and cmd/sweep can re-register on
// every run without accumulating duplicates.  All methods are safe
// for concurrent use — scrapes race with simulation goroutines.
type Metrics struct {
	mu     sync.Mutex
	order  []string
	metric map[string]*instrument
}

// metric kinds in the exposition's # TYPE line.
const (
	kindCounter = "counter"
	kindGauge   = "gauge"
)

type instrument struct {
	name string
	help string
	kind string
	val  atomic.Int64
	fn   func() int64 // scrape-time source; nil for owned instruments
}

// Counter is a monotonically increasing owned metric.  The zero value
// is a no-op sink, so instrumented code can update counters
// unconditionally whether or not a registry was wired.
type Counter struct{ in *instrument }

// Add increments the counter by n (n must be ≥ 0 to keep the metric
// monotone; negative deltas are ignored).
func (c Counter) Add(n int64) {
	if c.in != nil && n > 0 {
		c.in.val.Add(n)
	}
}

// Inc increments the counter by one.
func (c Counter) Inc() {
	if c.in != nil {
		c.in.val.Add(1)
	}
}

// Value returns the current count (0 for the zero value).
func (c Counter) Value() int64 {
	if c.in == nil {
		return 0
	}
	return c.in.val.Load()
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{metric: make(map[string]*instrument)}
}

func (m *Metrics) register(name, help, kind string, fn func() int64) *instrument {
	if err := checkMetricName(name); err != nil {
		panic(err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	in, ok := m.metric[name]
	if !ok {
		in = &instrument{name: name, help: help, kind: kind}
		m.metric[name] = in
		m.order = append(m.order, name)
	}
	if in.kind != kind {
		panic(fmt.Sprintf("metrics: %q re-registered as %s (was %s)", name, kind, in.kind))
	}
	in.fn = fn // Func re-registration rebinds the source; nil for owned
	return in
}

// Counter registers (or returns the existing) owned counter name.
func (m *Metrics) Counter(name, help string) Counter {
	return Counter{m.register(name, help, kindCounter, nil)}
}

// CounterFunc registers a counter whose value is read from fn at
// scrape time.  fn must be safe to call concurrently.
func (m *Metrics) CounterFunc(name, help string, fn func() int64) {
	m.register(name, help, kindCounter, fn)
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time.  fn must be safe to call concurrently.
func (m *Metrics) GaugeFunc(name, help string, fn func() int64) {
	m.register(name, help, kindGauge, fn)
}

// WritePrometheus writes every registered metric in the Prometheus
// text exposition format, in registration order.
func (m *Metrics) WritePrometheus(w *strings.Builder) {
	m.mu.Lock()
	names := append([]string(nil), m.order...)
	ins := make([]*instrument, len(names))
	for i, n := range names {
		ins[i] = m.metric[n]
	}
	m.mu.Unlock()
	for _, in := range ins {
		v := in.val.Load()
		if in.fn != nil {
			v = in.fn()
		}
		if in.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", in.name, escapeHelp(in.help))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", in.name, in.kind)
		fmt.Fprintf(w, "%s %d\n", in.name, v)
	}
}

// Handler returns the /metrics HTTP handler serving the registry.
func (m *Metrics) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		m.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprint(w, b.String())
	})
}

// checkMetricName enforces the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func checkMetricName(name string) error {
	if name == "" {
		return fmt.Errorf("metrics: empty name")
	}
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if !ok {
			return fmt.Errorf("metrics: invalid metric name %q", name)
		}
	}
	return nil
}

// escapeHelp escapes backslashes and newlines per the exposition spec.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
