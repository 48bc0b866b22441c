package sweepsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"surfbless/internal/probe"
)

// API wire types for the endpoints that take request bodies.
type (
	// SubmitRequest is the body of POST /api/jobs.
	SubmitRequest struct {
		Spec Spec `json:"spec"`
	}
	// SubmitResponse acknowledges an admitted (and journaled) job.
	SubmitResponse struct {
		Job    string `json:"job"`
		Points int    `json:"points"`
	}
	// LeaseRequest is the body of POST /api/lease.  Wait holds an ask
	// that finds no work at the coordinator until work may have
	// appeared, for up to a second.
	LeaseRequest struct {
		Worker string `json:"worker"`
		Max    int    `json:"max"`
		Wait   bool   `json:"wait,omitempty"`
	}
	// LeaseResponse carries the granted work units (possibly empty).
	LeaseResponse struct {
		Leases []Lease `json:"leases"`
	}
	// RenewRequest is the body of POST /api/renew — the worker's
	// heartbeat.
	RenewRequest struct {
		Worker string   `json:"worker"`
		Leases []string `json:"leases"`
	}
	// RenewResponse reports the leases the coordinator no longer honors.
	RenewResponse struct {
		Lost []string `json:"lost,omitempty"`
	}
	// CompleteResponse reports whether the completion was the point's
	// first (false = idempotent duplicate, dropped).
	CompleteResponse struct {
		Accepted bool `json:"accepted"`
	}
)

// waitBound is how long the server holds a waiting request before it
// answers with what it has — well under the client's 10 s timeout.
const waitBound = time.Second

// Server exposes a Coordinator over HTTP.
type Server struct {
	coord *Coordinator
	srv   *http.Server
	addr  string
	done  chan struct{}
}

// NewServer binds addr (host:port; 127.0.0.1:0 for an ephemeral port)
// and starts serving the coordinator's API:
//
//	POST /api/jobs              submit a sweep spec        → SubmitResponse
//	GET  /api/jobs              list job IDs               → []string
//	GET  /api/jobs/{id}         job progress               → JobStatus
//	GET  /api/jobs/{id}/rows    per-point rows             → []PointRow
//	GET  /api/jobs/{id}/csv     completed job's CSV        → text/csv
//	POST /api/lease             acquire work units         → LeaseResponse
//	POST /api/renew             heartbeat leases           → RenewResponse
//	POST /api/complete          report a finished point    → CompleteResponse
//	GET  /healthz               liveness                   → "ok"
//	GET  /metrics               Prometheus text (when metrics were wired)
//
// Two requests may wait, up to waitBound, for the coordinator to
// change: a lease ask with Wait set that finds no work, and a rows
// request whose ?done=N names the done count its client last saw.
func NewServer(addr string, c *Coordinator, m *probe.Metrics) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("sweepsvc: listen: %w", err)
	}
	s := &Server{coord: c, addr: ln.Addr().String(), done: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/api/jobs", s.handleJobs)
	mux.HandleFunc("/api/jobs/", s.handleJob)
	mux.HandleFunc("/api/lease", s.handleLease)
	mux.HandleFunc("/api/renew", s.handleRenew)
	mux.HandleFunc("/api/complete", s.handleComplete)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	if m != nil {
		mux.Handle("/metrics", m.Handler())
	}
	s.srv = &http.Server{Handler: mux}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln) //nolint:errcheck // ErrServerClosed on shutdown
	}()
	return s, nil
}

// Addr returns the server's bound address (host:port).
func (s *Server) Addr() string { return s.addr }

// Close stops the listener and drops every connection, which ends
// the requests waiting on it.  The coordinator (and its WAL) stays
// open — the caller owns it, which is what lets a driver bounce the
// HTTP layer without touching the journal.
func (s *Server) Close() error {
	err := s.srv.Close()
	<-s.done
	return err
}

// await holds request r until ready reports true, the request's client
// leaves, or waitBound lapses, checking again at every coordinator
// change.  It takes the change signal before each check, so no change
// slips between a check and the wait.
func (s *Server) await(r *http.Request, ready func() bool) {
	bound := time.NewTimer(waitBound)
	defer bound.Stop()
	for {
		changed := s.coord.nextChange()
		if ready() {
			return
		}
		select {
		case <-changed:
		case <-bound.C:
			return
		case <-r.Context().Done():
			return
		}
	}
}

// decode parses a JSON request body into v, answering 400 on failure.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// reply writes v as JSON.
func reply(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var req SubmitRequest
		if !decode(w, r, &req) {
			return
		}
		id, points, err := s.coord.SubmitJob(req.Spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		reply(w, SubmitResponse{Job: id, Points: points})
	case http.MethodGet:
		reply(w, s.coord.Jobs())
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/api/jobs/")
	if id, ok := strings.CutSuffix(rest, "/rows"); ok {
		// ?done=N waits until the job's done count differs from N;
		// without a count the answer comes at once.
		seen, err := strconv.Atoi(r.URL.Query().Get("done"))
		if err != nil {
			seen = -1
		}
		var rows []PointRow
		s.await(r, func() bool {
			rows, err = s.coord.Rows(id)
			done, _ := CountDone(rows)
			return err != nil || seen < 0 || done != seen
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		reply(w, rows)
		return
	}
	if id, ok := strings.CutSuffix(rest, "/csv"); ok {
		csv, err := s.coord.CSV(id)
		if err != nil {
			code := http.StatusConflict // known but unfinished
			if errors.Is(err, errUnknownJob) {
				code = http.StatusNotFound
			}
			http.Error(w, err.Error(), code)
			return
		}
		w.Header().Set("Content-Type", "text/csv")
		fmt.Fprint(w, csv) //nolint:errcheck // client gone
		return
	}
	st, err := s.coord.Status(rest)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	reply(w, st)
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if !decode(w, r, &req) {
		return
	}
	var leases []Lease
	var err error
	s.await(r, func() bool {
		leases, err = s.coord.AcquireLeases(req.Worker, req.Max)
		return err != nil || len(leases) > 0 || !req.Wait
	})
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	if r.Context().Err() != nil {
		// The asker left before the answer: nobody will run these.
		s.coord.ReleaseLeases(req.Worker, leases)
		return
	}
	reply(w, LeaseResponse{Leases: leases})
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if !decode(w, r, &req) {
		return
	}
	reply(w, RenewResponse{Lost: s.coord.RenewLeases(req.Worker, req.Leases)})
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var comp Completion
	if !decode(w, r, &comp) {
		return
	}
	accepted, err := s.coord.CompletePoint(comp)
	if err != nil {
		// Unknown job/point: the worker is talking to a coordinator that
		// never journaled this job (operator error) — nothing to retry.
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	reply(w, CompleteResponse{Accepted: accepted})
}
