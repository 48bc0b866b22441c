package sweepsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"surfbless/internal/sweepsvc/backoff"
)

// Client talks to a coordinator over HTTP.  Base is a function so the
// chaos harness (and any driver that restarts its coordinator on a new
// port) can re-resolve the address per request; NewClient wraps a fixed
// address for the common case.
type Client struct {
	// Base returns the coordinator's current base URL, e.g.
	// "http://127.0.0.1:8080".
	Base func() string
	// HTTP is the underlying client (nil = a 10 s-timeout default).
	HTTP *http.Client
}

// NewClient returns a client pinned to one coordinator address.
func NewClient(addr string) *Client {
	base := "http://" + addr
	return &Client{Base: func() string { return base }}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 10 * time.Second}
}

// statusError is a coordinator's non-2xx answer to one request.
type statusError struct {
	code int    // HTTP status code
	msg  string // request, status and the server's message
}

func (e *statusError) Error() string { return e.msg }

// do performs one round trip and returns the body of a 2xx answer; any
// other answer is a *statusError carrying the server's message.
func (c *Client) do(ctx context.Context, method, path string, in any) ([]byte, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("sweepsvc: client: %w", err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base()+path, body)
	if err != nil {
		return nil, fmt.Errorf("sweepsvc: client: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("sweepsvc: client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, &statusError{code: resp.StatusCode,
			msg: fmt.Sprintf("sweepsvc: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(msg))}
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("sweepsvc: client: %w", err)
	}
	return b, nil
}

// call performs one JSON round trip.  A nil out discards the body.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	b, err := c.do(ctx, method, path, in)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("sweepsvc: client: %w", err)
	}
	return nil
}

// withRetry runs one client call through transient coordinator outages
// (a bounce mid-sweep) under the given backoff policy.  A 404 — an
// unknown job: the journal is gone, the report outlived it, or the
// address is wrong — stops at once.
func withRetry[T any](ctx context.Context, p backoff.Policy, attempts int, call func() (T, error)) (out T, err error) {
	_, err = backoff.Retry(ctx, p, attempts, func(int) error {
		var cerr error
		out, cerr = call()
		var se *statusError
		if errors.As(cerr, &se) && se.code == http.StatusNotFound {
			return backoff.Stop(cerr)
		}
		return cerr
	})
	return out, err
}

// Submit admits a sweep job and returns its ID and point count.
func (c *Client) Submit(ctx context.Context, spec Spec) (string, int, error) {
	var resp SubmitResponse
	if err := c.call(ctx, http.MethodPost, "/api/jobs", SubmitRequest{Spec: spec}, &resp); err != nil {
		return "", 0, err
	}
	return resp.Job, resp.Points, nil
}

// Status fetches a job's progress.
func (c *Client) Status(ctx context.Context, job string) (JobStatus, error) {
	var st JobStatus
	err := c.call(ctx, http.MethodGet, "/api/jobs/"+job, nil, &st)
	return st, err
}

// CSV fetches a completed job's assembled output.
func (c *Client) CSV(ctx context.Context, job string) (string, error) {
	b, err := c.do(ctx, http.MethodGet, "/api/jobs/"+job+"/csv", nil)
	return string(b), err
}

// Rows fetches a job's per-point output state in rate order — readable
// while the job is still running, for incremental row printing.  With
// done ≥ 0 the coordinator answers once the job's done count differs
// from done, or after about a second; done < 0 answers at once.
func (c *Client) Rows(ctx context.Context, job string, done int) ([]PointRow, error) {
	path := "/api/jobs/" + job + "/rows"
	if done >= 0 {
		path += "?done=" + strconv.Itoa(done)
	}
	var rows []PointRow
	err := c.call(ctx, http.MethodGet, path, nil, &rows)
	return rows, err
}

// RowsWithRetry is Rows through withRetry.
func (c *Client) RowsWithRetry(ctx context.Context, p backoff.Policy, attempts int, job string, done int) ([]PointRow, error) {
	return withRetry(ctx, p, attempts, func() ([]PointRow, error) { return c.Rows(ctx, job, done) })
}

// Acquire asks for up to max leases for worker.  With wait set, an ask
// that finds no work waits at the coordinator, for about a second at
// most, until work may have appeared.
func (c *Client) Acquire(ctx context.Context, worker string, wait bool, max int) ([]Lease, error) {
	var resp LeaseResponse
	if err := c.call(ctx, http.MethodPost, "/api/lease", LeaseRequest{Worker: worker, Max: max, Wait: wait}, &resp); err != nil {
		return nil, err
	}
	return resp.Leases, nil
}

// Renew heartbeats the given leases, returning the ones the
// coordinator no longer honors.
func (c *Client) Renew(ctx context.Context, worker string, leases []string) ([]string, error) {
	var resp RenewResponse
	if err := c.call(ctx, http.MethodPost, "/api/renew", RenewRequest{Worker: worker, Leases: leases}, &resp); err != nil {
		return nil, err
	}
	return resp.Lost, nil
}

// Complete reports one finished point.  It returns whether the report
// was the point's first (false = dropped as an idempotent duplicate).
func (c *Client) Complete(ctx context.Context, comp Completion) (bool, error) {
	var resp CompleteResponse
	if err := c.call(ctx, http.MethodPost, "/api/complete", comp, &resp); err != nil {
		return false, err
	}
	return resp.Accepted, nil
}

// CompleteWithRetry is Complete through withRetry: a completion
// outlives a coordinator bounce, and if the lease expired meanwhile the
// coordinator still accepts the first report for the point.
func (c *Client) CompleteWithRetry(ctx context.Context, p backoff.Policy, attempts int, comp Completion) (bool, error) {
	return withRetry(ctx, p, attempts, func() (bool, error) { return c.Complete(ctx, comp) })
}
