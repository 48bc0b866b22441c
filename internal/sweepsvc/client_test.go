package sweepsvc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"surfbless/internal/sweepsvc/backoff"
)

// roundTripper answers every request with one status code, or fails
// the trip when the code is 0, and counts the trips.
type roundTripper struct {
	trips atomic.Int64
	code  int
}

func (rt *roundTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	rt.trips.Add(1)
	if rt.code == 0 {
		return nil, errors.New("connection refused")
	}
	return &http.Response{
		StatusCode: rt.code, Status: fmt.Sprintf("%d %s", rt.code, http.StatusText(rt.code)),
		Body: io.NopCloser(strings.NewReader("unknown job")), Request: req,
	}, nil
}

// The retry wrappers stop early only on a coordinator's 404 answer.  A
// transport failure whose text happens to contain "404" — job j404, a
// port such as 40404 — is an outage like any other and uses the whole
// budget.
func TestClientRetryStopsOnlyOnNotFound(t *testing.T) {
	const attempts = 3
	pol := backoff.Policy{Base: time.Microsecond, Seed: 1}
	ctx := context.Background()
	for _, tc := range []struct {
		name, addr, job string
		code            int
		wantTrips       int64
	}{
		{"outage on job j404", "127.0.0.1:8080", "j404", 0, attempts},
		{"outage on port 40404", "127.0.0.1:40404", "j12", 0, attempts},
		{"coordinator 404", "127.0.0.1:8080", "j12", http.StatusNotFound, 1},
		{"coordinator 503", "127.0.0.1:8080", "j12", http.StatusServiceUnavailable, attempts},
	} {
		calls := map[string]func(c *Client) error{
			"rows": func(c *Client) error { _, err := c.RowsWithRetry(ctx, pol, attempts, tc.job, -1); return err },
			"complete": func(c *Client) error {
				_, err := c.CompleteWithRetry(ctx, pol, attempts, Completion{Job: tc.job})
				return err
			},
		}
		for name, call := range calls {
			rt := &roundTripper{code: tc.code}
			c := NewClient(tc.addr)
			c.HTTP = &http.Client{Transport: rt}
			if err := call(c); err == nil {
				t.Errorf("%s, %s: no error", tc.name, name)
			}
			if got := rt.trips.Load(); got != tc.wantTrips {
				t.Errorf("%s, %s: %d round trip(s), want %d", tc.name, name, got, tc.wantTrips)
			}
		}
	}
}

// A CSV request tells an unknown job (404, which stops the retry
// helpers) from one that is still running (409).
func TestClientCSVUnknownJobIsNotFound(t *testing.T) {
	_, srv := startService(t, filepath.Join(t.TempDir(), "wal"), nil, nil)
	client := NewClient(srv.Addr())
	ctx := context.Background()
	job, _, err := client.Submit(ctx, testSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	for _, tc := range []struct {
		job  string
		code int
	}{
		{"j404", http.StatusNotFound},
		{job, http.StatusConflict},
	} {
		_, err := client.CSV(ctx, tc.job)
		var se *statusError
		if !errors.As(err, &se) || se.code != tc.code {
			t.Errorf("CSV(%s) = %v, want a %d status error", tc.job, err, tc.code)
		}
	}
}
