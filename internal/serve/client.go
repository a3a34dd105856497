package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Client is the Go client for a nocserved instance. It retries the
// retryable outcomes — shed (429), draining and shutting_down (503),
// worker panics (500 "panic") and transport errors — with capped
// exponential backoff and full jitter, honoring Retry-After when the
// server sends one. Non-retryable outcomes (bad request, unknown
// experiment, timeout of the run itself) surface immediately.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// MaxAttempts caps tries per Run (default 6).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps one backoff sleep (default 5s).
	MaxDelay time.Duration
	// Seed makes the jitter deterministic for tests (0 = fixed default).
	Seed int64

	// Retries counts retried attempts across all Run calls (for SLO
	// reports).
	Retries atomic.Int64

	fillOnce sync.Once
	rngMu    sync.Mutex
	rng      *rand.Rand
}

// APIError is a non-200 response that Run gave up on.
type APIError struct {
	Code    int
	Payload ErrorPayload
}

func (e *APIError) Error() string {
	if e.Payload.Detail != "" {
		return fmt.Sprintf("serve: %d %s: %s", e.Code, e.Payload.Error, e.Payload.Detail)
	}
	return fmt.Sprintf("serve: %d %s", e.Code, e.Payload.Error)
}

// fill applies defaults exactly once; Run is called concurrently by the
// load generator's workers, so the writes must not repeat per call.
func (c *Client) fill() {
	c.fillOnce.Do(func() {
		if c.HTTP == nil {
			c.HTTP = http.DefaultClient
		}
		if c.MaxAttempts <= 0 {
			c.MaxAttempts = 6
		}
		if c.BaseDelay <= 0 {
			c.BaseDelay = 100 * time.Millisecond
		}
		if c.MaxDelay <= 0 {
			c.MaxDelay = 5 * time.Second
		}
		seed := c.Seed
		if seed == 0 {
			seed = 1
		}
		c.rng = rand.New(rand.NewSource(seed))
	})
}

// Run posts req and returns the response, retrying retryable refusals.
func (c *Client) Run(ctx context.Context, req Request) (*Response, error) {
	var out Response
	if err := c.post(ctx, "/run", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// post sends req as JSON to path and decodes a 200 body into out:
// retryable refusals back off and go again, everything else surfaces
// immediately.
func (c *Client) post(ctx context.Context, path string, req, out any) error {
	c.fill()
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	var lastErr error
	for attempt := 0; attempt < c.MaxAttempts; attempt++ {
		if attempt > 0 {
			c.Retries.Add(1)
			if err := sleepCtx(ctx, c.backoff(attempt, lastErr)); err != nil {
				return err
			}
		}
		err := c.once(ctx, path, body, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable(err) {
			return err
		}
	}
	return fmt.Errorf("serve: giving up after %d attempts: %w", c.MaxAttempts, lastErr)
}

// once performs a single POST round trip, decoding a 200 body into out.
func (c *Client) once(ctx context.Context, path string, body []byte, out any) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	hr.Header.Set("Content-Type", "application/json")
	res, err := c.HTTP.Do(hr)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(io.LimitReader(res.Body, 64<<20))
	if err != nil {
		return err
	}
	if res.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("serve: bad response body: %w", err)
		}
		return nil
	}
	var p ErrorPayload
	_ = json.Unmarshal(data, &p) // tolerate non-JSON error bodies
	apiErr := &APIError{Code: res.StatusCode, Payload: p}
	if ra := res.Header.Get("Retry-After"); ra != "" && p.RetryAfterSec == 0 {
		if sec, err := strconv.Atoi(ra); err == nil {
			apiErr.Payload.RetryAfterSec = float64(sec)
		}
	}
	return apiErr
}

// retryable classifies an error as worth another attempt.
func retryable(err error) bool {
	var api *APIError
	if errors.As(err, &api) {
		switch api.Code {
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			return true
		case http.StatusInternalServerError:
			// Worker panics are transient (the crashed run left no bad
			// state behind); other 500s are real failures.
			return api.Payload.Error == "panic"
		}
		return false
	}
	// Transport-level failures (connection refused during a restart,
	// reset mid-response) are retryable; context expiry is not.
	return !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// backoff computes the sleep before attempt n (1-based for the first
// retry): server Retry-After when present, else capped exponential with
// full jitter.
func (c *Client) backoff(attempt int, lastErr error) time.Duration {
	var api *APIError
	if errors.As(lastErr, &api) && api.Payload.RetryAfterSec > 0 {
		return time.Duration(api.Payload.RetryAfterSec * float64(time.Second))
	}
	d := c.BaseDelay << (attempt - 1)
	if d > c.MaxDelay || d <= 0 {
		d = c.MaxDelay
	}
	c.rngMu.Lock()
	jittered := time.Duration(c.rng.Int63n(int64(d) + 1))
	c.rngMu.Unlock()
	return jittered
}

// sleepCtx sleeps d or returns early with the context's error.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
