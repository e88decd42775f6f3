package twitterapi

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"github.com/pseudo-honeypot/pseudohoneypot/internal/metrics"
)

// Client consumes the emulated Twitter API: REST helpers plus the
// statuses/filter stream, as the paper's Tweepy-based implementation
// consumed the real ones.
type Client struct {
	base string
	http *http.Client
	ins  *clientInstruments

	// MaxBackoff caps how long a REST call honours a 429's Retry-After.
	MaxBackoff time.Duration
}

// NewClient creates a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"). httpClient may be nil for http.DefaultClient.
// Instrumentation reports through metrics.Default(); see SetMetrics.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base:       strings.TrimRight(baseURL, "/"),
		http:       httpClient,
		ins:        newClientInstruments(metrics.Default()),
		MaxBackoff: 8 * time.Second,
	}
}

// SetMetrics rebinds the client's instrumentation to r (call before use).
func (c *Client) SetMetrics(r *metrics.Registry) {
	c.ins = newClientInstruments(r)
}

// UsersLookup fetches a batch of users by id; unknown ids are skipped.
func (c *Client) UsersLookup(ctx context.Context, ids []int64) ([]User, error) {
	var users []User
	err := c.getJSON(ctx, "/1.1/users/lookup.json", url.Values{
		"user_id": {joinIDs(ids)},
	}, &users)
	return users, err
}

// joinIDs renders ids as a comma-separated list.
func joinIDs[ID ~int64](ids []ID) string {
	b := make([]byte, 0, 8*len(ids))
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return string(b)
}

// Advance asks the simulation server to run n hours.
func (c *Client) Advance(ctx context.Context, hours int) (*SimStats, error) {
	u := fmt.Sprintf("%s/sim/advance.json?hours=%d", c.base, hours)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, nil)
	if err != nil {
		return nil, err
	}
	var stats SimStats
	if err := c.do(req, &stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

// Stats fetches simulation counters.
func (c *Client) Stats(ctx context.Context) (*SimStats, error) {
	var stats SimStats
	if err := c.getJSON(ctx, "/sim/stats.json", nil, &stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

// StreamConn is one open statuses/filter connection.
type StreamConn struct {
	c       *Client
	body    io.ReadCloser
	scanner *bufio.Scanner
}

// newStreamConn reads NDJSON lines of at most maxStreamLine bytes from
// body.
func newStreamConn(c *Client, body io.ReadCloser) *StreamConn {
	scanner := bufio.NewScanner(body)
	scanner.Buffer(make([]byte, 0, 64*1024), maxStreamLine)
	return &StreamConn{c: c, body: body, scanner: scanner}
}

// Stream opens one statuses/filter connection tracking the given
// @screen_name mentions (nil for the full firehose). It returns once the
// server has registered the stream and answered with its headers, so
// traffic generated after Stream returns is delivered to it. A rejected
// request comes back as the server's error; nothing is retried, because a
// stream that reconnected would have silently lost whatever was posted
// while it was away. Cancelling ctx ends the stream.
func (c *Client) Stream(ctx context.Context, track []string) (*StreamConn, error) {
	form := url.Values{}
	if len(track) > 0 {
		form.Set("track", strings.Join(track, ","))
	}
	req, err := c.newFormRequest(ctx, "/1.1/statuses/filter.json", form)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer func() {
			_ = resp.Body.Close()
		}()
		return nil, decodeAPIError(resp)
	}
	c.ins.connects.Inc()
	return newStreamConn(c, resp.Body), nil
}

// Next returns the stream's next line, decoded into a new Tweet that the
// caller owns: a tweet, or a control line (HourEnd set). It returns io.EOF
// when the server ended the stream.
func (s *StreamConn) Next() (*Tweet, error) {
	for s.scanner.Scan() {
		line := s.scanner.Bytes()
		if len(line) == 0 {
			continue // keep-alive
		}
		t := new(Tweet)
		if err := json.Unmarshal(line, t); err != nil {
			return nil, fmt.Errorf("decode stream: %w", err)
		}
		if t.HourEnd == nil {
			s.c.ins.streamTweets.Inc()
			metrics.MarkStreamRead(time.Now())
		}
		return t, nil
	}
	if err := s.scanner.Err(); err != nil {
		return nil, fmt.Errorf("read stream: %w", err)
	}
	return nil, io.EOF
}

// Close ends the stream.
func (s *StreamConn) Close() error { return s.body.Close() }

// maxStreamLine bounds one NDJSON stream line.
const maxStreamLine = 1024 * 1024

// newFormRequest builds a POST of vals as a form body.
func (c *Client) newFormRequest(ctx context.Context, path string, vals url.Values) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path,
		strings.NewReader(vals.Encode()))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	return req, nil
}

func (c *Client) getJSON(ctx context.Context, path string, vals url.Values, out any) error {
	u := c.base + path
	if len(vals) > 0 {
		u += "?" + vals.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	defer c.ins.reqSecs.With(req.URL.Path).ObserveDuration(time.Now())
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		// Honour Retry-After once, as well-behaved API consumers do.
		c.ins.rateLimited.Inc()
		wait := retryAfter(resp, c.MaxBackoff)
		_ = resp.Body.Close()
		select {
		case <-req.Context().Done():
			return req.Context().Err()
		case <-time.After(wait):
		}
		if req.GetBody != nil {
			// The first attempt consumed the form body.
			if req.Body, err = req.GetBody(); err != nil {
				return err
			}
		}
		resp, err = c.http.Do(req)
		if err != nil {
			return err
		}
	}
	defer func() {
		_ = resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	if out == nil {
		_, err := io.Copy(io.Discard, resp.Body)
		return err
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decode %s: %w", req.URL.Path, err)
	}
	return nil
}

// retryAfter parses the Retry-After header, clamped to maxWait.
func retryAfter(resp *http.Response, maxWait time.Duration) time.Duration {
	if maxWait <= 0 {
		maxWait = 8 * time.Second
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 0 {
		return maxWait
	}
	wait := time.Duration(secs) * time.Second
	if wait > maxWait {
		wait = maxWait
	}
	return wait
}

// errBodySnippet bounds how much of a non-JSON error body is quoted in the
// returned error.
const errBodySnippet = 256

func decodeAPIError(resp *http.Response) error {
	// Proxies and middleboxes answer with HTML or plain text; keep a
	// bounded snippet of whatever came back so those failures are
	// debuggable instead of an anonymous status code.
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var apiErr APIError
	if err := json.Unmarshal(body, &apiErr); err != nil || apiErr.Code == 0 {
		snippet := bytes.TrimSpace(body)
		suffix := ""
		if len(snippet) > errBodySnippet {
			snippet = snippet[:errBodySnippet]
			suffix = "..."
		}
		if len(snippet) == 0 {
			return fmt.Errorf("twitterapi: http %d", resp.StatusCode)
		}
		return fmt.Errorf("twitterapi: http %d: %s%s", resp.StatusCode, snippet, suffix)
	}
	return &apiErr
}
