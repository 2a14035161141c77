package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
)

// Client is a Go client for the histanon HTTP API — what a mobile
// device (or its platform SDK) would embed.
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:7408".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a client for the given base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// RecordLocation reports a location update.
func (c *Client) RecordLocation(user int64, x, y float64, t int64) error {
	var out map[string]string
	return c.post("/v1/location", LocationRequest{User: user, X: x, Y: y, T: t}, &out)
}

// Request issues a service request and returns the TS decision.
func (c *Client) Request(req ServiceRequest) (DecisionResponse, error) {
	var out DecisionResponse
	err := c.post("/v1/request", req, &out)
	return out, err
}

// RequestTraced issues a service request under an existing trace: the
// traceparent header value (e.g. from obs.TraceContext.Traceparent)
// rides along, so the server's request span joins the caller's trace.
// An empty traceparent behaves like Request.
func (c *Client) RequestTraced(req ServiceRequest, traceparent string) (DecisionResponse, error) {
	var out DecisionResponse
	buf, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	hreq, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/request", bytes.NewReader(buf))
	if err != nil {
		return out, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		hreq.Header.Set("traceparent", traceparent)
	}
	resp, err := c.httpClient().Do(hreq)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, decodeError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

// AddLBQID registers a quasi-identifier specification.
func (c *Client) AddLBQID(user int64, spec string) error {
	var out map[string]string
	return c.post("/v1/lbqid", LBQIDRequest{User: user, Spec: spec}, &out)
}

// SetPolicyLevel registers a qualitative privacy level for the user.
func (c *Client) SetPolicyLevel(user int64, level string) error {
	var out map[string]string
	return c.post("/v1/policy", PolicyRequest{User: user, Level: level}, &out)
}

// SetPolicy registers explicit privacy parameters.
func (c *Client) SetPolicy(user int64, k int, theta float64, suppress bool) error {
	var out map[string]string
	return c.post("/v1/policy", PolicyRequest{User: user, K: k, Theta: theta, Suppress: suppress}, &out)
}

// Stats fetches the server's event counters and generalization means.
func (c *Client) Stats() (StatsResponse, error) {
	var out StatsResponse
	resp, err := c.httpClient().Get(c.BaseURL + "/v1/stats")
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, decodeError(resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, err
}

func (c *Client) post(path string, body, out interface{}) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Post(c.BaseURL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeError(resp *http.Response) error {
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
		return fmt.Errorf("httpapi: %s (%s)", e.Error, resp.Status)
	}
	return fmt.Errorf("httpapi: unexpected status %s", resp.Status)
}
