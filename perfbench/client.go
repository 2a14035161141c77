package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"histanon/internal/geo"
	"histanon/internal/httpapi"
	"histanon/internal/wire"
)

// client is one keep-alive HTTP connection to the target.
type client struct {
	hc  *http.Client
	tr  *http.Transport
	url string
	buf bytes.Buffer
}

func newClient(url string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, tr: tr, url: url}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// post sends one body and reads the whole response into c.buf. seq >= 0
// tags the call for the traced run's client-minus-serve split.
func (c *client) post(path, contentType string, body []byte, seq int64) (int, error) {
	req, err := http.NewRequest(http.MethodPost, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", contentType)
	if contentType == httpapi.WireContentType {
		req.Header.Set("Accept", httpapi.WireContentType)
	}
	if seq >= 0 {
		req.Header.Set(seqHeader, strconv.FormatInt(seq, 10))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// decision is what the client learns about one service call, from
// either encoding.
type decision struct {
	forwarded, generalized, hk, suppressed, degraded, hasCtx bool
	pseudonym, degradedReason                                string
	ctx                                                      geo.STBox
}

func fromJSON(body []byte) (decision, error) {
	var r httpapi.DecisionResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return decision{}, err
	}
	d := decision{
		forwarded: r.Forwarded, generalized: r.Generalized, hk: r.HKAnonymity,
		suppressed: r.Suppressed, degraded: r.Degraded, pseudonym: r.Pseudonym,
		degradedReason: r.DegradedReason,
	}
	if r.Context != nil {
		d.hasCtx = true
		d.ctx = geo.STBox{
			Area: geo.Rect{MinX: r.Context.MinX, MinY: r.Context.MinY, MaxX: r.Context.MaxX, MaxY: r.Context.MaxY},
			Time: geo.Interval{Start: r.Context.Start, End: r.Context.End},
		}
	}
	return d, nil
}

// decodeDecisions parses a binary batch response into want decisions.
func decodeDecisions(body []byte, want int, out []decision) ([]decision, error) {
	out = out[:0]
	if want == 0 && len(body) == 0 {
		return out, nil
	}
	dec, err := wire.NewBatchDecoder(body)
	if err != nil {
		return out, err
	}
	for dec.Next() {
		f, err := wire.ParseDecisionPayload(dec.Flags(), dec.Payload())
		if err != nil {
			return out, err
		}
		out = append(out, decision{
			forwarded: f.Forwarded, generalized: f.Generalized, hk: f.HKAnonymity,
			suppressed: f.Suppressed, degraded: f.Degraded, pseudonym: f.Pseudonym,
			degradedReason: f.DegradedReason, hasCtx: f.HasContext, ctx: f.Context,
		})
	}
	if err := dec.Err(); err != nil {
		return out, err
	}
	if len(out) != want {
		return out, fmt.Errorf("batch answered %d decisions for %d service calls", len(out), want)
	}
	return out, nil
}

// checkDecision is the per-decision output check: a forwarded context
// must contain the exact request point, and a context released with
// historical k-anonymity must fit the service's tolerance.
func checkDecision(c call, d decision) error {
	if !d.forwarded {
		return nil
	}
	if !d.hasCtx {
		return fmt.Errorf("user %d t=%d: forwarded without a context", c.user, c.pt.T)
	}
	if !d.ctx.Contains(c.pt) {
		return fmt.Errorf("user %d: forwarded context %v excludes the request point %v", c.user, d.ctx, c.pt)
	}
	if d.hk && !toleranceFor(c.service).Allows(d.ctx) {
		return fmt.Errorf("user %d: context %v claims hkAnonymity but exceeds the %s tolerance", c.user, d.ctx, c.service)
	}
	return nil
}
