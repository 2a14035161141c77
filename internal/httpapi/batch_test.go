package httpapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"histanon/internal/tgran"
	"histanon/internal/wire"
)

// buildLocationBatch encodes location updates for users [2..n+1] into
// one batch frame, mirroring the crowd TestEndToEndFlow records over
// JSON.
func buildCrowdBatch(t *testing.T, n int) []byte {
	t.Helper()
	var frames []byte
	for u := int64(2); u < int64(2+n); u++ {
		frames = wire.AppendLocation(frames, wire.LocationUpdate{
			User: u, X: float64(u * 20), Y: float64(u * 15), T: 7*tgran.Hour + u*30,
		})
	}
	batch, err := wire.AppendBatch(nil, n, frames)
	if err != nil {
		t.Fatal(err)
	}
	return batch
}

func postBatch(t *testing.T, url string, body []byte, accept string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", WireContentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBatchEndToEnd drives the binary channel through the same flow as
// the JSON TestEndToEndFlow: crowd via a location batch, then a
// service-call batch whose decision must match a JSON /v1/request for
// the same op.
func TestBatchEndToEnd(t *testing.T) {
	hts, srv, provider := newTestServer(t)
	c := NewClient(hts.URL)
	if err := c.SetPolicyLevel(1, "medium"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLBQID(1, commuteSpec); err != nil {
		t.Fatal(err)
	}

	resp := postBatch(t, hts.URL, buildCrowdBatch(t, 8), "")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("location batch: status %d: %s", resp.StatusCode, body)
	}

	// A service call through the binary channel...
	call := wire.ServiceCall{
		User: 1, X: 100, Y: 100, T: 7*tgran.Hour + 600,
		Service: "navigation", Data: map[string]string{"dest": "office"},
	}
	frames, err := wire.AppendServiceCall(nil, call)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := wire.AppendBatch(nil, 1, frames)
	if err != nil {
		t.Fatal(err)
	}
	resp = postBatch(t, hts.URL, batch, WireContentType)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("call batch: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != WireContentType {
		t.Fatalf("response content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := wire.NewBatchDecoder(body)
	if err != nil {
		t.Fatal(err)
	}
	var decisions []wire.DecisionFrame
	for dec.Next() {
		if dec.Type() != wire.FrameDecision {
			t.Fatalf("unexpected response frame %s", dec.Type())
		}
		d, err := wire.ParseDecisionPayload(dec.Flags(), dec.Payload())
		if err != nil {
			t.Fatal(err)
		}
		decisions = append(decisions, d)
	}
	if err := dec.Err(); err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 {
		t.Fatalf("got %d decisions, want 1", len(decisions))
	}
	d := decisions[0]
	if !d.Forwarded || !d.Generalized || d.MatchedLBQID != "commute" || !d.HKAnonymity {
		t.Fatalf("decision: %+v", d)
	}
	if !d.HasContext || d.Context.Area.MaxX <= d.Context.Area.MinX || d.Pseudonym == "" {
		t.Fatalf("decision context: %+v", d)
	}

	// The SP saw the same generalized request shape as over JSON.
	reqs := provider.Requests()
	if len(reqs) != 1 || reqs[0].Service != "navigation" {
		t.Fatalf("provider requests: %+v", reqs)
	}
	if !reflect.DeepEqual(reqs[0].Context, d.Context) {
		t.Fatalf("decision context %+v != forwarded context %+v", d.Context, reqs[0].Context)
	}

	// Wire metrics moved.
	ws := srv.Wire
	if ws.Batches.Load() != 2 || ws.Locations.Load() != 8 || ws.ServiceCalls.Load() != 1 {
		t.Fatalf("wire stats: batches=%d locations=%d calls=%d",
			ws.Batches.Load(), ws.Locations.Load(), ws.ServiceCalls.Load())
	}
	if ws.Bytes.Load() == 0 || ws.BatchFrames.Count() != 2 {
		t.Fatalf("wire stats: bytes=%d batch_frames_count=%d", ws.Bytes.Load(), ws.BatchFrames.Count())
	}

	// And they show up in the exposition.
	mresp, err := http.Get(hts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	text, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{
		`histanon_wire_batches_total 2`,
		`histanon_wire_frames_total{type="location"} 8`,
		`histanon_wire_frames_total{type="service_call"} 1`,
	} {
		if !strings.Contains(string(text), want) {
			t.Fatalf("exposition missing %q", want)
		}
	}
}

// TestBatchContentNegotiation pins the rejection paths: wrong
// Content-Type gets 415, garbage and wrong frame types get 400 and
// count decode errors.
func TestBatchContentNegotiation(t *testing.T) {
	hts, srv, _ := newTestServer(t)

	req, _ := http.NewRequest(http.MethodPost, hts.URL+"/v1/batch", strings.NewReader(`{"user":1}`))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON body on batch endpoint: status %d, want 415", resp.StatusCode)
	}

	resp = postBatch(t, hts.URL, []byte("not a batch"), "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage batch: status %d, want 400", resp.StatusCode)
	}

	// A decision frame is TS→device traffic; the ingest endpoint rejects
	// it as a frame of another type.
	batch, err := wire.AppendBatch(nil, 1, wire.AppendDecision(nil, wire.DecisionFrame{Forwarded: true, Pseudonym: "p"}))
	if err != nil {
		t.Fatal(err)
	}
	resp = postBatch(t, hts.URL, batch, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("decision frame on ingest: status %d, want 400", resp.StatusCode)
	}

	if got := srv.Wire.DecodeErrors.Load(); got != 2 {
		t.Fatalf("decode errors %d, want 2", got)
	}
	if got := srv.Wire.Other.Load(); got != 1 {
		t.Fatalf("rejected frames of other types %d, want 1", got)
	}
}

// TestEmptyDataKeyRejectedOnBothChannels: a service call whose data map
// has an empty key is malformed on both ingest channels. POST
// /v1/request and POST /v1/batch each answer 400, and the TS forwards
// nothing.
func TestEmptyDataKeyRejectedOnBothChannels(t *testing.T) {
	hts, _, provider := newTestServer(t)
	resp := postBatch(t, hts.URL, buildCrowdBatch(t, 8), "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("crowd batch: status %d", resp.StatusCode)
	}
	call := ServiceRequest{User: 1, X: 100, Y: 100, T: 7*tgran.Hour + 600, Service: "navigation",
		Data: map[string]string{"": "v"}}

	body, err := json.Marshal(call)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(hts.URL+"/v1/request", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/v1/request: status %d, want 400", resp.StatusCode)
	}

	// wire.AppendServiceCall refuses the call, so frame it by hand:
	// encode it with the key "k", then empty the key ("\x01k" becomes
	// "\x00", one payload byte fewer).
	frame, err := wire.AppendServiceCall(nil, wire.ServiceCall{User: call.User, X: call.X, Y: call.Y, T: call.T,
		Service: call.Service, Data: map[string]string{"k": "v"}})
	if err != nil {
		t.Fatal(err)
	}
	frame = append(frame[:len(frame)-4], 0, 1, 'v')
	binary.LittleEndian.PutUint32(frame[5:9], binary.LittleEndian.Uint32(frame[5:9])-1)
	batch, err := wire.AppendBatch(nil, 1, frame)
	if err != nil {
		t.Fatal(err)
	}
	resp = postBatch(t, hts.URL, batch, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/v1/batch: status %d, want 400", resp.StatusCode)
	}

	if reqs := provider.Requests(); len(reqs) != 0 {
		t.Fatalf("forwarded %d requests, want none: %v", len(reqs), reqs[0])
	}
}

// TestBatchRunRecordedBeforeServiceCall pins the handler's flush order:
// a service call whose only possible witnesses are other users'
// location frames earlier in the same batch must see them, and get a
// generalized k-anonymous context. The batch carries no Accept header:
// decision frames are the endpoint's only answer.
func TestBatchRunRecordedBeforeServiceCall(t *testing.T) {
	hts, srv, _ := newTestServer(t)
	if err := NewClient(hts.URL).AddLBQID(1, commuteSpec); err != nil {
		t.Fatal(err)
	}
	if n := srv.Store().NumSamples(); n != 0 {
		t.Fatalf("PHL holds %d samples before the batch", n)
	}
	var frames []byte
	for u := int64(2); u <= 9; u++ {
		frames = wire.AppendLocation(frames, wire.LocationUpdate{
			User: u, X: float64(u * 20), Y: float64(u * 15), T: 7*tgran.Hour + u*30,
		})
	}
	frames, err := wire.AppendServiceCall(frames, wire.ServiceCall{
		User: 1, X: 100, Y: 100, T: 7*tgran.Hour + 600, Service: "navigation",
	})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := wire.AppendBatch(nil, 9, frames)
	if err != nil {
		t.Fatal(err)
	}
	resp := postBatch(t, hts.URL, batch, "")
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != WireContentType {
		t.Fatalf("response content type %q without an Accept header, want %q", ct, WireContentType)
	}
	dec, err := wire.NewBatchDecoder(body)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Next() || dec.Type() != wire.FrameDecision {
		t.Fatalf("no decision frame in the response (%v)", dec.Err())
	}
	d, err := wire.ParseDecisionPayload(dec.Flags(), dec.Payload())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Forwarded || !d.Generalized || !d.HKAnonymity || !d.HasContext {
		t.Fatalf("call after the run: %+v, want a forwarded k-anonymous generalization", d)
	}
	if n := srv.Store().CountUsersIn(d.Context); n < 3 {
		t.Fatalf("context %v holds %d users, want k=3", d.Context, n)
	}
}

// TestBatchMalformedFrameRecordsEarlierRun: a batch whose frame after
// N location frames is malformed gets a 400, and the N locations are
// recorded, as they were when each frame was recorded on decode, and
// counted as location frames. The batch itself is not counted.
func TestBatchMalformedFrameRecordsEarlierRun(t *testing.T) {
	tails := map[string][]byte{
		"non-finite location": wire.AppendLocation(nil, wire.LocationUpdate{User: 99, X: math.NaN(), Y: 1, T: 1}),
		"decision frame":      wire.AppendDecision(nil, wire.DecisionFrame{Forwarded: true, Pseudonym: "p"}),
		"undecodable frame":   make([]byte, 9),
	}
	const n = 5
	for name, tail := range tails {
		t.Run(name, func(t *testing.T) {
			hts, srv, _ := newTestServer(t)
			var frames []byte
			for u := int64(10); u < 10+n; u++ {
				frames = wire.AppendLocation(frames, wire.LocationUpdate{User: u, X: float64(u), Y: 2, T: 3})
			}
			batch, err := wire.AppendBatch(nil, n+1, append(frames, tail...))
			if err != nil {
				t.Fatal(err)
			}
			resp := postBatch(t, hts.URL, batch, "")
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if got := srv.Store().NumSamples(); got != n {
				t.Fatalf("recorded %d samples, want the %d before the malformed frame", got, n)
			}
			if got := srv.Wire.DecodeErrors.Load(); got != 1 {
				t.Fatalf("decode errors %d, want 1", got)
			}
			if got := srv.Wire.Locations.Load(); got != n {
				t.Fatalf("counted %d location frames, want the %d recorded", got, n)
			}
			if got := srv.Wire.Batches.Load(); got != 0 {
				t.Fatalf("counted %d batches, want 0", got)
			}
		})
	}
}

// TestOutOfRangeTimeRejectedOnEveryChannel: a timestamp at or beyond
// ±2^53 s, where time differences wrap int64, answers 400 on
// /v1/location, /v1/request and both frame types of /v1/batch, and the
// sample is not recorded. In a batch, the locations ahead of the frame
// are recorded, as for any malformed frame.
func TestOutOfRangeTimeRejectedOnEveryChannel(t *testing.T) {
	const n = 3
	run := func() []byte {
		var frames []byte
		for u := int64(10); u < 10+n; u++ {
			frames = wire.AppendLocation(frames, wire.LocationUpdate{User: u, X: float64(u), Y: 2, T: 3})
		}
		return frames
	}
	for _, at := range []int64{math.MaxInt64 - 5, math.MinInt64 + 5} {
		for _, ch := range []struct {
			name  string
			batch bool
			post  func(t *testing.T, url string) int
		}{
			{"location", false, func(t *testing.T, url string) int {
				return postJSON(t, url+"/v1/location", LocationRequest{User: 1, X: 1, Y: 1, T: at})
			}},
			{"request", false, func(t *testing.T, url string) int {
				return postJSON(t, url+"/v1/request", ServiceRequest{User: 1, X: 1, Y: 1, T: at, Service: "navigation"})
			}},
			{"batch location", true, func(t *testing.T, url string) int {
				return postFrames(t, url, n+1, wire.AppendLocation(run(), wire.LocationUpdate{User: 1, X: 1, Y: 1, T: at}))
			}},
			{"batch service_call", true, func(t *testing.T, url string) int {
				frames, err := wire.AppendServiceCall(run(), wire.ServiceCall{User: 1, X: 1, Y: 1, T: at, Service: "navigation"})
				if err != nil {
					t.Fatal(err)
				}
				return postFrames(t, url, n+1, frames)
			}},
		} {
			t.Run(fmt.Sprintf("%s T=%d", ch.name, at), func(t *testing.T) {
				hts, srv, provider := newTestServer(t)
				if status := ch.post(t, hts.URL); status != http.StatusBadRequest {
					t.Fatalf("status %d, want 400", status)
				}
				want := 0
				if ch.batch {
					want = n
				}
				if got := srv.Store().NumSamples(); got != want {
					t.Fatalf("recorded %d samples, want %d", got, want)
				}
				if got := srv.Counters.Get("requests"); got != 0 {
					t.Fatalf("decided %d requests, want 0", got)
				}
				if reqs := provider.Requests(); len(reqs) != 0 {
					t.Fatalf("forwarded %d requests, want none", len(reqs))
				}
			})
		}
	}
}

func postJSON(t *testing.T, url string, v any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func postFrames(t *testing.T, url string, count int, frames []byte) int {
	t.Helper()
	batch, err := wire.AppendBatch(nil, count, frames)
	if err != nil {
		t.Fatal(err)
	}
	resp := postBatch(t, url, batch, "")
	resp.Body.Close()
	return resp.StatusCode
}
