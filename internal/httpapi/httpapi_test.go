package httpapi

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"histanon/internal/sp"
	"histanon/internal/tgran"
	"histanon/internal/ts"
)

func newTestServer(t *testing.T) (*httptest.Server, *ts.Server, *sp.Provider) {
	t.Helper()
	provider := sp.NewProvider()
	srv := ts.New(ts.Config{DefaultPolicy: ts.Policy{K: 3}}, provider)
	hts := httptest.NewServer(New(srv))
	t.Cleanup(hts.Close)
	return hts, srv, provider
}

const commuteSpec = `
lbqid "commute" {
    element area [0,400]x[0,400] time [06:00,10:00]
    recurrence 1.Days
}`

func TestHealthz(t *testing.T) {
	hts, _, _ := newTestServer(t)
	resp, err := http.Get(hts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status=%d", resp.StatusCode)
	}
}

func TestEndToEndFlow(t *testing.T) {
	hts, srv, provider := newTestServer(t)
	c := NewClient(hts.URL)

	if err := c.SetPolicyLevel(1, "medium"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddLBQID(1, commuteSpec); err != nil {
		t.Fatal(err)
	}
	// Crowd so that generalization can succeed (k=5 for medium).
	for u := int64(2); u <= 9; u++ {
		if err := c.RecordLocation(u, float64(u*20), float64(u*15), 7*tgran.Hour+u*30); err != nil {
			t.Fatal(err)
		}
	}

	dec, err := c.Request(ServiceRequest{
		User: 1, X: 100, Y: 100, T: 7*tgran.Hour + 600,
		Service: "navigation", Data: map[string]string{"dest": "office"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Forwarded || !dec.Generalized || dec.MatchedLBQID != "commute" {
		t.Fatalf("decision: %+v", dec)
	}
	if !dec.HKAnonymity {
		t.Fatalf("crowded area must preserve anonymity: %+v", dec)
	}
	if dec.Context == nil || dec.Context.MaxX <= dec.Context.MinX {
		t.Fatalf("context missing or degenerate: %+v", dec.Context)
	}
	if dec.Pseudonym == "" {
		t.Fatal("pseudonym missing")
	}

	// The SP got the same generalized request.
	reqs := provider.Requests()
	if len(reqs) != 1 || reqs[0].Service != "navigation" || reqs[0].Data["dest"] != "office" {
		t.Fatalf("provider log: %+v", reqs)
	}

	// Stats reflect the traffic.
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Counters["requests"] != 1 || stats.Counters["forwarded"] != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	if stats.TrackedUsers != srv.Store().NumUsers() {
		t.Fatalf("tracked users: %+v", stats)
	}
	if stats.GenSamples != 1 || stats.GenAreaMean <= 0 {
		t.Fatalf("generalization stats: %+v", stats)
	}
}

func TestBadRequests(t *testing.T) {
	hts, _, _ := newTestServer(t)
	cases := []struct {
		path, body string
	}{
		{"/v1/location", `{"user": "not-a-number"}`},
		{"/v1/location", `{"unknown": 1}`},
		{"/v1/request", `{"user":1}`},                // missing service
		{"/v1/lbqid", `{"user":1,"spec":"garbage"}`}, // unparsable spec
		{"/v1/policy", `{"user":1}`},                 // neither level nor k
		{"/v1/policy", `{"user":1,"level":"extreme"}`},
	}
	for _, c := range cases {
		resp, err := http.Post(hts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s with %q: status=%d want 400", c.path, c.body, resp.StatusCode)
		}
	}
}

func TestMethodEnforcement(t *testing.T) {
	hts, _, _ := newTestServer(t)
	resp, err := http.Get(hts.URL + "/v1/request")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/request: status=%d", resp.StatusCode)
	}
	resp, err = http.Post(hts.URL+"/v1/stats", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/stats: status=%d", resp.StatusCode)
	}
}

func TestClientErrorSurfaced(t *testing.T) {
	hts, _, _ := newTestServer(t)
	c := NewClient(hts.URL)
	if err := c.AddLBQID(1, "garbage"); err == nil {
		t.Fatal("client must surface server-side validation errors")
	} else if !strings.Contains(err.Error(), "httpapi:") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if err := c.SetPolicyLevel(1, "extreme"); err == nil {
		t.Fatal("unknown level must fail")
	}
}

func TestExplicitPolicy(t *testing.T) {
	hts, _, _ := newTestServer(t)
	c := NewClient(hts.URL)
	if err := c.SetPolicy(1, 7, 0.4, true); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentClients(t *testing.T) {
	hts, srv, _ := newTestServer(t)
	c := NewClient(hts.URL)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			var err error
			for i := 0; i < 50 && err == nil; i++ {
				err = c.RecordLocation(int64(g), float64(i), float64(i), int64(i)*60)
				if err == nil && i%10 == 0 {
					_, err = c.Request(ServiceRequest{
						User: int64(g), X: float64(i), Y: float64(i), T: int64(i)*60 + 1,
						Service: "weather",
					})
				}
			}
			done <- err
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if srv.Store().NumUsers() != 8 {
		t.Fatalf("users=%d", srv.Store().NumUsers())
	}
}
