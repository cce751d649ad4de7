package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpichgq/internal/sim"
)

// get fetches a path from the test server and returns status + body.
func get(t *testing.T, base, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// TestDaemonServesConcurrentQueries pins the daemon's core concurrency
// contract: operator queries against all four endpoints run safely
// (-race clean) while the stepper goroutine is advancing the live
// kernel, and every response is well-formed.
func TestDaemonServesConcurrentQueries(t *testing.T) {
	const dur = 8 * time.Second // virtual
	k, extras, err := buildScenario("ctrl", 1, dur)
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{scenario: "ctrl", dur: dur, k: k, extras: extras}
	srv := httptest.NewServer(d.mux())
	defer srv.Close()

	stepped := make(chan struct{})
	go func() {
		defer close(stepped)
		d.step(100*time.Millisecond, 0)
	}()

	paths := []string{
		"/healthz",
		"/metrics",
		"/traces?limit=50",
		"/traces?class=co&format=tree",
		"/traces?class=rpc&status=ok",
		"/traces?min_dur=1ms&limit=10",
		"/events?n=20",
		"/events?type=ctrl.rpc",
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				for _, p := range paths {
					code, body := get(t, srv.URL, p)
					if code != http.StatusOK {
						t.Errorf("GET %s: status %d: %s", p, code, body)
					}
					if len(body) == 0 {
						t.Errorf("GET %s: empty body", p)
					}
				}
			}
		}()
	}
	wg.Wait()
	<-stepped

	// With the scenario finished, the final state must be coherent:
	// healthz reports done at the full horizon, and the trace stream
	// holds the co-reservation story.
	code, body := get(t, srv.URL, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("final /healthz: status %d: %s", code, body)
	}
	var h struct {
		Status string `json:"status"`
		Done   bool   `json:"done"`
		NowNS  int64  `json:"virtual_now_ns"`
		Spans  int    `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("final /healthz: %v", err)
	}
	if h.Status != "ok" || !h.Done || h.NowNS != dur.Nanoseconds() {
		t.Fatalf("final /healthz: %+v", h)
	}
	if h.Spans == 0 {
		t.Fatal("scenario completed with no spans recorded")
	}
	code, body = get(t, srv.URL, "/traces?name=co.reserve")
	if code != http.StatusOK {
		t.Fatalf("/traces?name=co.reserve: status %d", code)
	}
	var sp []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal([]byte(body), &sp); err != nil {
		t.Fatalf("/traces?name=co.reserve: %v", err)
	}
	if len(sp) == 0 {
		t.Fatal("no co.reserve spans after a full ctrl run")
	}
}

// TestDaemonBadQueries pins the 400 paths so operator typos fail with
// a usable message instead of an empty match.
func TestDaemonBadQueries(t *testing.T) {
	k, _, err := buildScenario("ctrl", 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{scenario: "ctrl", dur: time.Second, k: k}
	srv := httptest.NewServer(d.mux())
	defer srv.Close()

	bad := []string{
		"/traces?resv=notanumber",
		"/traces?trace=zz",
		"/traces?status=bogus",
		"/traces?min_dur=fast",
		"/traces?limit=0",
		"/traces?format=xml",
		"/events?type=bogus",
		"/events?since=yesterday",
		"/events?n=-1",
	}
	for _, p := range bad {
		code, body := get(t, srv.URL, p)
		if code != http.StatusBadRequest {
			t.Errorf("GET %s: status %d, want 400", p, code)
		}
		if !strings.HasPrefix(body, "gqd: ") {
			t.Errorf("GET %s: error body %q does not explain the parameter", p, body)
		}
	}
}

// TestBuildScenarioUnknown covers the scenario dispatch error.
func TestBuildScenarioUnknown(t *testing.T) {
	if _, _, err := buildScenario("fig99", 1, time.Second); err == nil {
		t.Fatal("buildScenario accepted an unknown scenario")
	}
}

// TestHealthzReportsPanickedScenario pins the failure contract: when a
// scenario process panics mid-run the daemon survives, keeps serving
// its last coherent state, and /healthz turns 503 with a JSON body
// naming the failure.
func TestHealthzReportsPanickedScenario(t *testing.T) {
	k := sim.New(1)
	k.Spawn("bomb", func(ctx *sim.Ctx) {
		ctx.Sleep(time.Second)
		panic("scenario wedged: simulated invariant violation")
	})
	d := &daemon{scenario: "bomb", dur: 10 * time.Second, k: k}
	srv := httptest.NewServer(d.mux())
	defer srv.Close()

	d.step(500*time.Millisecond, 0)
	if !d.done.Load() {
		t.Fatal("step did not mark the daemon done after the panic")
	}
	code, body := get(t, srv.URL, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after panic: status %d, want 503: %s", code, body)
	}
	var h struct {
		Status string `json:"status"`
		Error  string `json:"error"`
		Done   bool   `json:"done"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz after panic is not JSON: %v: %s", err, body)
	}
	if h.Status != "panicked" || !h.Done {
		t.Fatalf("/healthz after panic: %+v", h)
	}
	if !strings.Contains(h.Error, "invariant violation") {
		t.Fatalf("/healthz error %q does not carry the panic message", h.Error)
	}
	// The rest of the observability surface must still answer.
	if code, _ := get(t, srv.URL, "/metrics"); code != http.StatusOK {
		t.Fatalf("/metrics after panic: status %d", code)
	}
}

// TestHealthzCarriesAdmissionState pins the ctrl scenario's healthz
// extras: queue depth and brownout level per domain appear in the body.
func TestHealthzCarriesAdmissionState(t *testing.T) {
	const dur = 3 * time.Second
	k, extras, err := buildScenario("ctrl", 1, dur)
	if err != nil {
		t.Fatal(err)
	}
	if extras == nil {
		t.Fatal("ctrl scenario returned no healthz extras")
	}
	d := &daemon{scenario: "ctrl", dur: dur, k: k, extras: extras}
	srv := httptest.NewServer(d.mux())
	defer srv.Close()
	d.step(time.Second, 0)
	code, body := get(t, srv.URL, "/healthz")
	if code != http.StatusOK {
		t.Fatalf("/healthz: status %d: %s", code, body)
	}
	var h struct {
		Admission map[string]struct {
			QueueDepth    *int `json:"queue_depth"`
			BrownoutLevel *int `json:"brownout_level"`
		} `json:"admission"`
	}
	if err := json.Unmarshal([]byte(body), &h); err != nil {
		t.Fatalf("/healthz: %v: %s", err, body)
	}
	for _, dom := range []string{"dom1", "dom2"} {
		st, ok := h.Admission[dom]
		if !ok || st.QueueDepth == nil || st.BrownoutLevel == nil {
			t.Fatalf("/healthz admission state missing for %s: %s", dom, body)
		}
	}
}

// TestDaemonCloseStopsStepper: closing the daemon mid-run stops the
// stepper after its current slice and leaves the scenario kernel with
// no process and no pending event.
func TestDaemonCloseStopsStepper(t *testing.T) {
	const dur = time.Hour // virtual; far more than the test lets it run
	k, extras, err := buildScenario("ctrl", 1, dur)
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon{scenario: "ctrl", dur: dur, k: k, extras: extras}
	stepped := make(chan struct{})
	go func() {
		defer close(stepped)
		d.step(100*time.Millisecond, time.Millisecond)
	}()
	time.Sleep(20 * time.Millisecond) // let a few slices run
	d.close()
	select {
	case <-stepped:
	case <-time.After(10 * time.Second):
		t.Fatal("stepper still running after close")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.k.Now() >= dur {
		t.Fatalf("stepper ran to the end (%v) instead of stopping", d.k.Now())
	}
	if n, ev := d.k.LiveProcs(), d.k.PendingEvents(); n != 0 || ev != 0 {
		t.Fatalf("after close: %d live processes, %d pending events", n, ev)
	}
}
