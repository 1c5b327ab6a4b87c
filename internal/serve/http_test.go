package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestHTTPSession walks the README's curl session end to end against the real
// handler: submit, poll, fetch the result, exercise every error status, and
// read both stats formats.
func TestHTTPSession(t *testing.T) {
	srv := newTestServer(t, Config{P: 4, B: 4, MaxConcurrent: 2})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	post := func(body string) (*http.Response, map[string]any) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		return resp, m
	}

	// Malformed JSON → 400; a spec the service can never run → 422.
	if resp, _ := post("{"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON returned %d", resp.StatusCode)
	}
	// A field JobSpec does not have — a typo, or one the API retired — is
	// named in a 400 instead of running the job with that field's default.
	for _, field := range []string{"sed", "chaosSeed", "elastic", "crash"} {
		resp, m := post(`{"kind":"lu","mt":2,"` + field + `":3}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("unknown field %q returned %d (%v)", field, resp.StatusCode, m)
		}
		if !strings.Contains(m["error"].(string), `"`+field+`"`) {
			t.Fatalf("unknown-field error does not name %q: %v", field, m["error"])
		}
	}
	// A body over the 1 MiB bound is refused.
	huge := `{"kind":"lu","mt":2,"scheme":"` + strings.Repeat("x", maxSubmitBytes) + `"}`
	if resp, _ := post(huge); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body returned %d", resp.StatusCode)
	}
	if resp, m := post(`{"kind":"lu","mt":-1}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad spec returned %d (%v)", resp.StatusCode, m)
	} else if !strings.Contains(m["error"].(string), "positive tile dimension") {
		t.Fatalf("bad-spec error not descriptive: %v", m["error"])
	}

	// A valid submission is accepted with its id.
	resp, m := post(`{"kind":"lu","mt":4,"seed":1}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit returned %d (%v)", resp.StatusCode, m)
	}
	id := int(m["id"].(float64))

	// Poll status until done.
	deadline := time.Now().Add(time.Minute)
	for {
		resp, err := http.Get(ts.URL + "/jobs/" + strconv.Itoa(id))
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if st.State == StateDone {
			break
		}
		if st.State == StateFailed || st.State == StateCanceled {
			t.Fatalf("job ended %s: %s", st.State, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in state %s", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The result endpoint reports the factors' norm and the run's traffic.
	resp2, err := http.Get(ts.URL + "/jobs/" + strconv.Itoa(id) + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var rb resultBody
	json.NewDecoder(resp2.Body).Decode(&rb)
	resp2.Body.Close()
	if rb.Kind != KindLU || rb.FrobeniusNorm <= 0 || rb.Messages <= 0 {
		t.Fatalf("result body %+v", rb)
	}

	// Unknown ids are 404 on every per-job route, including ids past the
	// int32 range, which must not wrap onto job 1 (4294967297 = 2³² + 1).
	for _, route := range []string{"/jobs/999", "/jobs/999/result", "/jobs/notanumber",
		"/jobs/4294967297", "/jobs/4294967297/result"} {
		resp, err := http.Get(ts.URL + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s returned %d", route, resp.StatusCode)
		}
	}
	for _, route := range []string{"/jobs/999", "/jobs/4294967297"} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+route, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("DELETE %s returned %d", route, resp.StatusCode)
		}
	}

	// The job index lists our job; stats come as JSON and as the text summary.
	resp3, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	idx, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if !strings.Contains(string(idx), "1") {
		t.Fatalf("job index missing job 1: %s", idx)
	}
	resp4, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st ServiceStats
	json.NewDecoder(resp4.Body).Decode(&st)
	resp4.Body.Close()
	if st.Completed != 1 || st.P != 4 {
		t.Fatalf("stats %+v", st)
	}
	resp5, err := http.Get(ts.URL + "/stats?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp5.Body)
	resp5.Body.Close()
	if !strings.HasPrefix(string(text), "factserve:") || !strings.Contains(string(text), "1 done") {
		t.Fatalf("text summary:\n%s", text)
	}
}

// TestHTTPQueueFull maps queue-full backpressure to 429 over the wire.
func TestHTTPQueueFull(t *testing.T) {
	srv := newTestServer(t, Config{P: 4, B: 4, MaxConcurrent: 1, QueueCap: 1})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	// Hold the one slot through the server's own count, so no job can start
	// however fast a warm plan would finish it; then fill the queue and
	// watch the backpressure surface over the wire. Close cancels the queued
	// job.
	srv.mu.Lock()
	srv.running = srv.cfg.MaxConcurrent
	srv.mu.Unlock()
	if _, err := srv.Submit(JobSpec{Kind: KindLU, Mt: 12}); err != nil { // queues
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		bytes.NewBufferString(`{"kind":"lu","mt":12}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queue-full submit returned %d, want 429", resp.StatusCode)
	}
}
