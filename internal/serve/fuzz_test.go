package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzSubmit throws arbitrary job specs at one long-lived service. The
// contract under fuzzing: Submit never panics and never wedges — a spec is
// either rejected immediately with a descriptive ErrRejected, or admitted
// and then driven to a terminal state, without disturbing the service for the
// following iterations.
func FuzzSubmit(f *testing.F) {
	srv, err := New(Config{
		P: 2, B: 4, MaxMt: 4, MaxConcurrent: 2, QueueCap: 8,
		MemBudgetBytes: 1 << 20,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)

	// The rejection surface the spec names, plus healthy baselines.
	f.Add("lu", "g2dbc", 2, 4, 2, 1, 0)      // valid LU
	f.Add("cholesky", "2dbc", 3, 0, 0, 2, 3) // valid Cholesky, defaults
	f.Add("", "", 0, 0, 0, 0, 0)             // empty everything
	f.Add("lu", "bogus", 2, 4, 2, 1, 0)      // unknown scheme
	f.Add("lu", "g2dbc", -5, 4, 2, 1, 0)     // mt <= 0
	f.Add("lu", "g2dbc", 64, 4, 2, 1, 0)     // mt over cap (→ budget/cap reject)
	f.Add("lu", "g2dbc", 2, 8, 2, 1, 0)      // b mismatch
	f.Add("lu", "g2dbc", 2, 4, 4096, 1, 0)   // oversized P
	f.Add("qr", "g2dbc", 2, 4, 2, 1, 0)      // unknown kind
	f.Add("lu", "sts", 2, 4, 2, 1, -9)       // scheme invalid for P=2
	f.Add("lu", "g2dbc", 2, 4, 2, -3, 0)     // negative workers

	f.Fuzz(func(t *testing.T, kind, scheme string, mt, b, p, workers, priority int) {
		id, err := srv.Submit(JobSpec{
			Kind: kind, Scheme: scheme, Mt: mt, B: b, P: p,
			Workers: workers, Priority: priority,
			Seed: int64(mt + b),
		})
		if err != nil {
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("rejection does not wrap ErrRejected: %v", err)
			}
			if err.Error() == ErrRejected.Error() {
				t.Fatalf("rejection carries no description: %v", err)
			}
			return
		}
		// Admitted: the job must reach a terminal state. A job may fail —
		// Wait's error is fine — but a wedge (timeout) means a stuck
		// namespace and fails the fuzz.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := srv.Wait(ctx, id); err != nil && ctx.Err() != nil {
			t.Fatalf("admitted job %d wedged: %v", id, err)
		}
	})
}

// FuzzHTTPSubmit throws raw request bodies at POST /jobs. Whatever the bytes,
// the handler answers 202 (admitted), 400 (not a JobSpec: malformed, an
// unknown field, over the size bound), 422 (a spec the service can never run)
// or 429 (queue full) — never a panic and never a 5xx.
func FuzzHTTPSubmit(f *testing.F) {
	srv, err := New(Config{
		P: 2, B: 4, MaxMt: 4, MaxConcurrent: 2, QueueCap: 8,
		MemBudgetBytes: 1 << 20,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()

	f.Add(`{"kind":"lu","mt":2,"seed":1}`)
	f.Add(`{"kind":"cholesky","scheme":"2dbc","mt":3}`)
	f.Add(`{"kind":"lu","mt":2,"sed":3}`)
	f.Add(`{"kind":"lu","mt":2,"chaosSeed":7}`)
	f.Add(`{"kind":"lu","mt":-1}`)
	f.Add(`{"kind":"lu","mt":1e99}`)
	f.Add(`{"kind":"lu","mt":2}{"kind":"lu"}`)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(`{`)
	f.Add(``)

	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusAccepted, http.StatusBadRequest, http.StatusUnprocessableEntity, http.StatusTooManyRequests:
		default:
			t.Fatalf("POST /jobs %q answered %d: %s", body, rec.Code, rec.Body)
		}
	})
}
