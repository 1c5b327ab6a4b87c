package serve

import (
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	gort "runtime"
	"strconv"
	"sync"
	"testing"
)

// TestServerHoldsBoundedResults: a long-running service holds the factors of
// at most fetchWindowResults fetched jobs, whatever its QueueCap. 3 ×
// fetchWindowResults jobs are fetched as they finish while re-fetchers hammer
// the ones already fetched; after every batch the results held are exactly
// the window, the jobs that left it answer ErrExpired (HTTP 410) with their
// Status intact, the ones inside it return the very factors of their first
// fetch, and the shared pool drains.
func TestServerHoldsBoundedResults(t *testing.T) {
	const window, mt, b, P, batch, refetchers = fetchWindowResults, 3, 4, 4, 4, 3
	const jobs = 3 * window
	srv := newTestServer(t, Config{P: P, B: b, MaxConcurrent: batch, QueueCap: batch})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	specOf := func(k int) JobSpec {
		if k%2 == 1 {
			return JobSpec{Kind: KindCholesky, Scheme: "2dbc", Mt: mt, B: b, Seed: int64(k)}
		}
		return JobSpec{Kind: KindLU, Mt: mt, B: b, Seed: int64(k)}
	}

	var mu sync.Mutex
	var fetched []JobID // first-fetch order
	first := map[JobID]*Result{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < refetchers; g++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				if len(fetched) == 0 {
					mu.Unlock()
					gort.Gosched()
					continue
				}
				id := fetched[rng.Intn(len(fetched))]
				want := first[id]
				mu.Unlock()
				res, _, err := srv.Result(id)
				switch {
				case errors.Is(err, ErrExpired):
				case err != nil:
					t.Errorf("re-fetch of job %d: %v", id, err)
					return
				case res != want:
					t.Errorf("re-fetch of job %d returned other factors than its first fetch", id)
					return
				}
			}
		}(rand.New(rand.NewSource(int64(g))))
	}

	var specs []JobSpec
	for lo := 0; lo < jobs; lo += batch {
		var ids []JobID
		for k := lo; k < lo+batch; k++ {
			id, err := srv.Submit(specOf(k))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			specs = append(specs, specOf(k))
		}
		for _, id := range ids {
			waitDone(t, srv, id)
			res, _, err := srv.Result(id)
			if err != nil {
				t.Fatalf("first fetch of job %d: %v", id, err)
			}
			mu.Lock()
			fetched = append(fetched, id)
			first[id] = res
			mu.Unlock()
		}
		if st, want := srv.Stats(), min(len(fetched), window); st.ResultsHeld != want {
			t.Fatalf("after %d fetched jobs the server holds %d results, want %d", len(fetched), st.ResultsHeld, want)
		}
	}
	close(stop)
	wg.Wait()

	var wantBytes int64
	for k, id := range fetched {
		st, err := srv.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateDone || st.Messages <= 0 || st.Bytes <= 0 || len(st.PeakTilesPerNode) != P || st.RunSeconds <= 0 {
			t.Errorf("job %d status lost its record: %+v", id, st)
		}
		res, _, err := srv.Result(id)
		resp, herr := http.Get(ts.URL + "/jobs/" + strconv.Itoa(int(id)) + "/result")
		if herr != nil {
			t.Fatal(herr)
		}
		resp.Body.Close()
		if k < jobs-window {
			if !errors.Is(err, ErrExpired) {
				t.Errorf("job %d, fetched %d results before the last, returned %v; want ErrExpired", id, jobs-1-k, err)
			}
			if resp.StatusCode != http.StatusGone {
				t.Errorf("GET /jobs/%d/result after expiry returned %d, want 410", id, resp.StatusCode)
			}
			continue
		}
		if err != nil || res != first[id] {
			t.Errorf("job %d inside the window: err %v, same factors %v", id, err, res == first[id])
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET /jobs/%d/result inside the window returned %d", id, resp.StatusCode)
		}
		wantBytes += resultBytes(specs[k])
	}
	if st := srv.Stats(); st.ResultsHeld != window || st.ResultBytesHeld != wantBytes {
		t.Errorf("stats hold %d results of %d bytes, want %d of %d", st.ResultsHeld, st.ResultBytesHeld, window, wantBytes)
	}
	drainPool(t, srv)
}

// TestFetchWindowIsBoundedInBytes: fetched results a sizeable share of
// fetchWindowBytes each are kept only while the ones fetched since fit the
// byte bound, and one larger than the bound is kept while it is the latest
// fetch. Every job finishes before the first fetch; after every fetch the
// results held are exactly the unfetched ones plus the longest suffix of the
// fetch order that fits, the jobs before that suffix answer ErrExpired (HTTP
// 410) with their Status intact, the ones inside it return the very factors
// of their first fetch, and no unfetched result is ever dropped.
func TestFetchWindowIsBoundedInBytes(t *testing.T) {
	const P, b = 4, 64
	lu := func(mt int, seed int64) JobSpec { return JobSpec{Kind: KindLU, Mt: mt, B: b, Seed: seed} }
	chol := func(mt int, seed int64) JobSpec {
		return JobSpec{Kind: KindCholesky, Scheme: "2dbc", Mt: mt, B: b, Seed: seed}
	}
	// LU mt = 10 is 3.125 MiB of factors, Cholesky mt = 12 is 2.4375 MiB: two
	// or three fit in the window, one LU and two Cholesky exactly. LU mt = 17,
	// 9.0 MiB, is larger than the window on its own.
	specs := []JobSpec{lu(10, 1), chol(12, 2), chol(12, 3), lu(10, 4), chol(12, 5),
		lu(17, 6), chol(12, 7), lu(10, 8), lu(10, 9), chol(12, 10)}
	const oversized = 5
	if r := resultBytes(specs[oversized]); r <= fetchWindowBytes {
		t.Fatalf("the oversized job holds %d bytes, not more than the window's %d", r, fetchWindowBytes)
	}
	for k, spec := range specs {
		if r := resultBytes(spec); k != oversized && (2*r > fetchWindowBytes || 4*r <= fetchWindowBytes) {
			t.Fatalf("job %d holds %d bytes: want a quarter to a half of the window's %d", k, r, fetchWindowBytes)
		}
	}
	srv := newTestServer(t, Config{P: P, B: b, MaxConcurrent: 2, QueueCap: 2 * len(specs)})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	ids := make([]JobID, len(specs))
	for k, spec := range specs {
		id, err := srv.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = id
	}
	for _, id := range ids {
		waitDone(t, srv, id)
	}

	first := make([]*Result, len(specs))
	for n := 1; n <= len(specs); n++ {
		res, _, err := srv.Result(ids[n-1])
		if err != nil {
			t.Fatalf("first fetch of job %d: %v", n-1, err)
		}
		first[n-1] = res

		// keep is where the longest suffix of the n fetches that fits the
		// window starts; the latest fetch is kept whatever its size.
		keep, bytes := n-1, resultBytes(specs[n-1])
		for keep > 0 && bytes+resultBytes(specs[keep-1]) <= fetchWindowBytes {
			keep--
			bytes += resultBytes(specs[keep])
		}
		wantHeld, wantBytes := len(specs)-keep, bytes // the window and every unfetched result
		for _, spec := range specs[n:] {
			wantBytes += resultBytes(spec)
		}
		if st := srv.Stats(); st.ResultsHeld != wantHeld || st.ResultBytesHeld != wantBytes {
			t.Fatalf("after %d fetches the server holds %d results of %d bytes, want %d of %d",
				n, st.ResultsHeld, st.ResultBytesHeld, wantHeld, wantBytes)
		}
		for k := 0; k < n; k++ {
			res, _, err := srv.Result(ids[k])
			resp, herr := http.Get(ts.URL + "/jobs/" + strconv.Itoa(int(ids[k])) + "/result")
			if herr != nil {
				t.Fatal(herr)
			}
			resp.Body.Close()
			if k >= keep {
				if err != nil || res != first[k] {
					t.Fatalf("after %d fetches job %d is inside the window: err %v, same factors %v", n, k, err, res == first[k])
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("after %d fetches GET /jobs/%d/result inside the window returned %d", n, ids[k], resp.StatusCode)
				}
				continue
			}
			if !errors.Is(err, ErrExpired) {
				t.Fatalf("after %d fetches job %d left the window but returned %v; want ErrExpired", n, k, err)
			}
			if resp.StatusCode != http.StatusGone {
				t.Fatalf("after %d fetches GET /jobs/%d/result returned %d, want 410", n, ids[k], resp.StatusCode)
			}
			st, err := srv.Status(ids[k])
			if err != nil {
				t.Fatal(err)
			}
			if st.State != StateDone || st.Messages <= 0 || st.Bytes <= 0 || len(st.PeakTilesPerNode) != P || st.RunSeconds <= 0 {
				t.Fatalf("job %d status lost its record: %+v", k, st)
			}
		}
	}
	drainPool(t, srv)
}
