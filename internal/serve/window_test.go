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
// at most QueueCap fetched jobs. 10 × QueueCap jobs are fetched as they
// finish while re-fetchers hammer the ones already fetched; after every batch
// the results held are exactly the window, the jobs that left it answer
// ErrExpired (HTTP 410) with their Status intact, the ones inside it return
// the very factors of their first fetch, and the shared pool drains.
func TestServerHoldsBoundedResults(t *testing.T) {
	const queueCap, mt, b, P, batch, refetchers = 8, 3, 4, 4, 4, 3
	const jobs = 10 * queueCap
	srv := newTestServer(t, Config{P: P, B: b, MaxConcurrent: batch, QueueCap: queueCap})
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
		if st, want := srv.Stats(), min(len(fetched), queueCap); st.ResultsHeld != want {
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
		if k < jobs-queueCap {
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
	if st := srv.Stats(); st.ResultsHeld != queueCap || st.ResultBytesHeld != wantBytes {
		t.Errorf("stats hold %d results of %d bytes, want %d of %d", st.ResultsHeld, st.ResultBytesHeld, queueCap, wantBytes)
	}
	drainPool(t, srv)
}
