package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
)

// Handler returns the HTTP front of the service:
//
//	POST   /jobs            submit a JobSpec (JSON body) → {"id": n}
//	GET    /jobs            list known job ids
//	GET    /jobs/{id}       job status snapshot
//	GET    /jobs/{id}/result norm + per-node accounting of a finished job
//	                        (410 once the fetch window has dropped it)
//	DELETE /jobs/{id}       cancel a queued or running job
//	GET    /stats           service counters (?format=text for the summary)
//
// Factors themselves stay in process — the result endpoint reports the
// Frobenius norm and the run's accounting, which is what a health check or a
// test harness wants over the wire; in-process callers use Result directly.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrRejected):
		// Queue-full backpressure is 429 (retry later); any other
		// rejection means the spec itself can never run.
		code = http.StatusUnprocessableEntity
		if strings.Contains(err.Error(), "admission queue full") {
			code = http.StatusTooManyRequests
		}
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrExpired):
		code = http.StatusGone
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// jobID parses the {id} path segment. An id that does not fit a JobID is
// unknown, never truncated onto another job's id.
func jobID(r *http.Request) (JobID, error) {
	n, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("%w: bad job id %q", ErrNotFound, r.PathValue("id"))
	}
	return JobID(n), nil
}

// maxSubmitBytes bounds a POST /jobs body; a JobSpec is a few hundred bytes.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields() // a misspelt or retired field is an error, not a default
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad JSON: " + err.Error()})
		return
	}
	id, err := s.Submit(spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Jobs()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	st, err := s.Status(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// resultBody is the over-the-wire view of a finished job.
type resultBody struct {
	ID            JobID   `json:"id"`
	Kind          string  `json:"kind"`
	FrobeniusNorm float64 `json:"frobeniusNorm"`
	Messages      int64   `json:"messages"`
	Bytes         int64   `json:"bytes"`
	WireBytes     int64   `json:"wireBytes"`
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	res, rep, err := s.Result(id)
	if err != nil {
		writeErr(w, err)
		return
	}
	body := resultBody{ID: id}
	if res.Dense != nil {
		body.Kind = KindLU
		body.FrobeniusNorm = res.Dense.FrobeniusNorm()
	} else if res.Chol != nil {
		body.Kind = KindCholesky
		body.FrobeniusNorm = res.Chol.FrobeniusNorm()
	}
	if rep != nil {
		body.Messages = rep.Stats.TotalMessages()
		body.Bytes = rep.Stats.TotalBytes()
		body.WireBytes = rep.Stats.TotalWireBytes()
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, err := jobID(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := s.Cancel(id); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "canceling"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.Summary())
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}
