package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Handler returns the job API, mounted by the controller daemon on its
// HTTP listener next to /debug/metrics and /dash:
//
//	POST /jobs            submit (JSON JobSpec) -> 202 {"id": N} | 429 + Retry-After | 413 over maxSpecBytes | 400 unknown field or trailing data
//	GET  /jobs            list every job's status
//	GET  /jobs/<id>       one job's status and residual history
//	POST /jobs/<id>/cancel  request cancellation -> 202
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSpecBytes bounds the body of POST /jobs; a JobSpec is a few dozen
// bytes of JSON.
const maxSpecBytes = 1 << 20

func (s *Service) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		// A field JobSpec does not have is refused, not ignored: a typo or a
		// retired option would otherwise run a job the client did not ask for.
		// So is anything but whitespace after the spec, which Decode leaves
		// unread.
		var spec JobSpec
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
		dec.DisallowUnknownFields()
		var tooBig *http.MaxBytesError
		err := dec.Decode(&spec)
		if err == nil {
			if _, err = dec.Token(); err == io.EOF {
				err = nil
			} else if !errors.As(err, &tooBig) {
				err = errors.New("trailing data after the object")
			}
		}
		switch {
		case errors.As(err, &tooBig):
			writeErr(w, http.StatusRequestEntityTooLarge, fmt.Errorf("job spec larger than %d bytes", tooBig.Limit))
			return
		case err != nil:
			writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding job spec: %w", err))
			return
		}
		id, err := s.Submit(spec)
		var over *OverloadedError
		switch {
		case errors.As(err, &over):
			// Typed backpressure: 429 with the advisory backoff in the
			// standard header, so a generic client's retry loop works.
			w.Header().Set("Retry-After",
				strconv.Itoa(int((over.RetryAfter+time.Second-1)/time.Second)))
			writeJSON(w, http.StatusTooManyRequests, map[string]any{
				"error":               err.Error(),
				"overloaded":          true,
				"retry_after_seconds": over.RetryAfter.Seconds(),
			})
			return
		case err != nil:
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{
			"id":  id,
			"url": fmt.Sprintf("/jobs/%d", id),
		})
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.List())
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}

func (s *Service) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	cancel := false
	if c, ok := strings.CutSuffix(rest, "/cancel"); ok {
		rest, cancel = c, true
	}
	id, err := strconv.ParseUint(rest, 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", rest))
		return
	}
	switch {
	case cancel && r.Method == http.MethodPost,
		!cancel && r.Method == http.MethodDelete:
		if err := s.RequestCancel(id); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "cancel": "requested"})
	case !cancel && r.Method == http.MethodGet:
		st, ok := s.Status(id)
		if !ok {
			writeErr(w, http.StatusNotFound, fmt.Errorf("no job %d", id))
			return
		}
		writeJSON(w, http.StatusOK, st)
	default:
		w.WriteHeader(http.StatusMethodNotAllowed)
	}
}
