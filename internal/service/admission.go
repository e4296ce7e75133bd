package service

import (
	"errors"
	"fmt"
	"time"
)

// ErrOverloaded is the sentinel every admission rejection wraps: the
// service is above a resource watermark and the job should be resubmitted
// after OverloadedError.RetryAfter.  The HTTP layer maps it to 429 with a
// Retry-After header.
var ErrOverloaded = errors.New("service: overloaded")

// OverloadedError says which watermark rejected the job and when to retry.
type OverloadedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("service: overloaded (%s), retry after %v", e.Reason, e.RetryAfter)
}

func (e *OverloadedError) Unwrap() error { return ErrOverloaded }

// AdmissionConfig holds the job-count limits the admission controller
// checks at submission time, beside the footprint watermark
// maxActiveBytes.  Zero fields take the defaults below.  All checks are
// process-local reads on the controller rank — cheap enough to run on
// every POST.
type AdmissionConfig struct {
	// MaxQueue bounds jobs admitted but not yet started.
	MaxQueue int
	// MaxRunning bounds concurrently running jobs (further admitted jobs
	// queue; the scheduler then time-slices the running set).
	MaxRunning int
	// RetryAfter is the advisory backoff returned with rejections.
	RetryAfter time.Duration
}

// Admission defaults: sized for a small test fleet, overridable per
// deployment.
const (
	DefaultMaxQueue   = 16
	DefaultMaxRunning = 4
	DefaultRetryAfter = time.Second
)

// maxActiveBytes rejects a job when the estimated resident bytes of the
// running and queued jobs, the candidate included, would exceed it.
const maxActiveBytes = 2 << 30

func (a AdmissionConfig) withDefaults() AdmissionConfig {
	if a.MaxQueue <= 0 {
		a.MaxQueue = DefaultMaxQueue
	}
	if a.MaxRunning <= 0 {
		a.MaxRunning = DefaultMaxRunning
	}
	if a.RetryAfter <= 0 {
		a.RetryAfter = DefaultRetryAfter
	}
	return a
}

// estBytes approximates a job's resident footprint: the multigrid
// hierarchy holds a handful of vectors per level, dominated by the finest
// level's extent^3 float64 grids.  The geometric level sum is < 8/7 of the
// finest, so 6 finest-level-equivalent vectors is a safe upper bound.
func estBytes(sp JobSpec) int64 {
	e := int64(sp.Extent)
	return 6 * 8 * e * e * e
}

// admit applies the watermarks to a candidate spec.  Caller must NOT hold
// s.mu.  A nil return admits.
func (s *Service) admit(sp JobSpec) error {
	a := s.cfg.Admission
	s.mu.Lock()
	queued := len(s.queue)
	var activeBytes int64
	for _, j := range s.jobs {
		if j.state == stateQueued || j.state == stateRunning || j.state == stateHealing {
			activeBytes += estBytes(j.spec)
		}
	}
	draining := s.draining
	s.mu.Unlock()
	if draining {
		return &OverloadedError{Reason: "draining", RetryAfter: a.RetryAfter}
	}
	if queued >= a.MaxQueue {
		return &OverloadedError{
			Reason:     fmt.Sprintf("job queue full (%d queued, cap %d)", queued, a.MaxQueue),
			RetryAfter: a.RetryAfter,
		}
	}
	if want := activeBytes + estBytes(sp); want > maxActiveBytes {
		return &OverloadedError{
			Reason:     fmt.Sprintf("active job footprint %d B would exceed watermark %d B", want, maxActiveBytes),
			RetryAfter: a.RetryAfter,
		}
	}
	return nil
}
