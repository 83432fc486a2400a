package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/remotestore"
)

// flakySubmitServer answers POST /v1/jobs with the scripted status codes
// in order, then accepts; it counts requests.
func flakySubmitServer(t *testing.T, failures ...int) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			t.Errorf("unexpected request %s %s", r.Method, r.URL.Path)
			http.Error(w, "bad route", http.StatusNotFound)
			return
		}
		n := int(calls.Add(1))
		if n <= len(failures) {
			http.Error(w, "scripted failure", failures[n-1])
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(map[string]string{"job": fmt.Sprintf("job-%d", n)})
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

// TestSubmitJobRetriesTransient: 5xx and 429 answers are retried with
// backoff until the submission lands; the accepted job id comes back.
func TestSubmitJobRetriesTransient(t *testing.T) {
	srv, calls := flakySubmitServer(t, http.StatusInternalServerError, http.StatusTooManyRequests)
	id, err := submitJob(srv.URL, "topo=rrg traffic=permutation eval=mcf")
	if err != nil {
		t.Fatal(err)
	}
	if id != "job-3" || calls.Load() != 3 {
		t.Fatalf("id=%q after %d calls, want job-3 after 3", id, calls.Load())
	}
}

// TestSubmitJobAuthoritative4xxFailsFast: a 400 is an authoritative
// verdict — retrying cannot change it, so submitJob returns after one
// request.
func TestSubmitJobAuthoritative4xxFailsFast(t *testing.T) {
	srv, calls := flakySubmitServer(t, http.StatusBadRequest, http.StatusBadRequest, http.StatusBadRequest)
	start := time.Now()
	_, err := submitJob(srv.URL, "nonsense")
	if err == nil || calls.Load() != 1 {
		t.Fatalf("err=%v after %d calls, want an error after exactly 1", err, calls.Load())
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("fail-fast path slept %v", elapsed)
	}
}

// TestSubmitJobGivesUpAfterRetries: persistent 5xx exhausts the attempt
// budget and surfaces the last error.
func TestSubmitJobGivesUpAfterRetries(t *testing.T) {
	srv, calls := flakySubmitServer(t,
		http.StatusServiceUnavailable, http.StatusServiceUnavailable,
		http.StatusServiceUnavailable, http.StatusServiceUnavailable)
	_, err := submitJob(srv.URL, "topo=rrg traffic=permutation eval=mcf")
	if err == nil || !strings.Contains(err.Error(), "giving up") {
		t.Fatalf("err=%v, want giving-up error", err)
	}
	if calls.Load() != submitAttempts {
		t.Fatalf("%d calls, want %d", calls.Load(), submitAttempts)
	}
}

// TestSubmitJobRetriesNetworkError: a dead server (connection refused) is
// a transient transport failure, retried like a 5xx.
func TestSubmitJobRetriesNetworkError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // nothing listens here anymore
	if _, err := submitJob(srv.URL, "grid"); err == nil ||
		!strings.Contains(err.Error(), "giving up") {
		t.Fatalf("err=%v, want giving-up error after network retries", err)
	}
}

// TestRetryableStatus pins the retry classification submitJob shares with
// the remote store: transient server states retry, authoritative client
// verdicts do not.
func TestRetryableStatus(t *testing.T) {
	for code, want := range map[int]bool{
		http.StatusTooManyRequests:       true,
		http.StatusInternalServerError:   true,
		http.StatusServiceUnavailable:    true,
		http.StatusBadGateway:            true,
		http.StatusBadRequest:            false,
		http.StatusNotFound:              false,
		http.StatusRequestEntityTooLarge: false,
	} {
		if got := remotestore.RetryableStatus(code); got != want {
			t.Errorf("RetryableStatus(%d) = %v, want %v", code, got, want)
		}
	}
}
