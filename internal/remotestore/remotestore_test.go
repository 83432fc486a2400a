package remotestore

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// fakeClock is a settable time source so breaker cooldowns and the
// recent-error window are tested without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newTestClient wires a client at the server with instant sleeps and a
// fake clock, returning both.
func newTestClient(t *testing.T, url string, opt Options) (*Client, *fakeClock) {
	t.Helper()
	opt.BaseURL = url
	c := New(opt)
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	c.now = clk.now
	c.sleep = func(time.Duration) {} // backoff decisions still draw jitter
	return c, clk
}

const testKey = "some point key"

func testVals() []float64 { return []float64{1.5, 2.5, 3.5} }

// resultServer answers GET/PUT /v1/result like the real service, with a
// per-call hook for fault scripting. Returns the server and a call count.
func resultServer(t *testing.T, hook func(n int64, w http.ResponseWriter, r *http.Request) bool) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	var mu sync.Mutex
	stored := map[string][]byte{}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := calls.Add(1)
		if hook != nil && hook(n, w, r) {
			return
		}
		addr := r.URL.Path[len("/v1/result/"):]
		switch r.Method {
		case http.MethodGet:
			mu.Lock()
			body, ok := stored[addr]
			mu.Unlock()
			if !ok {
				http.Error(w, "not found", http.StatusNotFound)
				return
			}
			w.Header().Set("Content-Type", ContentType)
			w.Write(body)
		case http.MethodPut:
			body := make([]byte, 0, 64)
			buf := make([]byte, 4096)
			for {
				n, err := r.Body.Read(buf)
				body = append(body, buf[:n]...)
				if err != nil {
					break
				}
			}
			if _, ok := store.DecodeValues(body); !ok {
				http.Error(w, "corrupt", http.StatusBadRequest)
				return
			}
			mu.Lock()
			stored[addr] = body
			mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	t.Cleanup(hs.Close)
	return hs, &calls
}

// TestSaveThenLoadRoundTrip: the wire format survives a PUT/GET cycle
// with values intact.
func TestSaveThenLoadRoundTrip(t *testing.T) {
	hs, _ := resultServer(t, nil)
	c, _ := newTestClient(t, hs.URL, Options{})
	if err := c.Save(testKey, testVals()); err != nil {
		t.Fatal(err)
	}
	vals, ok := c.Load(testKey)
	if !ok || !reflect.DeepEqual(vals, testVals()) {
		t.Fatalf("round trip: %v %v", vals, ok)
	}
	st := c.Stats()
	if st.LoadHits != 1 || st.SaveErrs != 0 || st.Retries != 0 || st.State != Closed {
		t.Fatalf("stats: %+v", st)
	}
}

// TestMissIsAuthoritative: a 404 is an answer, not a failure — exactly
// one attempt, no retries, breaker stays closed.
func TestMissIsAuthoritative(t *testing.T) {
	hs, calls := resultServer(t, nil)
	c, _ := newTestClient(t, hs.URL, Options{Attempts: 5})
	if _, ok := c.Load("never stored"); ok {
		t.Fatal("phantom hit")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("404 consumed %d attempts, want 1", got)
	}
	st := c.Stats()
	if st.LoadMisses != 1 || st.Retries != 0 || st.Failures != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestRetryOn5xxThenSuccess: transient server trouble is retried with
// backoff and the call still succeeds within its attempt budget.
func TestRetryOn5xxThenSuccess(t *testing.T) {
	hs, calls := resultServer(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		if n <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return true
		}
		return false
	})
	c, _ := newTestClient(t, hs.URL, Options{Attempts: 3})
	if err := c.Save(testKey, testVals()); err != nil {
		t.Fatalf("save failed despite a successful final attempt: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("attempts: %d, want 3", got)
	}
	st := c.Stats()
	if st.Retries != 2 || st.Failures != 2 || st.SaveErrs != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestCorruptPayloadReadsAsMiss: bit-flipped and truncated bodies fail
// the CRC re-verification, are retried, and ultimately degrade to a miss
// — never to wrong values.
func TestCorruptPayloadReadsAsMiss(t *testing.T) {
	good := store.EncodeValues(testVals())
	corrupt := append([]byte(nil), good...)
	corrupt[len(corrupt)-3] ^= 0x40 // flip one payload bit
	for name, body := range map[string][]byte{
		"bitflip":   corrupt,
		"truncated": good[:len(good)/2],
		"garbage":   []byte("not a TBRS entry at all"),
	} {
		t.Run(name, func(t *testing.T) {
			hs, calls := resultServer(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
				w.Header().Set("Content-Type", ContentType)
				w.Write(body)
				return true
			})
			c, _ := newTestClient(t, hs.URL, Options{Attempts: 3})
			if vals, ok := c.Load(testKey); ok {
				t.Fatalf("corrupt payload surfaced as values: %v", vals)
			}
			if got := calls.Load(); got != 3 {
				t.Fatalf("corruption should be retried: %d attempts, want 3", got)
			}
			if st := c.Stats(); st.Corrupt != 3 || st.LoadMisses != 1 {
				t.Fatalf("stats: %+v", st)
			}
		})
	}
}

// TestDeadPeerDegradesToMiss: a connection-refused peer costs retries,
// then a miss — Load never returns an error or panics.
func TestDeadPeerDegradesToMiss(t *testing.T) {
	hs, _ := resultServer(t, nil)
	url := hs.URL
	hs.Close() // now nothing listens there
	c, _ := newTestClient(t, url, Options{Attempts: 2})
	if _, ok := c.Load(testKey); ok {
		t.Fatal("hit from a dead peer")
	}
	if err := c.Save(testKey, testVals()); err == nil {
		t.Fatal("save to a dead peer must report its (counted) error")
	}
	st := c.Stats()
	if st.LoadMisses != 1 || st.SaveErrs != 1 || st.Failures != 4 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestBreakerTripShortCircuitAndProbe walks the breaker's whole life:
// consecutive failures trip it Open, open calls short-circuit without
// touching the network, the cooldown admits exactly one half-open probe,
// and a successful probe closes it again.
func TestBreakerTripShortCircuitAndProbe(t *testing.T) {
	var healthy atomic.Bool
	hs, calls := resultServer(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		if !healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return true
		}
		return false
	})
	c, clk := newTestClient(t, hs.URL, Options{
		Attempts: 1, BreakerThreshold: 3, BreakerCooldown: 5 * time.Second,
	})

	for i := 0; i < 3; i++ {
		if _, ok := c.Load(testKey); ok {
			t.Fatal("hit from a failing peer")
		}
	}
	if got := c.State(); got != Open {
		t.Fatalf("state after %d consecutive failures: %v, want open", 3, got)
	}
	if got := c.Stats().BreakerOpens; got != 1 {
		t.Fatalf("breaker opens: %d", got)
	}

	// Open: calls short-circuit — the network is not touched.
	before := calls.Load()
	for i := 0; i < 4; i++ {
		if _, ok := c.Load(testKey); ok {
			t.Fatal("hit while open")
		}
	}
	if calls.Load() != before {
		t.Fatalf("open breaker still hit the network: %d calls", calls.Load()-before)
	}
	if got := c.Stats().ShortCircuits; got != 4 {
		t.Fatalf("short circuits: %d, want 4", got)
	}

	// Cooldown elapses: half-open. A failed probe re-opens...
	clk.advance(6 * time.Second)
	if got := c.State(); got != HalfOpen {
		t.Fatalf("state after cooldown: %v, want half-open", got)
	}
	if _, ok := c.Load(testKey); ok {
		t.Fatal("probe hit a failing peer")
	}
	if got := c.State(); got != Open {
		t.Fatalf("state after failed probe: %v, want open", got)
	}

	// ...and a successful probe closes the breaker for good.
	healthy.Store(true)
	clk.advance(6 * time.Second)
	if _, ok := c.Load("never stored"); ok {
		t.Fatal("phantom hit")
	}
	if got := c.State(); got != Closed {
		t.Fatalf("state after successful probe: %v, want closed", got)
	}
	if err := c.Save(testKey, testVals()); err != nil {
		t.Fatalf("save through a recovered breaker: %v", err)
	}
	if vals, ok := c.Load(testKey); !ok || !reflect.DeepEqual(vals, testVals()) {
		t.Fatalf("round trip after recovery: %v %v", vals, ok)
	}
}

// TestHalfOpenProbeIsExclusive: while one probe is in flight, concurrent
// calls short-circuit instead of stampeding the recovering peer.
func TestHalfOpenProbeIsExclusive(t *testing.T) {
	release := make(chan struct{})
	var fail atomic.Bool
	fail.Store(true)
	hs, _ := resultServer(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		if fail.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return true
		}
		<-release // hold the probe open while the test issues more calls
		http.Error(w, "not found", http.StatusNotFound)
		return true
	})
	c, clk := newTestClient(t, hs.URL, Options{Attempts: 1, BreakerThreshold: 1, BreakerCooldown: time.Second})
	c.Load(testKey) // trips immediately (threshold 1)
	if c.State() != Open {
		t.Fatal("breaker should be open")
	}
	fail.Store(false)
	clk.advance(2 * time.Second)

	probeDone := make(chan struct{})
	go func() {
		defer close(probeDone)
		c.Load(testKey) // the probe; parks on <-release
	}()
	// Wait until the probe owns the half-open slot, then race others.
	for {
		c.mu.Lock()
		probing := c.probing
		c.mu.Unlock()
		if probing {
			break
		}
		time.Sleep(time.Millisecond)
	}
	before := c.Stats().ShortCircuits
	c.Load(testKey)
	if got := c.Stats().ShortCircuits; got != before+1 {
		t.Fatalf("concurrent call during probe: short circuits %d, want %d", got, before+1)
	}
	close(release)
	<-probeDone
	if c.State() != Closed {
		t.Fatalf("state after successful probe: %v", c.State())
	}
}

// TestRecentErrorsWindow: the /healthz degraded signal counts failures
// inside the trailing window and forgets them as time passes.
func TestRecentErrorsWindow(t *testing.T) {
	hs, _ := resultServer(t, func(n int64, w http.ResponseWriter, r *http.Request) bool {
		http.Error(w, "down", http.StatusInternalServerError)
		return true
	})
	c, clk := newTestClient(t, hs.URL, Options{Attempts: 2, BreakerThreshold: 100})
	c.Load(testKey) // 2 failed attempts
	if got := c.RecentErrors(30 * time.Second); got != 2 {
		t.Fatalf("recent errors: %d, want 2", got)
	}
	clk.advance(40 * time.Second)
	if got := c.RecentErrors(30 * time.Second); got != 0 {
		t.Fatalf("recent errors after window passed: %d, want 0", got)
	}
}

// TestBackoffIsBoundedAndJittered: the drawn waits stay within the
// exponential ceiling and are not all identical (full jitter).
func TestBackoffIsBoundedAndJittered(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	distinct := map[time.Duration]bool{}
	for i := 0; i < 64; i++ {
		for attempt := 1; attempt <= 6; attempt++ {
			d := Backoff(rng, attempt, 50*time.Millisecond, time.Second)
			ceil := 50 * time.Millisecond << (attempt - 1)
			if ceil > time.Second || ceil <= 0 {
				ceil = time.Second
			}
			if d < 0 || d > ceil {
				t.Fatalf("attempt %d drew %v outside [0, %v]", attempt, d, ceil)
			}
			distinct[d] = true
		}
	}
	if len(distinct) < 10 {
		t.Fatalf("only %d distinct backoff draws — jitter missing", len(distinct))
	}
}
