package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/sweep"
)

// postSpecAs submits a run spec under a tenant header (empty = none) and
// returns the status code plus the Retry-After header.
func postSpecAs(t *testing.T, ts *httptest.Server, spec sweep.RunSpec, tenant string) (int, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/runs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr runResponse
	json.NewDecoder(resp.Body).Decode(&rr)
	return resp.StatusCode, resp.Header.Get("Retry-After")
}

// specN varies the seed so each submission is a distinct cell (distinct
// fingerprint — a cached hit would bypass nothing, but distinct cells make
// the executed/queued accounting unambiguous).
func specN(n int) sweep.RunSpec {
	sp := tinySpec()
	sp.Cfg.Seed = uint64(100 + n)
	return sp
}

// TestAdmissionRateLimitsPerTenant exhausts one tenant's burst and checks
// the 429 + Retry-After contract, that a different tenant and the default
// tenant are unaffected, and that the budget refills with time.
func TestAdmissionRateLimitsPerTenant(t *testing.T) {
	var execs atomic.Int64
	_, ts := newTestServer(t, Config{
		Runner:    countingRunner(&execs),
		Admission: AdmissionConfig{TenantRPS: 5, TenantBurst: 2},
	})

	// Burst of 2 admitted, third shed.
	for i := 0; i < 2; i++ {
		if code, _ := postSpecAs(t, ts, specN(i), "alice"); code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submission %d: HTTP %d, want admitted", i, code)
		}
	}
	code, retry := postSpecAs(t, ts, specN(2), "alice")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-burst submission: HTTP %d, want 429", code)
	}
	secs, err := strconv.Atoi(retry)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want a positive integer of seconds", retry)
	}

	// Other tenants carry their own buckets.
	if code, _ := postSpecAs(t, ts, specN(3), "bob"); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("bob's first submission: HTTP %d, want admitted", code)
	}
	if code, _ := postSpecAs(t, ts, specN(4), ""); code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("default-tenant submission: HTTP %d, want admitted", code)
	}

	// At 5 tokens/sec the shed tenant is whole again within a second.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := postSpecAs(t, ts, specN(2), "alice"); code != http.StatusTooManyRequests {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("alice's bucket never refilled")
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestAdmissionBackpressureShedsOnDeepQueue wedges a 1-worker executor with
// a slow job plus a queued one, then checks further submissions shed with
// 429/backpressure until the queue drains.
func TestAdmissionBackpressureShedsOnDeepQueue(t *testing.T) {
	release := make(chan struct{})
	var execs atomic.Int64
	slow := func(ctx context.Context, spec sweep.RunSpec, onRound func(fl.RoundStat)) (*fl.History, error) {
		execs.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &fl.History{Method: spec.Method, Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}, nil
	}
	_, ts := newTestServer(t, Config{
		Runner: slow, Workers: 1, QueueDepth: 4,
		Admission: AdmissionConfig{MaxPending: 1},
	})
	t.Cleanup(func() { close(release) })

	// First occupies the worker; the queue may briefly hold it, so wait for
	// it to start executing before filling the queue slot.
	if code, _ := postSpecAs(t, ts, specN(0), ""); code != http.StatusAccepted {
		t.Fatalf("first submission: HTTP %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for execs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _ := postSpecAs(t, ts, specN(1), ""); code != http.StatusAccepted {
		t.Fatalf("second submission: HTTP %d", code)
	}

	// Queue now holds 1 >= MaxPending: shed.
	code, retry := postSpecAs(t, ts, specN(2), "")
	if code != http.StatusTooManyRequests {
		t.Fatalf("submission against saturated queue: HTTP %d, want 429", code)
	}
	if secs, err := strconv.Atoi(retry); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want a positive integer of seconds", retry)
	}
}

// TestAdmissionZeroConfigAdmitsEverything pins the default: no limits
// configured means the gate does not exist — rapid-fire submissions from
// one client all land.
func TestAdmissionZeroConfigAdmitsEverything(t *testing.T) {
	var execs atomic.Int64
	s, ts := newTestServer(t, Config{Runner: countingRunner(&execs)})
	if s.adm != nil {
		t.Fatal("zero-config server built an admission gate")
	}
	for i := 0; i < 20; i++ {
		if code, _ := postSpecAs(t, ts, specN(i), "hammer"); code != http.StatusAccepted && code != http.StatusOK {
			t.Fatalf("submission %d: HTTP %d, want admitted", i, code)
		}
	}
}
