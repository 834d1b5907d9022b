package shard

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/store"
)

func testJob(n int) dispatch.Job {
	spec := []byte(fmt.Sprintf(`{"cell":%d}`, n))
	sum := sha256.Sum256(spec)
	return dispatch.Job{ID: hex.EncodeToString(sum[:]), Spec: spec}
}

func cannedHist(n int) *fl.History {
	return &fl.History{Method: "fedavg", Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5 + float64(n)/100}}}
}

func tstore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, h dispatch.Handle) (*fl.History, error) {
	t.Helper()
	select {
	case <-h.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %.12s never completed", h.Job().ID)
	}
	return h.Result()
}

func TestMapCoversEveryBucketExactlyOnce(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		m, err := NewMap(n, nil)
		if err != nil {
			t.Fatalf("NewMap(%d): %v", n, err)
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("NewMap(%d) invalid: %v", n, err)
		}
		// Every bucket boundary routes to the range that claims it.
		for i, r := range m.Shards {
			for _, prefix := range []string{r.Start, r.End} {
				fp := prefix + "0000aaaa"
				idx, err := m.Owner(fp)
				if err != nil || idx != i {
					t.Fatalf("n=%d: Owner(%s) = %d, %v; range %d claims [%s,%s]", n, prefix, idx, err, i, r.Start, r.End)
				}
			}
		}
	}
	if _, err := NewMap(0, nil); err == nil {
		t.Fatal("NewMap(0) accepted")
	}
	if _, err := NewMap(2, []string{"http://only-one"}); err == nil {
		t.Fatal("URL/shard count mismatch accepted")
	}
}

func TestMapOwnerRejectsUnroutableFingerprints(t *testing.T) {
	m, _ := NewMap(2, nil)
	for _, fp := range []string{"", "ab", "zzzz0000", "GHIJ"} {
		if _, err := m.Owner(fp); err == nil {
			t.Errorf("Owner(%q) accepted", fp)
		}
	}
}

func TestMapValidateRejectsGapsAndOverlaps(t *testing.T) {
	m, _ := NewMap(2, nil)
	m.Shards[1].Start = "9000" // gap after shard 0
	if err := m.Validate(); err == nil {
		t.Fatal("gapped map validated")
	}
	m, _ = NewMap(2, nil)
	m.Shards[0].End = "ffff" // overlap
	if err := m.Validate(); err == nil {
		t.Fatal("overlapping map validated")
	}
	m, _ = NewMap(2, nil)
	m.Shards[1].End = "fffe" // short coverage
	if err := m.Validate(); err == nil {
		t.Fatal("short map validated")
	}
}

// fakeMember records submissions and completes them instantly — routing is
// the unit under test, not queueing.
type fakeMember struct {
	mu    sync.Mutex
	ids   []string
	stats dispatch.CoordinatorStats
	fail  error
}

type fakeHandle struct {
	job  dispatch.Job
	done chan struct{}
}

func (f fakeHandle) Job() dispatch.Job                 { return f.job }
func (f fakeHandle) Done() <-chan struct{}             { return f.done }
func (f fakeHandle) Result() (*fl.History, error)      { return cannedHist(0), nil }
func (f *fakeMember) Close()                           {}
func (f *fakeMember) Stats() dispatch.CoordinatorStats { return f.stats }

func (f *fakeMember) Submit(job dispatch.Job, _ dispatch.SubmitOpts) (dispatch.Handle, error) {
	f.mu.Lock()
	f.ids = append(f.ids, job.ID)
	f.mu.Unlock()
	if f.fail != nil {
		return nil, f.fail
	}
	done := make(chan struct{})
	close(done)
	return fakeHandle{job: job, done: done}, nil
}

func TestRouterRoutesByFingerprintOwner(t *testing.T) {
	const n = 4
	m, err := NewMap(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]Member, n)
	fakes := make([]*fakeMember, n)
	for i := range members {
		fakes[i] = &fakeMember{}
		members[i] = fakes[i]
	}
	r, err := NewRouter(RouterConfig{Map: m, Members: members, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for i := 0; i < 200; i++ {
		job := testJob(i)
		if _, err := r.Submit(job, dispatch.SubmitOpts{}); err != nil {
			t.Fatalf("Submit(%d): %v", i, err)
		}
		routed++
		want, _ := m.Owner(job.ID)
		f := fakes[want]
		f.mu.Lock()
		last := f.ids[len(f.ids)-1]
		f.mu.Unlock()
		if last != job.ID {
			t.Fatalf("job %.12s landed on the wrong shard (want %d)", job.ID, want)
		}
	}
	total := 0
	for i, f := range fakes {
		f.mu.Lock()
		got := len(f.ids)
		f.mu.Unlock()
		if got == 0 {
			t.Errorf("shard %d received nothing — SHA-256 fingerprints should spread over %d shards", i, n)
		}
		total += got
	}
	if total != routed {
		t.Fatalf("members saw %d submissions, router made %d", total, routed)
	}
	if _, err := r.Submit(dispatch.Job{ID: "not-hex!", Spec: []byte(`{}`)}, dispatch.SubmitOpts{}); err == nil {
		t.Fatal("unroutable fingerprint accepted")
	}
	r.Close()
	if _, err := r.Submit(testJob(1), dispatch.SubmitOpts{}); err != dispatch.ErrClosed {
		t.Fatalf("Submit after Close: %v, want ErrClosed", err)
	}
}

func TestRouterMergesStatsAndPublishesMap(t *testing.T) {
	m, _ := NewMap(2, []string{"http://s0", "http://s1"})
	fakes := []*fakeMember{
		{stats: dispatch.CoordinatorStats{Workers: 2, Pending: 5, Leased: 1, Durable: true, Recovered: 3}},
		{stats: dispatch.CoordinatorStats{Workers: 1, Pending: 7, Leased: 2, Durable: true, Reattached: 1}},
	}
	r, err := NewRouter(RouterConfig{Map: m, Members: []Member{fakes[0], fakes[1]}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	agg := r.Stats()
	want := dispatch.CoordinatorStats{Workers: 3, Pending: 12, Leased: 3, Durable: true, Recovered: 3, Reattached: 1}
	if agg != want {
		t.Fatalf("merged stats %+v, want %+v", agg, want)
	}
	fakes[1].stats.Durable = false
	if r.Stats().Durable {
		t.Fatal("one volatile member must make the aggregate volatile")
	}

	mux := http.NewServeMux()
	r.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	st, err := GetStatus(context.Background(), nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Self != -1 || len(st.Shards) != 2 || len(st.Stats) != 2 {
		t.Fatalf("router status %+v, want self=-1 with 2 aligned shards", st)
	}
	if st.Shards[0].URL != "http://s0" || st.Stats[1].Pending != 7 {
		t.Fatalf("status payload mangled: %+v", st)
	}
}

func TestSelfPublishesOwnSlot(t *testing.T) {
	m, _ := NewMap(2, nil)
	st := tstore(t)
	c, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{Store: st, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	s, err := NewSelf(c, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Find a job shard 1 owns and one it doesn't.
	var owned, foreign dispatch.Job
	for i := 0; owned.ID == "" || foreign.ID == ""; i++ {
		j := testJob(i)
		if s.Owns(j.ID) {
			owned = j
		} else {
			foreign = j
		}
	}
	if _, err := s.Submit(owned, dispatch.SubmitOpts{}); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	s.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	status, err := GetStatus(context.Background(), nil, ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if status.Self != 1 || len(status.Stats) != 2 {
		t.Fatalf("self status %+v, want self=1", status)
	}
	if status.Stats[1].Pending != 1 || status.Stats[0].Pending != 0 {
		t.Fatalf("self must report only its own queue: %+v", status.Stats)
	}
	if s.Owns(foreign.ID) {
		t.Fatalf("shard 1 claims a job owned elsewhere")
	}
	// A mis-routed submission is refused, never journaled.
	if _, err := s.Submit(foreign, dispatch.SubmitOpts{}); err == nil {
		t.Fatal("shard 1 accepted a job the map assigns to shard 0")
	}
	if got := c.Stats().Pending; got != 1 {
		t.Fatalf("pending = %d after refused submit, want 1", got)
	}
}

func TestRemoteStatsAreCachedBriefly(t *testing.T) {
	var hits atomic.Int64
	m, _ := NewMap(1, nil)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		json.NewEncoder(w).Encode(Status{Self: 0, Shards: m.Shards, Stats: []dispatch.CoordinatorStats{{Pending: int(hits.Load())}}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	r, err := NewRemote(ts.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for i := 0; i < 10; i++ {
		if p := r.Stats().Pending; p != 1 {
			t.Fatalf("call %d saw pending %d, want the cached first snapshot", i, p)
		}
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("10 Stats() calls made %d fetches, want 1 (TTL cache)", n)
	}
}

// TestRouterOverRealCoordinators drives jobs through a 2-shard in-process
// topology end to end: router → owning coordinator → HTTP worker → store,
// with one worker per shard and spill enabled both ways.
func TestRouterOverRealCoordinators(t *testing.T) {
	m, err := NewMap(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*store.Store, 2)
	selves := make([]*Self, 2)
	servers := make([]*httptest.Server, 2)
	members := make([]Member, 2)
	for i := 0; i < 2; i++ {
		stores[i] = tstore(t)
		c, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{Store: stores[i], LeaseTTL: 5 * time.Second, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		selves[i], err = NewSelf(c, m, i)
		if err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		selves[i].Mount(mux)
		servers[i] = httptest.NewServer(mux)
		defer servers[i].Close()
		members[i] = selves[i]
	}
	r, err := NewRouter(RouterConfig{Map: m, Members: members, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	runner := func(ctx context.Context, job dispatch.Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		var spec struct {
			Cell int `json:"cell"`
		}
		if err := json.Unmarshal(job.Spec, &spec); err != nil {
			return nil, err
		}
		return cannedHist(spec.Cell), nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w, err := dispatch.NewWorker(dispatch.WorkerConfig{
			Coordinator: servers[i].URL,
			Shards:      []string{servers[0].URL, servers[1].URL},
			Runner:      runner,
			Name:        "w" + strconv.Itoa(i),
			PollWait:    200 * time.Millisecond,
			Logf:        t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}
	defer wg.Wait()
	defer cancel()

	const cells = 24
	handles := make([]dispatch.Handle, 0, cells)
	for i := 0; i < cells; i++ {
		h, err := r.Submit(testJob(i), dispatch.SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	for i, h := range handles {
		hist, err := waitDone(t, h)
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if want := cannedHist(i); hist.FinalAcc() != want.FinalAcc() {
			t.Fatalf("cell %d: wrong history", i)
		}
	}
	// Every artifact lives in the store of the shard owning its fingerprint.
	for i := 0; i < cells; i++ {
		job := testJob(i)
		idx, _ := m.Owner(job.ID)
		if _, ok, err := stores[idx].Get(job.ID); err != nil || !ok {
			t.Fatalf("cell %d missing from shard %d store (err %v)", i, idx, err)
		}
	}
	if agg := r.Stats(); agg.Pending != 0 || agg.Leased != 0 {
		t.Fatalf("drained topology reports %+v", agg)
	}
}
