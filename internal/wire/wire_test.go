package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"fedwcm/internal/fl"
	"fedwcm/internal/store"
)

// nastyFloat draws from a distribution heavy on encoder edge cases: exact
// zeros of both signs, NaN, infinities, subnormals, values with long
// matching bit prefixes, and fully random bit patterns.
func nastyFloat(r *rand.Rand) float64 {
	switch r.Intn(10) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1 - 2*r.Intn(2))
	case 4:
		return math.Float64frombits(r.Uint64() & 0xFFFFF) // subnormal
	case 5:
		return r.Float64() // [0,1): the realistic accuracy case
	case 6:
		return 0.5 + r.Float64()*1e-9 // tiny XOR against a nearby prev
	default:
		return math.Float64frombits(r.Uint64())
	}
}

func randStats(r *rand.Rand, n int) []fl.RoundStat {
	stats := make([]fl.RoundStat, n)
	round := 0
	for i := range stats {
		round += r.Intn(5) - 1 // rounds usually ascend, sometimes repeat/dip
		s := &stats[i]
		s.Round = round
		s.TestAcc = nastyFloat(r)
		s.TrainLoss = nastyFloat(r)
		if r.Intn(2) == 0 {
			s.Time = nastyFloat(r)
		}
		switch r.Intn(3) {
		case 0:
			s.PerClass = make([]float64, r.Intn(12))
			for j := range s.PerClass {
				s.PerClass[j] = nastyFloat(r)
			}
			if len(s.PerClass) == 0 {
				s.PerClass = nil
			}
		case 1:
			s.PerClass = []float64{} // must decode as nil (JSON-identical)
		}
		if nm := r.Intn(4); nm > 0 {
			s.Metrics = map[string]float64{}
			names := []string{"alpha", "buffer_wait", "m", "staleness_ema", "κ"}
			for j := 0; j < nm; j++ {
				s.Metrics[names[r.Intn(len(names))]] = nastyFloat(r)
			}
		} else if r.Intn(8) == 0 {
			s.Metrics = map[string]float64{} // empty map → nil on decode
		}
		if r.Intn(2) == 0 {
			s.Shot = &fl.ShotAcc{Head: nastyFloat(r), Medium: nastyFloat(r), Tail: nastyFloat(r)}
		}
		if r.Intn(3) == 0 {
			a := &fl.AsyncRoundStat{
				Buffer:    r.Intn(32),
				Partial:   r.Intn(2) == 0,
				Waves:     r.Intn(1000),
				MeanStale: nastyFloat(r),
				MaxStale:  r.Intn(64),
			}
			if r.Intn(2) == 0 {
				a.StaleHist = make([]int, r.Intn(8))
				for j := range a.StaleHist {
					a.StaleHist[j] = r.Intn(100)
				}
				if len(a.StaleHist) == 0 {
					a.StaleHist = nil
				}
			}
			s.Async = a
		}
	}
	return stats
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func statsEqual(t *testing.T, got, want []fl.RoundStat) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("len %d, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := &got[i], &want[i]
		if g.Round != w.Round || !bitsEq(g.TestAcc, w.TestAcc) || !bitsEq(g.TrainLoss, w.TrainLoss) || !bitsEq(g.Time, w.Time) {
			t.Fatalf("row %d scalar mismatch:\n got  %+v\n want %+v", i, g, w)
		}
		if len(g.PerClass) != len(w.PerClass) && !(len(w.PerClass) == 0 && g.PerClass == nil) {
			t.Fatalf("row %d PerClass len %d, want %d", i, len(g.PerClass), len(w.PerClass))
		}
		for j := range w.PerClass {
			if !bitsEq(g.PerClass[j], w.PerClass[j]) {
				t.Fatalf("row %d PerClass[%d] = %x, want %x", i, j, math.Float64bits(g.PerClass[j]), math.Float64bits(w.PerClass[j]))
			}
		}
		if len(g.Metrics) != len(w.Metrics) {
			t.Fatalf("row %d Metrics len %d, want %d", i, len(g.Metrics), len(w.Metrics))
		}
		for k, wv := range w.Metrics {
			gv, ok := g.Metrics[k]
			if !ok || !bitsEq(gv, wv) {
				t.Fatalf("row %d Metrics[%q] = %v (%v), want %v", i, k, gv, ok, wv)
			}
		}
		if (g.Shot == nil) != (w.Shot == nil) {
			t.Fatalf("row %d Shot presence mismatch", i)
		}
		if w.Shot != nil && (!bitsEq(g.Shot.Head, w.Shot.Head) || !bitsEq(g.Shot.Medium, w.Shot.Medium) || !bitsEq(g.Shot.Tail, w.Shot.Tail)) {
			t.Fatalf("row %d Shot mismatch: %+v vs %+v", i, g.Shot, w.Shot)
		}
		if (g.Async == nil) != (w.Async == nil) {
			t.Fatalf("row %d Async presence mismatch", i)
		}
		if w.Async != nil {
			ga, wa := g.Async, w.Async
			if ga.Buffer != wa.Buffer || ga.Partial != wa.Partial || ga.Waves != wa.Waves ||
				!bitsEq(ga.MeanStale, wa.MeanStale) || ga.MaxStale != wa.MaxStale {
				t.Fatalf("row %d Async mismatch: %+v vs %+v", i, ga, wa)
			}
			if len(ga.StaleHist) != len(wa.StaleHist) && !(len(wa.StaleHist) == 0 && ga.StaleHist == nil) {
				t.Fatalf("row %d StaleHist len mismatch", i)
			}
			for j := range wa.StaleHist {
				if ga.StaleHist[j] != wa.StaleHist[j] {
					t.Fatalf("row %d StaleHist[%d] = %d, want %d", i, j, ga.StaleHist[j], wa.StaleHist[j])
				}
			}
		}
	}
}

// TestResultRoundtripExact: EncodeResult/DecodeResult is bit-for-bit
// lossless on adversarial histories (NaN, ±Inf, ±0, subnormals, random bit
// patterns, nil-vs-empty containers).
func TestResultRoundtripExact(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		var h *fl.History
		if trial%10 != 0 {
			h = &fl.History{Method: []string{"fedwcm", "fedavg", ""}[r.Intn(3)], Stats: randStats(r, r.Intn(30))}
		}
		errMsg := []string{"", "client 3 diverged", "κ"}[r.Intn(3)]
		p := EncodeResult(h, errMsg)
		got, gotErr, err := DecodeResult(p)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if gotErr != errMsg {
			t.Fatalf("trial %d: errMsg %q, want %q", trial, gotErr, errMsg)
		}
		if (got == nil) != (h == nil) {
			t.Fatalf("trial %d: history presence mismatch", trial)
		}
		if h != nil {
			if got.Method != h.Method {
				t.Fatalf("trial %d: method %q, want %q", trial, got.Method, h.Method)
			}
			statsEqual(t, got.Stats, h.Stats)
		}
	}
}

// TestResultJSONBytesIdentical is the store-boundary guarantee: a decoded
// history must JSON-marshal to exactly the bytes of the original, so
// artifact contents and content addresses are unaffected by the transport
// (JSON can't represent NaN/Inf, so these fixtures stay finite — the
// bit-level cases are covered above). The "probed" fixture carries the keys
// run probes emit beside a method's own diagnostics: they are ordinary
// dynamic Metrics keys to the codec and to the store, which is why a probed
// cell can be dispatched, uploaded and cached like any other.
func TestResultJSONBytesIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	engine := &fl.History{Method: "fedwcm"}
	probed := &fl.History{Method: "fedwcm"}
	for i := 0; i < 60; i++ {
		s := fl.RoundStat{Round: i + 1, TestAcc: r.Float64(), TrainLoss: 2.3 * math.Exp(-float64(i)/40) * (1 + 0.01*r.Float64())}
		if i%2 == 0 {
			s.PerClass = make([]float64, 10)
			for j := range s.PerClass {
				s.PerClass[j] = r.Float64()
			}
		}
		if i%3 == 0 {
			s.Metrics = map[string]float64{"alpha": r.Float64(), "buffer_wait": float64(r.Intn(100))}
			s.Shot = &fl.ShotAcc{Head: r.Float64(), Medium: r.Float64(), Tail: r.Float64()}
		}
		if i%4 == 0 {
			s.Time = float64(i) * 1.5
			s.Async = &fl.AsyncRoundStat{Buffer: 8, Waves: i, MeanStale: r.Float64() * 3, MaxStale: 7, StaleHist: []int{4, 2, 1, 1}}
		}
		engine.Stats = append(engine.Stats, s)
		s.Time, s.Async = 0, nil // probed figures run on the barrier loop, clock off
		s.Metrics = map[string]float64{
			"alpha": r.Float64(), "q": r.Float64(), "wmax": 1 + r.Float64(),
			"concentration": 1 + r.Float64(), "concentration/act1": 1 + r.Float64(), "concentration/act2": 1 + r.Float64(),
			"train_acc": float64(r.Intn(1001)) / 1000,
		}
		probed.Stats = append(probed.Stats, s)
	}
	roundtrip := func(name string, h *fl.History) *fl.History {
		want, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := DecodeResult(EncodeResult(h, ""))
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if string(gotJSON) != string(want) {
			t.Fatalf("%s: decoded history JSON differs from original:\n got  %s\n want %s", name, gotJSON, want)
		}
		return got
	}
	roundtrip("engine", engine)
	decoded := roundtrip("probed", probed)
	// …and what the coordinator then files for the probed cell is what a later
	// reader (a fresh process: nothing in the memory tier) gets back.
	want, _ := json.Marshal(probed)
	fp := fmt.Sprintf("%x", sha256.Sum256(want))
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(fp, decoded); err != nil {
		t.Fatal(err)
	}
	if st, err = store.Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	stored, ok, err := st.Get(fp)
	if err != nil || !ok {
		t.Fatalf("stored artifact not readable: %v %v", ok, err)
	}
	if storedJSON, _ := json.Marshal(stored); string(storedJSON) != string(want) {
		t.Fatalf("stored probed history differs from the original (%d vs %d JSON bytes)", len(storedJSON), len(want))
	}
}

func TestStatsRoundtripExact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		stats := randStats(r, r.Intn(20))
		got, err := DecodeStats(EncodeStats(stats))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		statsEqual(t, got, stats)
	}
}

// retiredFloat16Stats is EncodeStats(stats) with the retired column-format
// flag set — the byte after the row count, which once marked a float16
// per-class column.
func retiredFloat16Stats(stats []fl.RoundStat) []byte {
	p := EncodeStats(stats)
	p[len(magic)+1+len(binary.AppendUvarint(nil, uint64(len(stats))))] = 1
	return p
}

// TestRetiredFloat16ColumnIsRefused: no path quantizes any more, so a
// payload flagging the old float16 per-class column is an error, never a
// silently lossy decode (and never a panic).
func TestRetiredFloat16ColumnIsRefused(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	if _, err := DecodeStats(retiredFloat16Stats(randStats(r, 3))); err == nil {
		t.Fatal("a float16-flagged stats payload decoded")
	}
	p := EncodeStats(randStats(r, 3))
	if _, err := DecodeStats(p); err != nil {
		t.Fatalf("lossless payload: %v", err)
	}
}

// TestDecodeRejectsCorrupt: every truncation of a valid message, plus bad
// magic and kind confusion, must error — never panic, never silently
// succeed with wrong data.
func TestDecodeRejectsCorrupt(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	h := &fl.History{Method: "fedwcm", Stats: randStats(r, 8)}
	p := EncodeResult(h, "err")
	for n := 0; n < len(p); n++ {
		if _, _, err := DecodeResult(p[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
	bad := append([]byte{}, p...)
	bad[0] = 'X'
	if _, _, err := DecodeResult(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeStats(p); err == nil {
		t.Fatal("result payload accepted as stats")
	}
}

// TestWireSmallerThanJSON pins the transport-size win on the reference
// workload (SampleHistory: engine-shaped accuracy quotients, plateaus,
// shot/async blocks): the wire encoding must be at least 5× smaller than
// the JSON body it replaces. The bench/ wire.* probes track the exact numbers.
func TestWireSmallerThanJSON(t *testing.T) {
	h := SampleHistory(100, 10)
	jsonBody, err := json.Marshal(struct {
		History *fl.History `json:"history,omitempty"`
		Error   string      `json:"error,omitempty"`
	}{History: h})
	if err != nil {
		t.Fatal(err)
	}
	wireBody := EncodeResult(h, "")
	t.Logf("json=%d wire=%d ratio=%.1f", len(jsonBody), len(wireBody), float64(len(jsonBody))/float64(len(wireBody)))
	if len(wireBody)*5 > len(jsonBody) {
		t.Fatalf("wire encoding %d bytes not ≥5× smaller than JSON %d bytes", len(wireBody), len(jsonBody))
	}
}
