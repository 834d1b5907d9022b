package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"fedwcm/internal/fl"
	"fedwcm/internal/wire"
)

// sample20 is the 20-row artifact the benchmark's warm_reads pre-fills, minus
// what an artifact cannot carry: Record has no time/async field (DESIGN.md
// "What an artifact does not carry"), so a history that sets them would not
// survive the round trip the tests below assert.
func sample20() *fl.History {
	h := wire.SampleHistory(20, 10)
	for i := range h.Stats {
		h.Stats[i].Time, h.Stats[i].Async = 0, nil
	}
	return h
}

// decodeFixtures are histories whose WriteJSONL bytes must decode back to
// themselves. scanned says whether the scanner has to recognise them: all of
// them, except where a string needs unescaping.
var decodeFixtures = []struct {
	name    string
	hist    *fl.History
	scanned bool
}{
	{"sample20", sample20(), true},
	{"bare rows", &fl.History{Method: "fedavg", Stats: []fl.RoundStat{
		{Round: 0}, {Round: 5, TestAcc: 0.25, TrainLoss: 2.5}, {Round: -1, TestAcc: 1, TrainLoss: 1},
	}}, true},
	{"probed", &fl.History{Method: "fedcm", Stats: []fl.RoundStat{
		{Round: 2, TestAcc: 0.31, TrainLoss: 1.9, Metrics: map[string]float64{
			"concentration": 0.42, "concentration/act1": 0.5, "concentration/act2": 0.125, "train_acc": 0.33}},
		{Round: 4, TestAcc: 0.35, TrainLoss: 1.7, PerClass: []float64{0.9, 0.1, 0}, Metrics: map[string]float64{
			"concentration": 0.61, "concentration/act1": 0.75, "concentration/act2": 0.25, "train_acc": 0.4}},
	}}, true},
	{"exponents and -0", &fl.History{Method: "fedwcm", Stats: []fl.RoundStat{
		{Round: 1, TestAcc: 1e-07, TrainLoss: 1e+21, PerClass: []float64{math.Copysign(0, -1), 5e-324, math.MaxFloat64},
			Metrics: map[string]float64{"alpha": -1.5e-300},
			Shot:    &fl.ShotAcc{Head: math.Copysign(0, -1), Medium: 123456789012345680, Tail: 0.1 + 0.2}},
	}}, true},
	{"empty method", &fl.History{Method: "", Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}, true},
	{"escaped method", &fl.History{Method: "fed\"cm\\<b>\n", Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}, false},
	{"non-ASCII method", &fl.History{Method: "fédwcm±", Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}, false},
	{"non-ASCII metric key", &fl.History{Method: "m", Stats: []fl.RoundStat{
		{Round: 1, TestAcc: 0.5, Metrics: map[string]float64{"α": 0.3}}}}, false},
}

func artifactBytes(t testing.TB, h *fl.History) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, map[string]*fl.History{strings.Repeat("ab", 32): h}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// row is a minimal recognised line; the malformed seeds below are edits of it.
const row = `{"run":"r","method":"m","round":1,"test_acc":0.5,"train_loss":1.25}` + "\n"

// decodeSeeds are inputs around the edge of what the scanner recognises and
// of what ReadJSONL accepts. The fuzz corpus under testdata/fuzz holds the
// same bytes (and the fixtures' artifacts as written at PR 20).
var decodeSeeds = []string{
	"",
	" \n\t\n",
	row,
	row + row,
	strings.TrimSuffix(row+row, "\n"), // no newline after the last object
	row + row[:len(row)/2],            // truncated last line
	strings.TrimSuffix(row, "\n") + strings.TrimSuffix(row, "\n") + "\n", // two objects on one line
	"{\n  \"run\": \"r\",\n  \"method\": \"m\",\n  \"round\": 1,\n  \"test_acc\": 0.5,\n  \"train_loss\": 1.25\n}\n",
	`{"method":"m","run":"r","round":1,"test_acc":0.5,"train_loss":1.25}` + "\n", // reordered keys
	`{"run":"r","method":"m","round":1,"test_acc":0.5,"train_loss":1.25,"time":3}` + "\n",
	`{"run":"r","method":"m","round":1.0,"test_acc":0.5,"train_loss":1.25}` + "\n",
	`{"run":"r","method":"m","round":1e2,"test_acc":0.5,"train_loss":1.25}` + "\n",
	`{"run":"r","method":"m","round":9223372036854775808,"test_acc":0.5,"train_loss":1.25}` + "\n",
	`{"run":"r","method":"m","round":-0,"test_acc":-0,"train_loss":-0.0e-0}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":1e999,"train_loss":1.25}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":1e-999,"train_loss":1.25}` + "\n",
	`{"run":"r","method":"m","round":01,"test_acc":0.5,"train_loss":1.25}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":+0.5,"train_loss":1.25}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":.5,"train_loss":1.25}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":0x1p-2,"train_loss":1.25}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":1_0,"train_loss":1.25}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":Inf,"train_loss":NaN}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":0.5,"train_loss":1.25,"metrics":{}}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":0.5,"train_loss":1.25,"metrics":{"a":1,"a":2}}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":0.5,"train_loss":1.25,"metrics":{"a":null}}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":0.5,"train_loss":1.25,"metrics":null,"per_class":null,"shot":null}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":0.5,"train_loss":1.25,"per_class":[]}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":0.5,"train_loss":1.25,"per_class":[1,]}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":0.5,"train_loss":1.25,"per_class":[0.5,1e-3],"shot":{"head":1,"medium":0.5,"tail":0}}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":0.5,"train_loss":1.25,"shot":{"tail":1,"medium":0.5,"head":0}}` + "\n",
	`{"run":"r","method":"m","round":1,"test_acc":0.5,"train_loss":1.25,"shot":{"head":1}}` + "\n",
	`{"run":"r\u0041","method":"m","round":1,"test_acc":0.5,"train_loss":1.25}` + "\n",
	"{\"run\":\"r\x01\",\"method\":\"m\",\"round\":1,\"test_acc\":0.5,\"train_loss\":1.25}\n",
	"{\"run\":\"r\",\"method\":\"\xff\",\"round\":1,\"test_acc\":0.5,\"train_loss\":1.25}\n",
	`{"run":"r","method":"","round":1,"test_acc":0.5,"train_loss":1.25}` + "\n" + `{"run":"r","method":"late","round":2,"test_acc":0.5,"train_loss":1.25}` + "\n",
	`{"Run":"r","METHOD":"m","round":1,"test_acc":0.5,"train_loss":1.25}` + "\n",
	row + "}\n",  // ReadJSONL stops at a stray closer without an error
	row + "]x\n", // likewise
	"]",
	"[1]",
	"1 2 3",
	"null\n",
	row + "\n" + row, // blank line between rows
	"\n" + row,
	row + "garbage",
}

// sameHistory compares floats by their bits, so -0 is not 0, and tells nil
// containers from empty ones, so no value DecodeHistory hands out differs
// from what ReadJSONL would have produced.
func sameHistory(got, want *fl.History) error {
	bits := math.Float64bits
	if got.Method != want.Method {
		return fmt.Errorf("method %q, want %q", got.Method, want.Method)
	}
	if len(got.Stats) != len(want.Stats) {
		return fmt.Errorf("%d rows, want %d", len(got.Stats), len(want.Stats))
	}
	for i := range want.Stats {
		g, w := &got.Stats[i], &want.Stats[i]
		if g.Round != w.Round || bits(g.TestAcc) != bits(w.TestAcc) || bits(g.TrainLoss) != bits(w.TrainLoss) {
			return fmt.Errorf("row %d: scalars %+v, want %+v", i, *g, *w)
		}
		if g.Time != 0 || g.Async != nil {
			return fmt.Errorf("row %d: time/async set: %+v", i, *g)
		}
		if (g.PerClass == nil) != (w.PerClass == nil) || len(g.PerClass) != len(w.PerClass) {
			return fmt.Errorf("row %d: per_class %#v, want %#v", i, g.PerClass, w.PerClass)
		}
		for c := range w.PerClass {
			if bits(g.PerClass[c]) != bits(w.PerClass[c]) {
				return fmt.Errorf("row %d: per_class[%d] %v, want %v", i, c, g.PerClass[c], w.PerClass[c])
			}
		}
		if (g.Metrics == nil) != (w.Metrics == nil) || len(g.Metrics) != len(w.Metrics) {
			return fmt.Errorf("row %d: metrics %#v, want %#v", i, g.Metrics, w.Metrics)
		}
		for k, wv := range w.Metrics {
			if gv, ok := g.Metrics[k]; !ok || bits(gv) != bits(wv) {
				return fmt.Errorf("row %d: metrics[%q] %v (present %v), want %v", i, k, gv, ok, wv)
			}
		}
		if (g.Shot == nil) != (w.Shot == nil) {
			return fmt.Errorf("row %d: shot %v, want %v", i, g.Shot, w.Shot)
		}
		if w.Shot != nil && (bits(g.Shot.Head) != bits(w.Shot.Head) || bits(g.Shot.Medium) != bits(w.Shot.Medium) || bits(g.Shot.Tail) != bits(w.Shot.Tail)) {
			return fmt.Errorf("row %d: shot %+v, want %+v", i, *g.Shot, *w.Shot)
		}
	}
	return nil
}

// checkDecode is the contract: DecodeHistory fails iff ReadJSONL does or
// there is no row, and otherwise yields historyFromRecords(ReadJSONL(data)).
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	recs, refErr := ReadJSONL(bytes.NewReader(data))
	got, err := DecodeHistory(data)
	if refErr != nil || len(recs) == 0 {
		if err == nil {
			t.Fatalf("DecodeHistory accepted %q; ReadJSONL: %d records, err %v", data, len(recs), refErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("DecodeHistory(%q) = %v; ReadJSONL reads %d records", data, err, len(recs))
	}
	if err := sameHistory(got, historyFromRecords(recs)); err != nil {
		t.Fatalf("DecodeHistory(%q) differs from ReadJSONL: %v", data, err)
	}
}

func FuzzDecodeHistory(f *testing.F) {
	for _, fx := range decodeFixtures {
		f.Add(artifactBytes(f, fx.hist))
	}
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecode)
}

// TestScannerRecognisesWhatWriteJSONLEmits keeps the fast path taken: the
// differential contract holds just as well if the scanner recognises
// nothing, so this pins that it recognises everything the store writes.
func TestScannerRecognisesWhatWriteJSONLEmits(t *testing.T) {
	for _, fx := range decodeFixtures {
		t.Run(fx.name, func(t *testing.T) {
			data := artifactBytes(t, fx.hist)
			scanned, ok := scanHistory(data)
			if ok != fx.scanned {
				t.Fatalf("scanner recognised = %v, want %v:\n%s", ok, fx.scanned, data)
			}
			got, err := DecodeHistory(data)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				if err := sameHistory(scanned, got); err != nil {
					t.Fatalf("scanner and DecodeHistory disagree: %v", err)
				}
			}
			if err := sameHistory(got, fx.hist); err != nil {
				t.Fatalf("round trip: %v", err)
			}
		})
	}
}

// TestScannerVerdicts: which side of the line a recognised row lands on
// after a one-token edit. (That both sides decode alike is the fuzz target's
// job; its seeds run with every go test.)
func TestScannerVerdicts(t *testing.T) {
	for s, want := range map[string]bool{
		row:                                     true,
		strings.TrimSuffix(row, "\n"):           true,
		row + "\n":                              false,
		strings.Replace(row, "1,", "1.0,", 1):   false,
		strings.Replace(row, "0.5", "1e999", 1): false,
		strings.Replace(row, `}`, `,"metrics":{}}`, 1):   false,
		strings.Replace(row, `}`, `,"per_class":[]}`, 1): false,
		strings.Replace(row, `"m"`, `"\u006d"`, 1):       false,
	} {
		if _, ok := scanHistory([]byte(s)); ok != want {
			t.Errorf("scanner recognised = %v, want %v: %q", ok, want, s)
		}
	}
}

func TestDecodeHistoryRejectsNoRows(t *testing.T) {
	for _, s := range []string{"", "\n", " \t\n ", "]", "}"} {
		if recs, err := ReadJSONL(strings.NewReader(s)); err != nil || len(recs) != 0 {
			t.Fatalf("ReadJSONL(%q) = %d records, %v; the case wants none and no error", s, len(recs), err)
		}
		if h, err := DecodeHistory([]byte(s)); err == nil {
			t.Errorf("DecodeHistory(%q) = %+v, want an error", s, h)
		}
	}
}

// TestDecodeHistoryAllocations: the scanner exists to not allocate what the
// reflection decoder does (a scan buffer, a Record and a run string per row).
func TestDecodeHistoryAllocations(t *testing.T) {
	data := artifactBytes(t, sample20())
	ref := testing.AllocsPerRun(20, func() {
		recs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		historyFromRecords(recs)
	})
	got := testing.AllocsPerRun(20, func() {
		if _, err := DecodeHistory(data); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations for the 20-row artifact (%d bytes): DecodeHistory %v, ReadJSONL %v", len(data), got, ref)
	if got*2 > ref {
		t.Fatalf("DecodeHistory allocates %v times, more than half of ReadJSONL's %v", got, ref)
	}
}
