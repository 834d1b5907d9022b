package sweep

import (
	"encoding/json"
	"testing"
)

// FuzzRunSpecFingerprint fuzzes the content-address canonicalization with
// arbitrary JSON spellings of a RunSpec. The invariants under test:
//
//  1. Idempotence: re-decoding a spec's CanonicalJSON and fingerprinting
//     again yields the same fingerprint. Key order, float formatting
//     ("0.1" vs "1e-1"), and zero-vs-omitted fields in the *input* JSON
//     all collapse in Go's typed decode, so any two spellings that decode
//     to the same spec hash identically — this closure property is what
//     makes the store's compute-at-most-once guarantee hold.
//  2. Defaults transparency: Defaults() never changes the fingerprint.
//  3. Stability: the canonical encoding itself round-trips byte-for-byte.
//
// The seed corpus under testdata/fuzz/FuzzRunSpecFingerprint is checked in
// and runs as a regression on every plain `go test` (and in CI's race job),
// so canonicalization bugs found by fuzzing stay fixed.
func FuzzRunSpecFingerprint(f *testing.F) {
	f.Add(`{}`)
	f.Add(`{"dataset":"cifar10-syn","method":"fedwcm","beta":0.1,"if":0.1,"partition":"equal","clients":20,"model":"auto","scale":1}`)
	f.Add(`{"cfg":{"seed":3,"rounds":20},"beta":0.5,"method":"fedavg","dataset":"cifar10-syn"}`)
	f.Add(`{"beta":1e-1,"if":0.10000}`)
	f.Add(`{"cfg":{"drop_prob":0.25,"eval_every":2}}`)
	f.Add(`{"cfg":{"scenario":{}}}`)
	f.Add(`{"cfg":{"scenario":{"availability":{"down_prob":0.2,"up_prob":0.4}}}}`)
	f.Add(`{"cfg":{"scenario":{"straggler":{"prob":0.5}}}}`)
	f.Add(`{"cfg":{"scenario":{"straggler":{"prob":0.5,"min_frac":0.2,"max_frac":0.8},"drift":{"to_if":0.05,"stages":4}}}}`)
	f.Add(`{"cfg":{"scenario":{"drift":{"to_beta":1,"to_if":0.05}}}}`)
	f.Add(`{"cfg":{"async":{}}}`)
	f.Add(`{"cfg":{"async":{"k":0,"concurrency":0}}}`)
	f.Add(`{"cfg":{"async":{"staleness":"poly"}}}`)
	f.Add(`{"cfg":{"async":{"k":2,"staleness":"poly","stale_exp":0.5,"jitter":0.25},"clock":true}}`)
	f.Add(`{"cfg":{"async":{"staleness":"uniform","concurrency":8}}}`)
	f.Add(`{"cfg":{"async":{"k":1},"scenario":{"straggler":{"prob":0.5}}}}`)
	f.Add(`{"probes":[]}`)
	f.Add(`{"probes":null}`)
	f.Add(`{"probes":["train_acc","collapse","collapse"]}`)
	f.Add(`{"probes":["","no-such-probe"],"method":"fedcm"}`)
	f.Fuzz(func(t *testing.T, doc string) {
		var s RunSpec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Skip() // not a RunSpec spelling; nothing to canonicalise
		}
		fp1, err := s.Fingerprint()
		if err != nil {
			t.Fatalf("fingerprint of decodable spec failed: %v", err)
		}
		canon, err := s.CanonicalJSON()
		if err != nil {
			t.Fatalf("canonical JSON failed: %v", err)
		}
		var s2 RunSpec
		if err := json.Unmarshal(canon, &s2); err != nil {
			t.Fatalf("canonical JSON does not decode: %v\n%s", err, canon)
		}
		fp2, err := s2.Fingerprint()
		if err != nil {
			t.Fatalf("fingerprint of canonical decode failed: %v", err)
		}
		if fp1 != fp2 {
			t.Fatalf("canonicalisation not idempotent:\n doc   %s\n canon %s\n fp1 %s\n fp2 %s", doc, canon, fp1, fp2)
		}
		canon2, err := s2.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(canon) != string(canon2) {
			t.Fatalf("canonical encoding unstable:\n first  %s\n second %s", canon, canon2)
		}
		fpDef, err := s.Defaults().Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fpDef != fp1 {
			t.Fatalf("Defaults() changed the fingerprint: %s vs %s\n doc %s", fpDef, fp1, doc)
		}
	})
}

// TestScenarioZeroVsOmittedFingerprint pins the specific zero-vs-omitted
// cases the fuzz target explores around the scenario block: an empty
// scenario (and empty sub-blocks) must hash like no scenario at all, while
// real dynamics must split the address.
func TestScenarioZeroVsOmittedFingerprint(t *testing.T) {
	docs := map[string]string{
		"omitted":     `{}`,
		"empty":       `{"cfg":{"scenario":{}}}`,
		"zero-blocks": `{"cfg":{"scenario":{"availability":{},"straggler":{},"drift":{}}}}`,
	}
	var base string
	for name, doc := range docs {
		var s RunSpec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatal(err)
		}
		fp := fpOf(t, s)
		if base == "" {
			base = fp
		} else if fp != base {
			t.Fatalf("%s scenario spelling changed the fingerprint", name)
		}
	}
	var dyn RunSpec
	if err := json.Unmarshal([]byte(`{"cfg":{"scenario":{"straggler":{"prob":0.5}}}}`), &dyn); err != nil {
		t.Fatal(err)
	}
	if fpOf(t, dyn) == base {
		t.Fatal("a real scenario must change the fingerprint")
	}
	// Spelled-out straggler defaults hash like the terse spelling.
	var terse, spelled RunSpec
	json.Unmarshal([]byte(`{"cfg":{"scenario":{"straggler":{"prob":0.5}}}}`), &terse)
	json.Unmarshal([]byte(`{"cfg":{"scenario":{"straggler":{"prob":0.5,"min_frac":0.2,"max_frac":0.8}}}}`), &spelled)
	if fpOf(t, terse) != fpOf(t, spelled) {
		t.Fatal("spelled-out scenario defaults must not change the fingerprint")
	}
}

// TestAsyncZeroVsOmittedFingerprint is the same pin for the async block: an
// empty or all-zero async config is the synchronous engine and must hash
// like the field being absent (pre-async specs keep their addresses), while
// any real async setting — or the virtual clock — splits the address.
func TestAsyncZeroVsOmittedFingerprint(t *testing.T) {
	docs := map[string]string{
		"omitted":   `{}`,
		"empty":     `{"cfg":{"async":{}}}`,
		"zero-k":    `{"cfg":{"async":{"k":0}}}`,
		"all-zero":  `{"cfg":{"async":{"k":0,"concurrency":0,"stale_exp":0,"jitter":0}}}`,
		"clock-off": `{"cfg":{"clock":false}}`,
	}
	var base string
	for name, doc := range docs {
		var s RunSpec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatal(err)
		}
		fp := fpOf(t, s)
		if base == "" {
			base = fp
		} else if fp != base {
			t.Fatalf("%s async spelling changed the fingerprint", name)
		}
	}
	var on RunSpec
	if err := json.Unmarshal([]byte(`{"cfg":{"async":{"staleness":"poly"}}}`), &on); err != nil {
		t.Fatal(err)
	}
	if fpOf(t, on) == base {
		t.Fatal("a real async config must change the fingerprint")
	}
	var clock RunSpec
	if err := json.Unmarshal([]byte(`{"cfg":{"clock":true}}`), &clock); err != nil {
		t.Fatal(err)
	}
	if fpOf(t, clock) == base {
		t.Fatal("the virtual clock changes the history, so it must change the fingerprint")
	}
	// Spelled-out async defaults hash like the terse spelling: K and
	// concurrency derive from the cohort, poly's exponent defaults to 0.5.
	var terse, spelled RunSpec
	json.Unmarshal([]byte(`{"cfg":{"sample_clients":8,"async":{"staleness":"poly"}}}`), &terse)
	json.Unmarshal([]byte(`{"cfg":{"sample_clients":8,"async":{"k":4,"concurrency":8,"staleness":"poly","stale_exp":0.5}}}`), &spelled)
	if fpOf(t, terse) != fpOf(t, spelled) {
		t.Fatal("spelled-out async defaults must not change the fingerprint")
	}
}
