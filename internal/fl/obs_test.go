package fl

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fedwcm/internal/obs"
)

// TestHistoryIdenticalWithMetricsEnabled is the golden regression behind the
// observability layer's core promise: instrumentation observes the run, it
// never steers it. The same seeded environment must produce byte-identical
// history JSON whether metrics/tracing are fully enabled, explicitly no-op,
// or left at the process default.
func TestHistoryIdenticalWithMetricsEnabled(t *testing.T) {
	run := func(configure func(*Env)) []byte {
		env := testEnv(11, Config{Rounds: 4, EvalEvery: 2, Workers: 2}, 4, 6, 0.5, 1)
		if configure != nil {
			configure(env)
		}
		h := Run(env, &sgdMethod{})
		b, err := json.Marshal(h)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	baseline := run(func(env *Env) {
		env.metrics = NewRunMetrics(nil) // explicit no-op bundle
	})
	enabled := run(func(env *Env) {
		env.metrics = NewRunMetrics(obs.NewRegistry())
		env.Tracer = obs.NewTracer(128)
		env.TraceID = "golden-trace"
	})
	defaulted := run(nil) // nil metrics → DefaultRunMetrics()

	if !bytes.Equal(baseline, enabled) {
		t.Errorf("history diverged with metrics+tracing enabled:\nno-op: %s\nenabled: %s", baseline, enabled)
	}
	if !bytes.Equal(baseline, defaulted) {
		t.Errorf("history diverged under default registry:\nno-op: %s\ndefault: %s", baseline, defaulted)
	}
}

// TestRunMetricsPopulated sanity-checks that an instrumented run actually
// moves its own series (the inverse guard: metrics are not silently no-op
// when a registry IS provided).
func TestRunMetricsPopulated(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(256)
	env := testEnv(11, Config{Rounds: 3, EvalEvery: 1, Workers: 2}, 4, 6, 0.5, 1)
	env.metrics = NewRunMetrics(reg)
	env.Tracer = tracer
	env.TraceID = "populated"
	Run(env, &sgdMethod{})

	m := env.metrics
	if got := m.Rounds.Value(); got != 3 {
		t.Errorf("rounds counter %d, want 3", got)
	}
	if m.RoundSeconds.Count() != 3 {
		t.Errorf("round histogram count %d, want 3", m.RoundSeconds.Count())
	}
	if m.ClientsTrained.Value() == 0 {
		t.Error("client step counter never moved")
	}
	if m.ClientSeconds.Count() == 0 {
		t.Error("client step histogram never observed")
	}
	if len(tracer.Collect("populated")) != 3 {
		t.Errorf("round spans %d, want 3", len(tracer.Collect("populated")))
	}
}

// TestRunMetricsHoldOnlyCrossRunSeries guards that the fl bundle stays safe
// to share between concurrently training runs: every series it registers
// must sum across runs (a counter or a histogram). An unlabeled gauge would
// read whichever run wrote it last; a run's own readings belong in its
// RoundStats.
func TestRunMetricsHoldOnlyCrossRunSeries(t *testing.T) {
	reg := obs.NewRegistry()
	NewRunMetrics(reg)
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(buf.String(), "\n") {
		rest, ok := strings.CutPrefix(line, "# TYPE fedwcm_fl_")
		if !ok {
			continue
		}
		n++
		if typ := rest[strings.LastIndexByte(rest, ' ')+1:]; typ != "counter" && typ != "histogram" {
			t.Errorf("%s: type %s, want counter or histogram", line, typ)
		}
	}
	if n == 0 {
		t.Fatalf("no fedwcm_fl_ series in the exposition:\n%s", buf.String())
	}
}
