package serve

import (
	"io"
	"net/http"
	"testing"

	"fedwcm/internal/wire"
)

// TestWireNegotiatedStatus pins the run-status encoding: /v1/runs/{id}
// speaks JSON only, so a client that lists the wire codec in Accept gets
// the same application/json body, byte for byte, as a plain client. The
// wire codec is the worker→coordinator hop's, not the public API's.
func TestWireNegotiatedStatus(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	code, first := postSpec(t, ts, tinySpec())
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: HTTP %d", code)
	}
	fin := waitTerminal(t, ts, first.ID)
	if fin.Status == StatusFailed {
		t.Fatalf("run failed: %s", fin.Error)
	}

	get := func(accept string) []byte {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/runs/"+first.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("Accept %q: HTTP %d", accept, resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Accept %q: Content-Type = %q, want application/json", accept, ct)
		}
		return body
	}
	plain := get("")
	viaWire := get(wire.ContentType)
	if string(plain) != string(viaWire) {
		t.Fatalf("Accept %q changed the body:\n%s\nvs\n%s", wire.ContentType, viaWire, plain)
	}
}
