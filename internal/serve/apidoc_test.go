package serve

import (
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/store"
)

// apiIndexRow matches one row of docs/API.md's "Index" table:
// "| [`METHOD /path`](#anchor) | purpose |".
var apiIndexRow = regexp.MustCompile("^\\| \\[`([A-Z]+) ([^`]+)`\\]")

// removedRoute matches a backticked `METHOD /path` in running text.
var removedRoute = regexp.MustCompile("`([A-Z]+) (/[^` ]+)`")

// muxMiss reports whether the response is the ServeMux's own "no such
// route" (404 page not found) or "wrong method" (405) rather than a
// handler's answer. Handlers here report unknown ids as JSON, so a 404
// with any other body means the route exists.
func muxMiss(code int, body string) bool {
	return code == http.StatusMethodNotAllowed ||
		(code == http.StatusNotFound && body == "404 page not found\n")
}

// TestDocumentedRoutesAreMounted makes the route table in docs/API.md
// executable: every documented method+path, with its placeholders filled
// by a well-formed fingerprint, must reach a handler on a coordinator-backed
// server (the topology that mounts the worker protocol too). What the
// handler answers — 200, a 400 for the empty body, a JSON 404 for the
// unknown id — is not this test's business; the mux's own 404/405 is. The
// reverse holds for the routes DESIGN.md lists as removed.
func TestDocumentedRoutesAreMounted(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{Store: st, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Store: st, Executor: coord})

	do := func(method, path string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		return resp.StatusCode, string(body)
	}

	// section returns the lines of the "## <heading>" section of a
	// repo-root-relative markdown file.
	section := func(file, heading string) []string {
		t.Helper()
		raw, err := os.ReadFile(filepath.Join("..", "..", file))
		if err != nil {
			t.Fatalf("reading %s: %v", file, err)
		}
		var out []string
		in := false
		for _, line := range strings.Split(string(raw), "\n") {
			switch {
			case strings.HasPrefix(line, "## ") || strings.HasPrefix(line, "### "):
				in = strings.TrimLeft(line, "# ") == heading
			case in:
				out = append(out, line)
			}
		}
		if len(out) == 0 {
			t.Fatalf("%s has no %q section — renamed?", file, heading)
		}
		return out
	}
	fp := strings.Repeat("ab", 32)
	fill := strings.NewReplacer("{id}", fp, "{job}", fp, "{fp}", fp)

	rows := 0
	for _, line := range section("docs/API.md", "Index") {
		m := apiIndexRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		rows++
		if code, body := do(m[1], fill.Replace(m[2])); muxMiss(code, body) {
			t.Errorf("docs/API.md documents %s %s, but no handler is mounted for it (HTTP %d %q)", m[1], m[2], code, body)
		}
	}
	if rows == 0 {
		t.Fatal("found no route rows in docs/API.md's Index table — reformatted?")
	}

	// DESIGN.md names the routes that went with the second coordinator; each
	// must be gone from the mux, not merely undocumented.
	removed := removedRoute.FindAllStringSubmatch(strings.Join(section("DESIGN.md", "Why one coordinator"), "\n"), -1)
	if len(removed) == 0 {
		t.Fatal(`DESIGN.md "Why one coordinator" names no removed route — reworded?`)
	}
	for _, m := range removed {
		if code, body := do(m[1], fill.Replace(m[2])); !muxMiss(code, body) {
			t.Errorf("DESIGN.md says %s %s was removed, but something answered it: HTTP %d %q", m[1], m[2], code, body)
		}
	}
}
