package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/trace"
)

// ArtifactHashHeader carries the SHA-256 of the raw artifact bytes on
// GET /v1/artifacts responses. The fingerprint in the URL addresses the
// *spec* that produced the artifact, not the artifact itself, so transfers
// are verified against this digest of what is actually on the wire.
const ArtifactHashHeader = "X-Artifact-SHA256"

// Replicate turns the store into a read-through replica: Fetch, on a local
// miss, asks each peer's /v1/artifacts endpoint in order and persists the
// first verified copy locally. peers are base URLs (typically the other
// shards of a sharded control plane — each one's store holds the artifacts
// for the fingerprints it owns). hc nil uses a 10s-timeout client.
// Replicate is meant to be called once, before the store starts serving.
func (s *Store) Replicate(peers []string, hc *http.Client) {
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	s.mu.Lock()
	s.peers = append([]string(nil), peers...)
	s.peerClient = hc
	s.mu.Unlock()
}

// Fetch is Get with read-through: a local hit (memory or disk) behaves
// exactly like Get; a local miss consults the configured peers, verifies
// the transferred bytes against ArtifactHashHeader, persists them verbatim
// (so the local file stays byte-identical to the peer's), and serves the
// decoded history. With no peers configured Fetch IS Get — the hot submit
// paths keep calling Get directly so a queue full of cache-miss probes
// never fans out over the network.
func (s *Store) Fetch(ctx context.Context, fp string) (*fl.History, bool, error) {
	h, ok, err := s.Get(fp)
	if err != nil || ok {
		return h, ok, err
	}
	s.mu.Lock()
	peers, hc := s.peers, s.peerClient
	s.mu.Unlock()
	for _, base := range peers {
		hist, raw, err := s.fetchPeer(ctx, hc, base, fp)
		switch {
		case err == errPeerMiss:
			s.mu.Lock()
			s.stats.PeerMisses++
			s.mu.Unlock()
			continue
		case err != nil:
			if ctx.Err() != nil {
				return nil, false, ctx.Err()
			}
			s.mu.Lock()
			s.stats.PeerErrors++
			s.mu.Unlock()
			continue // a flaky or corrupt peer must not mask a healthy one
		}
		// Persist the raw bytes, not a re-encode: byte identity with the
		// origin is part of the replication contract.
		if err := s.writeAtomic(fp, raw); err != nil {
			return nil, false, err
		}
		s.mu.Lock()
		s.stats.PeerHits++
		s.stats.Puts++
		s.insertLocked(fp, hist)
		s.mu.Unlock()
		return hist, true, nil
	}
	return nil, false, nil
}

// errPeerMiss distinguishes "the peer answered and doesn't have it" from
// peer failures, which are counted separately.
var errPeerMiss = fmt.Errorf("store: peer miss")

// fetchPeer retrieves and verifies one artifact from one peer: the body's
// SHA-256 must match ArtifactHashHeader, and the bytes must decode as a
// non-empty history — a truncated or tampered transfer yields an error,
// never a stored artifact.
func (s *Store) fetchPeer(ctx context.Context, hc *http.Client, base, fp string) (*fl.History, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/artifacts/"+fp, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil, errPeerMiss
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("store: peer %s: HTTP %d for %s", base, resp.StatusCode, fp)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("store: peer %s: reading %s: %w", base, fp, err)
	}
	sum := sha256.Sum256(raw)
	got := hex.EncodeToString(sum[:])
	if want := resp.Header.Get(ArtifactHashHeader); want != got {
		return nil, nil, fmt.Errorf("store: peer %s: artifact %s hash %s, header says %q", base, fp, got[:12], want)
	}
	hist, err := trace.DecodeHistory(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("store: peer %s: decoding %s: %w", base, fp, err)
	}
	return hist, raw, nil
}

// ArtifactHandler serves GET /v1/artifacts/{id}: the raw on-disk bytes of
// one artifact, with ArtifactHashHeader set to their SHA-256. It reads
// local disk only — a replica asking a replica must bottom out here, never
// recurse through another read-through.
func (s *Store) ArtifactHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fp := r.PathValue("id")
		if !ValidFingerprint(fp) {
			http.Error(w, "invalid fingerprint", http.StatusNotFound)
			return
		}
		raw, err := os.ReadFile(s.Path(fp))
		if err != nil {
			if os.IsNotExist(err) {
				http.Error(w, "no such artifact", http.StatusNotFound)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		sum := sha256.Sum256(raw)
		w.Header().Set(ArtifactHashHeader, hex.EncodeToString(sum[:]))
		w.Header().Set("Content-Type", "application/jsonl")
		w.Write(raw)
	}
}

// Mount registers the artifact endpoint on mux. Serving layers that meter
// their routes can mount ArtifactHandler themselves instead.
func (s *Store) Mount(mux *http.ServeMux) {
	mux.HandleFunc("GET /v1/artifacts/{id}", s.ArtifactHandler())
}
