// Package wire encodes the bodies of the worker→coordinator hop as JSON: a
// heartbeat's batch of round stats, and a job's result upload (history plus
// error message). The history is the fl.History JSON the public API serves,
// and encoding/json carries every finite float64 exactly (it writes the
// shortest form that parses back to the same bits), so a history decoded at
// the store boundary is the one the worker computed and a relayed round is
// the round it recorded.
//
// JSON has no NaN or ±Inf. A history holding one is not uploaded: its
// marshal error goes up as the run's error, so the job fails with a message
// that names it. A progress batch holding one fails to encode, and the
// worker beats without it.
//
// See DESIGN.md "Kernels & wire format" and docs/API.md for the protocol.
package wire

import (
	"encoding/json"
	"fmt"

	"fedwcm/internal/fl"
)

// ContentType is the media type of both bodies over HTTP.
const ContentType = "application/json"

// result is the body of a result upload.
type result struct {
	History *fl.History `json:"history,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// EncodeResult encodes a worker's terminal result upload: the run history
// (nil on failure) and an error message. A history JSON cannot carry is
// replaced by its marshal error.
func EncodeResult(h *fl.History, errMsg string) []byte {
	b, err := json.Marshal(result{History: h, Error: errMsg})
	if err != nil {
		b, _ = json.Marshal(result{Error: fmt.Sprintf("wire: history not encodable: %v", err)})
	}
	return b
}

// DecodeResult decodes an EncodeResult body.
func DecodeResult(p []byte) (*fl.History, string, error) {
	var r result
	if err := json.Unmarshal(p, &r); err != nil {
		return nil, "", err
	}
	return r.History, r.Error, nil
}

// EncodeStats encodes a heartbeat's batch of round stats. It fails on a
// round JSON cannot carry.
func EncodeStats(stats []fl.RoundStat) ([]byte, error) {
	return json.Marshal(stats)
}

// DecodeStats decodes an EncodeStats body.
func DecodeStats(p []byte) ([]fl.RoundStat, error) {
	var stats []fl.RoundStat
	if err := json.Unmarshal(p, &stats); err != nil {
		return nil, err
	}
	return stats, nil
}
