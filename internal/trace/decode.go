package trace

import (
	"bytes"
	"errors"
	"strconv"

	"fedwcm/internal/fl"
)

// DecodeHistory decodes one history's JSONL artifact — the bytes WriteJSONL
// produced for a single run, as internal/store files them. ReadJSONL is the
// definition of the format; DecodeHistory accepts exactly what it accepts
// and yields the same values, except that an artifact without a single row
// is an error (a History with no evaluation is not something a run can
// produce, and would otherwise read as a cached cell of accuracy 0).
//
// Artifacts in the exact shape WriteJSONL emits — which is every artifact the
// store wrote itself — go through a scanner that writes straight into the
// History. If any line is not in that shape the whole input goes through
// ReadJSONL instead, not just that line: a json.Decoder accepts values split
// across lines or sharing one, so only the whole stream has a defined
// meaning.
func DecodeHistory(data []byte) (*fl.History, error) {
	h, ok := scanHistory(data)
	if !ok {
		recs, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		h = historyFromRecords(recs)
	}
	if len(h.Stats) == 0 {
		return nil, errors.New("trace: artifact holds no evaluation rows")
	}
	return h, nil
}

// historyFromRecords reassembles a History from its JSONL rows. Rows carry
// the method name redundantly; the first non-empty one wins.
func historyFromRecords(recs []Record) *fl.History {
	h := &fl.History{}
	for _, r := range recs {
		if h.Method == "" {
			h.Method = r.Method
		}
		h.Stats = append(h.Stats, fl.RoundStat{
			Round:     r.Round,
			TestAcc:   r.TestAcc,
			PerClass:  r.PerClass,
			TrainLoss: r.Loss,
			Metrics:   r.Metrics,
			Shot:      r.Shot,
		})
	}
	return h
}

// minRowLen is the length of the shortest line scanHistory recognises
// (empty strings, single-digit numbers, no optional field, its newline).
const minRowLen = len(`{"run":"","method":"","round":0,"test_acc":0,"train_loss":0}` + "\n")

// scanHistory decodes data if every line of it has exactly the shape
// WriteJSONL emits:
//
//	{"run":S,"method":S,"round":I,"test_acc":N,"train_loss":N
//	  [,"metrics":{S:N,…}][,"per_class":[N,…]]
//	  [,"shot":{"head":N,"medium":N,"tail":N}]}
//
// with no whitespace, keys in that order, and a newline after each object
// (optional after the last). S is a string that needs no unescaping, N a
// JSON number that strconv.ParseFloat — the function encoding/json itself
// calls — accepts in range, I one that strconv.ParseInt accepts. Anything
// else (escapes, other key orders, unknown keys, empty containers, nulls) is
// reported as not recognised, never guessed at. The run label is validated
// and dropped: a History has nowhere to put it.
func scanHistory(data []byte) (*fl.History, bool) {
	// Size Stats by the line count, but never by more than the input could
	// hold in recognised rows (a megabyte of newlines is not a million rows).
	rows := bytes.Count(data, []byte{'\n'}) + 1
	h := &fl.History{Stats: make([]fl.RoundStat, 0, min(rows, len(data)/minRowLen+1))}
	s := scanner{b: data}
	for s.i < len(s.b) {
		if !s.row(h) {
			return nil, false
		}
	}
	return h, true
}

// scanner is a cursor over an artifact; every method advances past what it
// consumed and reports false, with the cursor unspecified, on a mismatch.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) row(h *fl.History) bool {
	var st fl.RoundStat
	if !s.lit(`{"run":`) {
		return false
	}
	if _, ok := s.str(); !ok || !s.lit(`,"method":`) {
		return false
	}
	method, ok := s.str()
	if !ok || !s.lit(`,"round":`) {
		return false
	}
	round, ok := s.num()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(round), 10, 0)
	if err != nil || !s.lit(`,"test_acc":`) {
		return false
	}
	st.Round = int(n)
	if st.TestAcc, ok = s.float(); !ok || !s.lit(`,"train_loss":`) {
		return false
	}
	if st.TrainLoss, ok = s.float(); !ok {
		return false
	}
	if s.lit(`,"metrics":{`) {
		st.Metrics = make(map[string]float64)
		for more := true; more; more = s.char(',') {
			key, ok := s.str()
			if !ok || !s.char(':') {
				return false
			}
			v, ok := s.float()
			if !ok {
				return false
			}
			st.Metrics[string(key)] = v // a repeated key: the last one wins, as in encoding/json
		}
		if !s.char('}') {
			return false
		}
	}
	if s.lit(`,"per_class":[`) {
		// A number holds no comma, so the commas before the closing bracket
		// count the elements.
		end := bytes.IndexByte(s.b[s.i:], ']')
		if end < 0 {
			return false
		}
		st.PerClass = make([]float64, 0, bytes.Count(s.b[s.i:s.i+end], []byte{','})+1)
		for more := true; more; more = s.char(',') {
			v, ok := s.float()
			if !ok {
				return false
			}
			st.PerClass = append(st.PerClass, v)
		}
		if !s.char(']') {
			return false
		}
	}
	if s.lit(`,"shot":{"head":`) {
		st.Shot = &fl.ShotAcc{}
		if st.Shot.Head, ok = s.float(); !ok || !s.lit(`,"medium":`) {
			return false
		}
		if st.Shot.Medium, ok = s.float(); !ok || !s.lit(`,"tail":`) {
			return false
		}
		if st.Shot.Tail, ok = s.float(); !ok || !s.char('}') {
			return false
		}
	}
	if !s.char('}') || (s.i < len(s.b) && !s.char('\n')) {
		return false
	}
	if h.Method == "" {
		h.Method = string(method)
	}
	h.Stats = append(h.Stats, st)
	return true
}

// lit consumes the literal t.
func (s *scanner) lit(t string) bool {
	if end := s.i + len(t); end <= len(s.b) && string(s.b[s.i:end]) == t {
		s.i = end
		return true
	}
	return false
}

// str consumes a quoted string whose bytes are its value: no escape, no
// control character, nothing outside ASCII.
func (s *scanner) str() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i+1 : j]
			s.i = j + 1
			return v, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// num consumes one number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
// strconv alone would also take "+1", "0x1p-2", "1_000", "Inf" and ".5".
func (s *scanner) num() ([]byte, bool) {
	start := s.i
	s.char('-')
	if !s.char('0') && !s.digits() {
		return nil, false
	}
	if s.char('.') && !s.digits() {
		return nil, false
	}
	if s.char('e') || s.char('E') {
		if !s.char('+') {
			s.char('-')
		}
		if !s.digits() {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// char consumes the byte c.
func (s *scanner) char(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// digits consumes one or more decimal digits.
func (s *scanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

// float consumes a JSON number and converts it the way encoding/json does.
// A range error is a mismatch, so the caller falls back and reports it in
// encoding/json's words.
func (s *scanner) float() (float64, bool) {
	t, ok := s.num()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(t), 64)
	return v, err == nil
}
